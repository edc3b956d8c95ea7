"""Shared numeric primitives: totient, lcm(2,q), li(x), twin prime constant.

Everything else in the package leans on these; keep the module free of
intra-package imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# li(2): the logarithmic integral carries its principal-value singularity at
# t = 1 inside this constant, so quadrature never has to straddle it.
LI_AT_2 = 1.0451637801174927848

EULER_GAMMA = 0.5772156649015329

# prod over odd primes p of p(p-2)/(p-1)^2
TWIN_PRIME_CONSTANT = 0.6601618158468696

UINT64_MAX = (1 << 64) - 1


@dataclass(frozen=True)
class NumConstants:
    pi2: float = TWIN_PRIME_CONSTANT
    pi2_inv: float = 1.0 / TWIN_PRIME_CONSTANT
    euler_gamma: float = EULER_GAMMA
    li_offset: float = LI_AT_2


CONSTANTS = NumConstants()


def totient(q: int) -> int:
    """Euler's phi by trial-division factorization."""
    if q < 1:
        raise ValueError("totient needs a positive integer")
    if q > UINT64_MAX:
        raise OverflowError("totient argument exceeds 64-bit range")
    result = q
    n = q
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1 if p == 2 else 2
    if n > 1:
        result -= result // n
    return result


def lcm2(q: int) -> int:
    """lcm(2, q): the common step of gap sizes in a residue class mod q."""
    if q < 1:
        raise ValueError("lcm2 needs a positive integer")
    out = q if q % 2 == 0 else 2 * q
    if out > UINT64_MAX:
        raise OverflowError("lcm(2, q) exceeds 64-bit range")
    return out


# 32-point Gauss-Legendre rule on [-1, 1]; composite panels below.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)

# Cap on quadrature nodes evaluated per numpy pass (2 MiB per float64
# temporary). A chunk holds whole integrals, at least one.
_CHUNK_NODES = 1 << 18


def _panel_edges(a: np.ndarray, b: np.ndarray, panels: int, geometric: bool) -> np.ndarray:
    """Row i: panels + 1 edges from a[i] to b[i], as numpy spaces them alone."""
    if geometric:
        return np.geomspace(a, b, panels + 1, axis=-1)
    # np.linspace switches every row to another formula once any row's step
    # underflows to 0 (subnormal b - a), so such rows are spaced on their own
    flat = (b - a) / panels == 0
    if not flat.any() or flat.all():
        return np.linspace(a, b, panels + 1, axis=-1)
    edges = np.empty((a.size, panels + 1))
    for rows in (flat, ~flat):
        edges[rows] = np.linspace(a[rows], b[rows], panels + 1, axis=-1)
    return edges


def _panel_quad_inv_log(edges: np.ndarray) -> np.ndarray:
    """Composite Gauss-Legendre for integral of dt/log t, one row of edges each.

    Each row's nodes form one contiguous block, summed on its own, so a row
    gets the same bits as it would alone.
    """
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    t = mid[:, :, None] + half[:, :, None] * _GL_NODES
    terms = half[:, :, None] * (_GL_WEIGHTS / np.log(t))
    return terms.reshape(len(edges), -1).sum(axis=1)


def _adaptive_inv_log(a: np.ndarray, b: np.ndarray, geometric: bool) -> np.ndarray:
    """Integral of dt/log t on [a[i], b[i]], panel count doubled until stable.

    Every element starts at 8 panels and keeps the value of the first level
    at which it agrees with the level before (or the 12th level's value).
    """
    out = np.full(a.size, math.inf)  # the previous level's value until converged
    todo = np.arange(a.size)
    panels = 8
    for _ in range(12):
        if not todo.size:
            break
        per_chunk = max(1, _CHUNK_NODES // (panels * len(_GL_NODES)))
        left = []
        for start in range(0, todo.size, per_chunk):
            idx = todo[start : start + per_chunk]
            val = _panel_quad_inv_log(_panel_edges(a[idx], b[idx], panels, geometric))
            done = np.abs(val - out[idx]) <= 1e-13 * np.maximum(1.0, np.abs(val))
            left.append(idx[~done])
            out[idx] = val
        todo = np.concatenate(left)
        panels *= 2
    return out


def log_integral_many(xs) -> np.ndarray:
    """li(x) for each x in a 1-D sequence, in one vectorized quadrature pass.

    Element for element bit-identical to log_integral, which is this function
    on one element. The quadrature runs in chunks of at most _CHUNK_NODES
    nodes, so temporaries stay a few MB whatever the batch size.
    """
    x = np.asarray(xs, dtype=np.float64).reshape(-1)
    if not (x >= 0.0).all() or np.isinf(x).any():
        raise ValueError("log_integral needs finite x >= 0")
    if (x == 1.0).any():
        raise ValueError("log_integral diverges at x = 1")
    out = np.zeros(x.size)  # li(0) = 0
    out[x == 2.0] = LI_AT_2
    below_one = (0.0 < x) & (x < 1.0)
    out[below_one] = _adaptive_inv_log(
        np.zeros(below_one.sum()), x[below_one], geometric=False)
    below_two = (1.0 < x) & (x < 2.0)
    out[below_two] = LI_AT_2 - _adaptive_inv_log(
        x[below_two], np.full(below_two.sum(), 2.0), geometric=True)
    above_two = x > 2.0
    out[above_two] = LI_AT_2 + _adaptive_inv_log(
        np.full(above_two.sum(), 2.0), x[above_two], geometric=True)
    return out


@lru_cache(maxsize=1 << 15)
def log_integral(x: float) -> float:
    """li(x) = PV integral of dt/log t from 0 to x.

    Computed as li(2) + quadrature over [2, x] (geometric panels), which keeps
    the t = 1 singularity out of the integration range entirely. Defined for
    finite x >= 0, x != 1; li(0) = 0 and li(x) < 0 on (0, 1). This is
    log_integral_many on one element; pass many points there in one call.
    """
    return float(log_integral_many([float(x)])[0])


def _primes_upto(n: int) -> np.ndarray:
    # local monolithic sieve; the sieve module has its own (keeps this module
    # dependency-free)
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.flatnonzero(mask).astype(np.int64)


def twin_prime_constant(prime_cutoff: int) -> float:
    """Truncated product of p(p-2)/(p-1)^2 over odd primes p <= prime_cutoff.

    Strictly decreasing in the cutoff; approaches 0.66016... from above.
    """
    if prime_cutoff < 3:
        raise ValueError("cutoff must admit at least the prime 3")
    p = _primes_upto(prime_cutoff)[1:].astype(np.float64)  # drop p = 2
    return float(np.prod(p * (p - 2.0) / (p - 1.0) ** 2))
