"""Shared numeric primitives: prime factors, totient, lcm(2,q), admissible gap sizes,
li(x) on [2, inf), twin prime constant.

Everything else in the package leans on these; the only intra-package
imports are from ``sieve``, which imports nothing from the package. This
module owns the library's two rules for gap sizes: ``check_gap`` (an
integer d >= 1, or with integer=False any real d >= 1; NaN refused) for
every public function that takes a gap size d, and ``gap_admissible`` for
the sizes a class can have. li is evaluated only where every pipeline reads
it, at finite x >= 2. Each argument check raises ``sieve.InputError``.
"""

from __future__ import annotations

import functools
import math
import numbers

import numpy as np

from .sieve import MAX_MODULUS, InputError, base_primes, check_modulus

# li(2): the logarithmic integral carries its principal-value singularity at
# t = 1 inside this constant, so quadrature never has to straddle it.
LI_AT_2 = 1.0451637801174927848

# prod over odd primes p of p(p-2)/(p-1)^2
TWIN_PRIME_CONSTANT = 0.6601618158468696

# Precomputed so that callers multiply by it: dividing by TWIN_PRIME_CONSTANT
# instead rounds differently and changes the last bits of the results.
PI2_INV = 1.0 / TWIN_PRIME_CONSTANT


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors of n >= 1, ascending, by trial division."""
    out = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            out.append(p)
            while n % p == 0:
                n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out.append(n)
    return out


@functools.lru_cache
def totient(q: int) -> int:
    """Euler's phi: q times (1 - 1/p) over the primes p dividing q.

    Cached, so a run that asks again for the same q factors it once."""
    check_modulus(q, lo=1)
    result = q
    for p in _prime_factors(q):
        result -= result // p
    return result


def lcm2(q: int) -> int:
    """lcm(2, q): the common step of gap sizes in a residue class mod q."""
    check_modulus(q, lo=1)
    return q if q % 2 == 0 else 2 * q


def check_gap(d: float, *, integer: bool = True) -> None:
    """The gap-size rule of the library: d >= 1, NaN refused, and an integer.

    integer=False admits a real d, for predict_first_occurrence, which probe
    calls at a trend value T0.
    """
    if not d >= 1:
        raise InputError(f"gap size d must be at least 1, got {d}")
    if integer and not isinstance(d, numbers.Integral):
        raise InputError(f"gap size d must be an integer, got {d}")


def gap_admissible(d: int, q: int, r: int = 0) -> bool:
    """Whether consecutive primes of a class mod q can lie d apart: the one rule.

    Gaps that recur are multiples of lcm2(q). Given the class r, the class
    2 mod q (q odd) also admits the odd multiples of q, for its one gap from 2.
    """
    return d % lcm2(q) == 0 or (r == 2 and d % q == 0)


# 32-point Gauss-Legendre rule on [-1, 1]; composite panels below. The
# positive nodes and their weights are those of
# np.polynomial.legendre.leggauss(32), written with repr, which round-trips
# a float64 exactly; literals spare every start numpy.polynomial and its
# 32 x 32 eigen-solve. leggauss symmetrizes its output (x = (x - x[::-1]) / 2,
# w = (w + w[::-1]) / 2, then one common weight scale), so its negative half
# is the exact mirror of the positive half, as built here.
_GL_HALF = np.array([
    # node                 weight
    (0.048307665687738324, 0.09654008851472766),
    (0.1444719615827965, 0.09563872007927471),
    (0.23928736225213706, 0.09384439908080451),
    (0.33186860228212767, 0.09117387869576378),
    (0.42135127613063533, 0.08765209300440378),
    (0.5068999089322294, 0.08331192422694671),
    (0.5877157572407623, 0.07819389578707023),
    (0.6630442669302152, 0.07234579410884834),
    (0.7321821187402897, 0.06582222277636168),
    (0.7944837959679424, 0.058684093478535565),
    (0.84936761373257, 0.05099805926237609),
    (0.8963211557660521, 0.042835898022226836),
    (0.9349060759377397, 0.034273862913021765),
    (0.9647622555875064, 0.025392065309262024),
    (0.9856115115452684, 0.016274394730905743),
    (0.9972638618494816, 0.007018610009470506),
])
_GL_NODES = np.concatenate((-_GL_HALF[::-1, 0], _GL_HALF[:, 0]))
_GL_WEIGHTS = np.concatenate((_GL_HALF[::-1, 1], _GL_HALF[:, 1]))

# Cap on quadrature nodes evaluated per numpy pass: 2^15 float64 nodes are
# 256 KB, which stays in L2. A chunk holds whole integrals, at least one, so
# a single row deeper than the cap gets a pass of its own.
_CHUNK_NODES = 1 << 15


def _panel_quad_inv_log(edges: np.ndarray, buf: np.ndarray) -> np.ndarray:
    """Composite Gauss-Legendre for integral of dt/log t, one row of edges each.

    The terms are computed in place in the front of buf, which must hold
    rows * panels * 32 float64s. Each row's nodes form one contiguous block,
    summed on its own, so a row gets the same bits as it would alone; np.log
    runs on the contiguous block too, as a strided call may round otherwise.
    """
    mid = 0.5 * (edges[:, 1:] + edges[:, :-1])
    half = 0.5 * (edges[:, 1:] - edges[:, :-1])
    t = buf[: half.size * _GL_NODES.size]
    t3 = t.reshape(*half.shape, _GL_NODES.size)
    np.multiply(half[:, :, None], _GL_NODES, out=t3)
    t3 += mid[:, :, None]
    np.log(t, out=t)
    np.divide(_GL_WEIGHTS, t3, out=t3)
    t3 *= half[:, :, None]
    return t.reshape(len(edges), -1).sum(axis=1)


def _adaptive_inv_log(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Integral of dt/log t on [a[i], b[i]], panel count doubled until stable.

    Panels are geometric. Every element starts at 8 panels and keeps the
    value of the first level at which it agrees with the level before (or the
    12th level's value). Each level's edges come from one geomspace call over
    the unconverged rows; the nodes go through chunks of at most _CHUNK_NODES
    in one buffer, sized to the largest chunk so far.
    """
    out = np.full(a.size, math.inf)  # the previous level's value until converged
    todo = np.arange(a.size)
    buf = np.empty(0)
    panels = 8
    for _ in range(12):
        if not todo.size:
            break
        row_nodes = panels * _GL_NODES.size
        per_chunk = max(1, _CHUNK_NODES // row_nodes)
        need = min(todo.size, per_chunk) * row_nodes
        if buf.size < need:
            buf = np.empty(need)
        edges = np.geomspace(a[todo], b[todo], panels + 1, axis=-1)
        val = np.empty(todo.size)
        for start in range(0, todo.size, per_chunk):
            val[start : start + per_chunk] = _panel_quad_inv_log(
                edges[start : start + per_chunk], buf)
        done = np.abs(val - out[todo]) <= 1e-13 * np.maximum(1.0, np.abs(val))
        out[todo] = val
        todo = todo[~done]
        panels *= 2
    return out


def log_integral_many(xs) -> np.ndarray:
    """li(x) for each x in a 1-D sequence of finite x >= 2, in one vectorized pass.

    Element for element bit-identical to log_integral, which is this function
    on one element. li(2) is LI_AT_2; above 2 the quadrature runs in chunks
    of at most _CHUNK_NODES nodes through one reused buffer, so its nodes
    take 256 KB whatever the batch size (more only for a row that alone
    needs more). Any other point (below 2, NaN or infinite) raises InputError.
    """
    x = np.asarray(xs, dtype=np.float64).reshape(-1)
    if not ((x >= 2.0) & (x < math.inf)).all():  # NaN fails both
        raise InputError("log_integral needs finite x >= 2")
    out = np.full(x.size, LI_AT_2)
    above = x > 2.0
    out[above] = LI_AT_2 + _adaptive_inv_log(np.full(above.sum(), 2.0), x[above])
    return out


def log_integral(x: float) -> float:
    """li(x) = PV integral of dt/log t from 0 to x, for finite x >= 2.

    Computed as li(2) + quadrature over [2, x] (geometric panels), which
    keeps the t = 1 singularity out of the integration range entirely. Every
    pipeline reads li at x > 2 only (the trends' points, tau_estimate's
    x >= 1000), so no point below 2 is admitted. This is log_integral_many
    on one element; pass many points there in one call.
    """
    return float(log_integral_many([float(x)])[0])


def twin_prime_constant(prime_cutoff: int) -> float:
    """Truncated product of p(p-2)/(p-1)^2 over odd primes p <= prime_cutoff.

    Strictly decreasing in the cutoff; approaches 0.66016... from above.
    """
    if prime_cutoff < 3:
        raise InputError("cutoff must admit at least the prime 3")
    p = base_primes(prime_cutoff)[1:].astype(np.float64)  # drop p = 2
    return float(np.prod(p * (p - 2.0) / (p - 1.0) ** 2))
