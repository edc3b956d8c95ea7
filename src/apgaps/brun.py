"""Generalized Brun sums, singular products, and their exact progression means.

The singular product S(d) = prod_{p | d, p > 2} (p-1)/(p-2) modulates the
density of prime pairs at distance d. Averaged over d running through an
arithmetic progression r + nq it converges to an exact rational multiple of
Pi2^{-1}, which this module computes both symbolically and empirically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from . import sieve as sievemod
from . import trend
from .numutil import CONSTANTS, lcm2, log_integral, totient
from .sieve import ResidueClass


@dataclass(frozen=True)
class SingularMean:
    q: int
    r: int
    multiplier: Fraction  # exact rational factor in front of Pi2^{-1}
    value: float


@dataclass(frozen=True)
class BrunSum:
    d: int
    cls: ResidueClass
    x: int
    partial_sum: float
    pair_count: int


def _odd_prime_factors(n: int) -> list[int]:
    out = []
    m = n
    if m % 2 == 0:
        while m % 2 == 0:
            m //= 2
    p = 3
    while p * p <= m:
        if m % p == 0:
            out.append(p)
            while m % p == 0:
                m //= p
        p += 2
    if m > 1:
        out.append(m)
    return out


def singular_product(d: int) -> float:
    """S(d) = prod over odd primes p | d of (p-1)/(p-2)."""
    if d < 1:
        raise ValueError("d must be positive")
    out = 1.0
    for p in _odd_prime_factors(d):
        out *= (p - 1) / (p - 2)
    return out


def mean_singular_product(q: int, r: int) -> SingularMean:
    """Exact mean of S(d) over d = r + nq, as multiplier * Pi2^{-1}.

    Coprimality of (q, r) is NOT required; the progression here runs over gap
    sizes, not primes. Odd primes dividing both q and r contribute p/(p-1),
    those dividing q but not r contribute p(p-2)/(p-1)^2, everything else 1.
    """
    if q < 1 or not 0 <= r < q:
        raise ValueError("need q >= 1 and 0 <= r < q")
    mult = Fraction(1)
    for p in _odd_prime_factors(q):
        if r % p == 0:
            mult *= Fraction(p, p - 1)
        else:
            mult *= Fraction(p * (p - 2), (p - 1) ** 2)
    return SingularMean(q=q, r=r, multiplier=mult,
                        value=float(mult) * CONSTANTS.pi2_inv)


def _progression_hits(q: int, r: int, m: int) -> Optional[tuple[int, int]]:
    """Solutions n >= 1 of r + n q ≡ 0 (mod m), as (first n, step), or None."""
    g = math.gcd(q, m)
    if r % g:
        return None
    mm = m // g
    if mm == 1:
        return 1, 1  # every term divisible
    inv = pow((q // g) % mm, -1, mm)
    n0 = (-(r // g) * inv) % mm
    if n0 == 0:
        n0 = mm
    return n0, mm


def empirical_singular_mean(q: int, r: int, n_max: int) -> float:
    """Mean of S(r + nq) for n = 1..n_max by a factor sieve over the progression.

    Marks smallest-odd-prime factors with strided slices (no per-term
    factorization); whatever survives division by all primes <= sqrt(top) is
    itself prime and contributes its own factor.
    """
    if q < 1 or r < 0 or n_max < 1:
        raise ValueError("need q >= 1, r >= 0, n_max >= 1")
    top = r + n_max * q
    if top >= 1 << 63:
        raise OverflowError("progression exceeds 64-bit range")
    rem = r + q * np.arange(1, n_max + 1, dtype=np.int64)
    s = np.ones(n_max, dtype=np.float64)
    for p in sievemod.base_primes(math.isqrt(top)).tolist():
        pk = p
        k = 1
        while pk <= top:
            hit = _progression_hits(q, r, pk)
            if hit is None:
                break
            n0, step = hit
            if n0 > n_max:
                break
            sl = slice(n0 - 1, None, step)
            if k == 1 and p > 2:
                s[sl] *= (p - 1) / (p - 2)
            rem[sl] //= p
            pk *= p
            k += 1
    big = rem > 1
    if big.any():
        rp = rem[big].astype(np.float64)  # leftover cofactors are odd primes > sqrt(top)
        s[big] *= (rp - 1.0) / (rp - 2.0)
    return float(s.mean())


def brun_growth(
    d: int,
    cls: ResidueClass,
    x_values: Sequence[int],
    *,
    threads: int = 1,
) -> list[BrunSum]:
    """Partial sums of 1/p + 1/p' over consecutive class-prime pairs with gap d.

    One checkpointed pass: a pair enters every checkpoint x with p' <= x. A
    prime shared by two gap-d pairs in a row is counted in both (sum over
    pairs, not over the underlying prime set). Accumulation is ordered, so
    results do not depend on the thread count.
    """
    if d < 1:
        raise ValueError("d must be positive")
    xs = sorted(set(int(x) for x in x_values))
    if not xs or xs[0] < 1:
        raise ValueError("checkpoints must be positive")
    hi = xs[-1]
    starts_parts = []
    ends_parts = []
    last: Optional[int] = None
    for seg in sievemod.iter_class_segments(cls, 1, hi, threads=threads):
        sub = seg.primes
        if not len(sub):
            continue
        if last is None:
            if len(sub) < 2:
                last = int(sub[-1])
                continue
            gaps = np.diff(sub)
            st, en = sub[:-1], sub[1:]
        else:
            gaps = np.diff(sub, prepend=last)
            st = np.empty_like(sub)
            st[0] = last
            st[1:] = sub[:-1]
            en = sub
        last = int(sub[-1])
        sel = gaps == d
        if sel.any():
            starts_parts.append(st[sel])
            ends_parts.append(en[sel])
    if starts_parts:
        st_all = np.concatenate(starts_parts)
        en_all = np.concatenate(ends_parts)
        csum = np.cumsum(1.0 / st_all + 1.0 / en_all)
    else:
        en_all = np.empty(0, dtype=np.int64)
        csum = np.empty(0, dtype=np.float64)
    out = []
    for x in xs:
        k = int(np.searchsorted(en_all, x, side="right"))
        out.append(BrunSum(d=d, cls=cls, x=x,
                           partial_sum=float(csum[k - 1]) if k else 0.0,
                           pair_count=k))
    return out


def brun_partial_sum(d: int, cls: ResidueClass, x: int, *, threads: int = 1) -> BrunSum:
    """Generalized Brun partial sum B_d(x; q, r)."""
    return brun_growth(d, cls, [x], threads=threads)[0]


def _c2_amplitude(q: int) -> float:
    # C2 = c / s with c = lcm(2, q) and s = Pi2^{-1} prod_{p | q, p > 2} p/(p-1)
    s = CONSTANTS.pi2_inv
    for p in _odd_prime_factors(q):
        s *= p / (p - 1)
    return lcm2(q) / s


def brun_estimate(d: int, q: int, x: Optional[float] = None, *,
                  full_product: bool = False) -> float:
    """Heuristic size of B_d(x; q): (A/d) e^{-d / (phi(q) log x)} with A = 2 lcm(2,q)/phi(q).

    Without x the x -> infinity limit A/d is returned. full_product swaps the
    flat amplitude for the finer 2 C2 S(d) / (phi(q) d) variant.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if q < 2:
        raise ValueError("q must be at least 2")
    phi = totient(q)
    if full_product:
        amp = 2.0 * _c2_amplitude(q) * singular_product(d) / (phi * d)
    else:
        amp = 2.0 * lcm2(q) / (phi * d)
    if x is None:
        return amp
    if x <= 1.0:
        raise ValueError("x must exceed 1")
    return amp * math.exp(-d / (phi * math.log(x)))


def tau_estimate(d: int, cls: ResidueClass, x: float, *, exact_pi: bool = False,
                 threads: int = 1) -> float:
    """Expected count of gap-d pairs with end prime <= x.

    C2 S(d) pi(x)^2 / (phi(q)^2 x) * exp(-d pi(x) / (phi(q) x)), with pi(x)
    taken as li(x) by default or the exact count with exact_pi. Inadmissible
    d (odd, or not a multiple of q) returns 0.
    """
    if d < 1:
        raise ValueError("d must be positive")
    if x < 1000:
        raise ValueError("estimate needs x >= 1000")
    q = cls.q
    if d % 2 or d % q:
        return 0.0
    phi = totient(q)
    pi_x = float(sievemod.count_all_primes(int(x), threads=threads)) if exact_pi \
        else log_integral(x)
    return (_c2_amplitude(q) * singular_product(d) * pi_x * pi_x / (phi * phi * x)
            * math.exp(-d * pi_x / (phi * x)))


def first_occurrence_heuristic(d: int, q: int) -> float:
    """Location heuristic e^t with t = (1/2) log d + sqrt(d / phi(q)).

    This is the trend module's predictor, restricted to d >= 2; it arises as
    the approximate positive root of t^2 - t log d - d/phi(q) = 0 (set the
    estimate equal to the 2/xi pair density and solve for log xi).
    """
    if d < 2:
        raise ValueError("d must be at least 2")
    return trend.predict_first_occurrence(d, q)


def first_occurrence_log_exact(d: int, q: int) -> float:
    """Exact positive root t of t^2 - t log d - d/phi(q) = 0 (log of location)."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if q < 2:
        raise ValueError("q must be at least 2")
    ld = math.log(d)
    return 0.5 * (ld + math.sqrt(ld * ld + 4.0 * d / totient(q)))
