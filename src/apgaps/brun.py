"""Generalized Brun sums, exact gap counts, singular products and their means.

B_d(x; q, r) sums 1/p + 1/p' over the pairs of consecutive class primes
p < p' <= x with p' - p = d, and tau_d(x) counts those pairs. One pass of the
class-pair stream, brun_growth, gives both: tau reads its pair count.
brun_estimate and tau_estimate are the heuristic sizes of B_d and tau_d.

The singular product S(d) = prod_{p | d, p > 2} (p-1)/(p-2) modulates the
density of prime pairs at distance d. Averaged over d running through an
arithmetic progression r + nq it converges to an exact rational multiple of
Pi2^{-1}, which this module computes both symbolically and empirically.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

import numpy as np

from . import sieve as sievemod
from .gapscan import _class_pairs
from .numutil import (PI2_INV, _prime_factors, check_gap, gap_admissible, lcm2, log_integral,
                      totient)
from .sieve import InputError, ResidueClass, check_bound, check_modulus

if TYPE_CHECKING:
    from fractions import Fraction


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


def singular_product(d: int) -> float:
    """S(d) = prod over odd primes p | d of (p-1)/(p-2)."""
    check_gap(d)
    out = 1.0
    for p in _prime_factors(d):
        if p > 2:
            out *= (p - 1) / (p - 2)
    return out


def mean_singular_product(q: int, r: int) -> SingularMean:
    """Exact mean of S(d) over d = r + nq, as multiplier * Pi2^{-1}.

    Coprimality of (q, r) is NOT required; the progression here runs over gap
    sizes, not primes. Odd primes dividing both q and r contribute p/(p-1),
    those dividing q but not r contribute p(p-2)/(p-1)^2, everything else 1.
    """
    from fractions import Fraction  # only here: scan, fit and brun never load it

    if not (_integers(q, r) and q >= 1 and 0 <= r < q):
        raise InputError("need integers q >= 1 and 0 <= r < q")
    mult = Fraction(1)
    for p in _prime_factors(q):
        if p == 2:
            continue
        if r % p == 0:
            mult *= Fraction(p, p - 1)
        else:
            mult *= Fraction(p * (p - 2), (p - 1) ** 2)
    return SingularMean(q=q, r=r, multiplier=mult,
                        value=float(mult) * PI2_INV)


def _integers(*values) -> bool:
    return all(isinstance(v, numbers.Integral) for v in values)


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


# The largest top r + n_max * q that empirical_singular_mean accepts.
MAX_EMPIRICAL_TOP = 10**16


def empirical_singular_mean(q: int, r: int, n_max: int) -> float:
    """Mean of S(r + nq) for n = 1..n_max by a factor sieve over the progression.

    Marks smallest-odd-prime factors with strided slices (no per-term
    factorization); whatever survives division by all primes <= sqrt(top) is
    1 or itself prime, and an odd prime contributes its own factor. The
    leftover 2 is a term 2 when top < 4, where 2 is no base prime.

    The sieve holds about 40 bytes per term and walks the 5.8 million base
    primes up to 10^8 at the cap, a top r + n_max q of MAX_EMPIRICAL_TOP =
    10^16; a higher top is refused before anything is allocated. Near the
    cap (q = 999999999989, n_max = 10^4) one run took 8.0 s and 295 MB peak
    RSS on a 2-vCPU VM.
    """
    if not (_integers(q, r, n_max) and q >= 1 and r >= 0 and n_max >= 1):
        raise InputError("need integers q >= 1, r >= 0, n_max >= 1")
    top = r + n_max * q
    if top > MAX_EMPIRICAL_TOP:
        raise InputError(f"progression top r + n_max * q = {top} exceeds {MAX_EMPIRICAL_TOP}")
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
    big = rem > 2
    if big.any():
        rp = rem[big].astype(np.float64)  # odd primes > sqrt(top)
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
    results do not depend on the thread count. The running sum is carried
    from batch to batch, with the same bits as one cumsum over the whole
    run, and each checkpoint is read as the stream passes it, so memory
    stays that of one batch. A d that numutil.gap_admissible refuses for the
    class gives all-zero sums without sieving.
    """
    check_gap(d)
    xs = sorted(set(x_values))
    if not xs:
        raise InputError("need at least one checkpoint")
    for x in xs:
        check_bound(x)
    marks: list[tuple[float, int]] = []  # (partial sum, pair count) per checkpoint
    total = 0.0
    count = 0
    pairs = _class_pairs(cls.q, [cls.r], xs[-1], threads=threads) \
        if gap_admissible(d, cls.q, cls.r) else ()
    for _, gaps, ends in pairs:
        en = ends.compress(gaps == d)
        if not en.size:
            continue
        terms = 1.0 / (en - d) + 1.0 / en  # en - d: the same int64 start primes
        terms[0] += total  # cumsum adds in order: as if over the whole run
        csum = np.cumsum(terms)
        while len(marks) < len(xs) and xs[len(marks)] < en[-1]:
            k = int(np.searchsorted(en, xs[len(marks)], side="right"))
            marks.append((float(csum[k - 1]) if k else total, count + k))
        total = float(csum[-1])
        count += en.size
    marks += [(total, count)] * (len(xs) - len(marks))
    return [BrunSum(d=d, cls=cls, x=x, partial_sum=s, pair_count=c)
            for x, (s, c) in zip(xs, marks)]


def brun_partial_sum(d: int, cls: ResidueClass, x: int, *, threads: int = 1) -> BrunSum:
    """Generalized Brun partial sum B_d(x; q, r)."""
    return brun_growth(d, cls, [x], threads=threads)[0]


def tau(cls: ResidueClass, d: int, x: int, *, threads: int = 1) -> int:
    """Exact count tau_d(x) of gaps of size d with end prime <= x, the pair count of B_d(x).

    A size that the class cannot have, by numutil.gap_admissible, gives 0
    with no sieving: gaps are multiples of lcm(2, q), except the one gap
    from 2 in the class 2 mod q (q odd), an odd multiple of q.
    """
    return brun_growth(d, cls, [x], threads=threads)[0].pair_count


def _c2_amplitude(q: int) -> float:
    # C2 = c / s with c = lcm(2, q) and s = Pi2^{-1} prod_{p | q, p > 2} p/(p-1)
    s = PI2_INV
    for p in _prime_factors(q):
        if p > 2:
            s *= p / (p - 1)
    return lcm2(q) / s


def brun_estimate(d: int, q: int, x: Optional[float] = None, *,
                  full_product: bool = False) -> float:
    """Heuristic size of B_d(x; q): (A/d) e^{-d / (phi(q) log x)} with A = 2 lcm(2,q)/phi(q).

    Without x the x -> infinity limit A/d is returned. full_product swaps the
    flat amplitude for the finer 2 C2 S(d) / (phi(q) d) variant. A d that is
    not a multiple of lcm(2, q) (numutil.gap_admissible with no class) gives 0.
    """
    check_gap(d)
    check_modulus(q)
    phi = totient(q)
    if x is not None and not x > 1.0:  # NaN too
        raise InputError("x must exceed 1")
    if not gap_admissible(d, q):
        return 0.0
    if full_product:
        amp = 2.0 * _c2_amplitude(q) * singular_product(d) / (phi * d)
    else:
        amp = 2.0 * lcm2(q) / (phi * d)
    return amp if x is None else amp * math.exp(-d / (phi * math.log(x)))


def tau_estimate(d: int, cls: ResidueClass, x: float, *, exact_pi: bool = False,
                 threads: int = 1) -> float:
    """Expected count of gap-d pairs with end prime <= x.

    C2 S(d) pi(x)^2 / (phi(q)^2 x) * exp(-d pi(x) / (phi(q) x)), with pi(x)
    taken as li(x) by default or the exact count with exact_pi. A d that is
    not a multiple of lcm(2, q) (numutil.gap_admissible with no class)
    returns 0: the estimate counts recurring gaps only.
    """
    check_gap(d)
    if not x >= 1000:  # NaN too
        raise InputError("estimate needs x >= 1000")
    q = cls.q
    if not gap_admissible(d, q):
        return 0.0
    phi = totient(q)
    pi_x = float(sievemod.count_all_primes(int(x), threads=threads)) if exact_pi \
        else log_integral(x)
    return (_c2_amplitude(q) * singular_product(d) * pi_x * pi_x / (phi * phi * x)
            * math.exp(-d * pi_x / (phi * x)))


def first_occurrence_log_exact(d: int, q: int) -> float:
    """Exact positive root t of t^2 - t log d - d/phi(q) = 0 (log of location)."""
    check_gap(d)
    check_modulus(q)
    ld = math.log(d)
    return 0.5 * (ld + math.sqrt(ld * ld + 4.0 * d / totient(q)))
