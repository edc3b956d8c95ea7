"""Reference results computed apart from apgaps, for the benchmark's checks.

Nothing here imports the package. Primes in a class come from a sieve over
the progression itself (strike r + nq ≡ 0 mod p for each p <= sqrt(x)); the
twin-prime reference uses a segmented odd-only sieve; rescaled gaps are
recomputed from the paper's trend formulas with mpmath's li.
"""

from __future__ import annotations

import math

import numpy as np

# pi(x) from the published tables, at the bounds the workloads use
PI = {5 * 10**7: 3_001_134, 10**8: 5_761_455}


def small_primes(n: int) -> list[int]:
    """Primes <= n by a plain sieve of Eratosthenes."""
    mark = bytearray([1]) * (n + 1)
    mark[:2] = b"\0\0"
    for p in range(2, math.isqrt(n) + 1):
        if mark[p]:
            mark[p * p :: p] = bytes(len(range(p * p, n + 1, p)))
    return [i for i in range(n + 1) if mark[i]]


def class_primes(q: int, r: int, x: int) -> np.ndarray:
    """Primes p <= x with p ≡ r (mod q), gcd(q, r) = 1, 1 <= r < q."""
    n_terms = (x - r) // q + 1
    is_prime = np.ones(n_terms, dtype=bool)
    if r == 1:
        is_prime[0] = False  # the term 1
    for p in small_primes(math.isqrt(x)):
        if q % p == 0:
            continue  # p divides q, so it divides no term
        is_prime[(-r * pow(q, -1, p)) % p :: p] = False
        if p % q == r:
            is_prime[(p - r) // q] = True  # p itself is a term
    return r + q * np.flatnonzero(is_prime).astype(np.int64)


def record_events(primes: np.ndarray) -> list[tuple]:
    """First-occurrence gap events of an ascending prime list.

    Each event is (start, end, size, is_maximal, maximal_index, fo_index):
    the first gap of each size, in order of appearance, flagged maximal when
    it beats every earlier gap. Found with one global unique over all gaps.
    """
    gaps = np.diff(primes)
    sizes, first = np.unique(gaps, return_index=True)
    events = []
    best = n_max = 0
    for i in np.argsort(first).tolist():
        d, j = int(sizes[i]), int(first[i])
        is_max = d > best
        if is_max:
            best = d
            n_max += 1
        events.append((int(primes[j]), int(primes[j + 1]), d, is_max,
                       n_max if is_max else None, len(events) + 1))
    return events


def twin_primes(x: int, seg_odds: int = 1 << 23) -> tuple[int, np.ndarray]:
    """(pi(x), lower members p of the twin pairs p, p + 2 <= x)."""
    base = small_primes(math.isqrt(x))[1:]  # odd base primes
    count = 1 if x >= 2 else 0  # the prime 2
    lows = []
    last = None
    lo = 1
    while lo <= x:
        hi = min(lo + 2 * (seg_odds - 1), x if x % 2 else x - 1)
        odd = np.ones((hi - lo) // 2 + 1, dtype=bool)  # odd[i] is lo + 2i
        if lo == 1:
            odd[0] = False
        for p in base:
            if p * p > hi:
                break
            m = max(p * p, (lo + p - 1) // p * p)
            if m % 2 == 0:
                m += p
            odd[(m - lo) // 2 :: p] = False
        primes = lo + 2 * np.flatnonzero(odd).astype(np.int64)
        count += len(primes)
        if last is not None:
            primes = np.concatenate(([last], primes))
        if len(primes):
            lows.append(primes[:-1][np.diff(primes) == 2])
            last = int(primes[-1])
        lo = hi + 2
    return count, np.concatenate(lows)


def brun_sum(lows: np.ndarray) -> float:
    """Correctly rounded sum of 1/p + 1/(p + 2) over the twin pairs."""
    return math.fsum((1.0 / lows).tolist() + (1.0 / (lows + 2)).tolist())


def rescaled_gap(q: int, x: int, d: int) -> float:
    """u = (d - T_f(q, x)) / a(q, x) at 30 digits, for prime q >= 5.

    a = x phi(q) / li(x), T_f = a log(li(x) / a) + (c0 - c1 log log x) a with
    c0 = 2.18 L^0.58 and c1 = 1.18 L^0.364, L = log lcm(2, q).
    """
    import mpmath

    with mpmath.workdps(30):
        lg = mpmath.log(2 * q)
        c0 = 2.18 * lg ** mpmath.mpf(0.58)
        c1 = 1.18 * lg ** mpmath.mpf(0.364)
        li = mpmath.li(x)
        a = x * (q - 1) / li
        tf = a * mpmath.log(li / a) + (c0 - c1 * mpmath.log(mpmath.log(x))) * a
        return float((d - tf) / a)
