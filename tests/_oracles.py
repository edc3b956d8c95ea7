"""Independent reference implementations used only by tests.

Everything here deliberately avoids the package's own algorithms: primality
is trial division, gap events are re-derived with a dict-and-loop walk, the
KS statistic is a brute-force double loop, and Gumbel variates come from the
inverse cdf. Slow and obviously correct beats fast here.
"""

from __future__ import annotations

import math

import numpy as np


def small_primes(limit: int) -> list[int]:
    """Primes <= limit found by dividing each candidate by all smaller primes."""
    found: list[int] = []
    for n in range(2, limit + 1):
        is_p = True
        for p in found:
            if p * p > n:
                break
            if n % p == 0:
                is_p = False
                break
        if is_p:
            found.append(n)
    return found


def trial_division_primes_in_class(q: int, r: int, x: int) -> np.ndarray:
    """Primes p <= x with p % q == r, by vectorized trial division.

    The divisibility test against every base prime <= sqrt(x) is done with
    numpy remainders; no range sieving, no segmentation, no shared state
    with the package under test.
    """
    base = small_primes(int(math.isqrt(x)) + 1)
    first = r if r >= 2 else r + q
    cand = np.arange(first, x + 1, q, dtype=np.int64)
    if cand.size == 0:
        return cand
    keep = cand >= 2
    for p in base:
        keep &= (cand % p != 0) | (cand == p)
    return cand[keep]


def naive_events(q: int, r: int, x: int) -> list[dict]:
    """First-occurrence gap events from a plain loop over oracle primes."""
    primes = trial_division_primes_in_class(q, r, x)
    seen: set[int] = set()
    running_max = 0
    n_max = 0
    n_fo = 0
    events = []
    for i in range(1, len(primes)):
        p, pp = int(primes[i - 1]), int(primes[i])
        d = pp - p
        if d in seen:
            if d > running_max:
                running_max = d
            continue
        seen.add(d)
        n_fo += 1
        is_max = d > running_max
        if is_max:
            n_max += 1
            running_max = d
        events.append(
            {
                "start_prime": p,
                "end_prime": pp,
                "size": d,
                "is_maximal": is_max,
                "maximal_index": n_max if is_max else None,
                "fo_index": n_fo,
                "csg": d / (_totient(q) * math.log(pp) ** 2),
            }
        )
    return events


def _totient(q: int) -> int:
    return sum(1 for k in range(1, q + 1) if math.gcd(k, q) == 1)


def naive_tau(q: int, r: int, d: int, x: int) -> int:
    primes = trial_division_primes_in_class(q, r, x)
    return int(np.count_nonzero(np.diff(primes) == d))


def ks_bruteforce(samples, cdf) -> float:
    """O(n^2) KS: for each sample point, count how many samples are <= / < it."""
    xs = list(samples)
    n = len(xs)
    best = 0.0
    for x in xs:
        n_le = sum(1 for y in xs if y <= x)
        n_lt = sum(1 for y in xs if y < x)
        f = float(cdf(np.array([x]))[0])
        best = max(best, abs(n_le / n - f), abs(f - n_lt / n))
    return best


def gumbel_samples(rng: np.random.Generator, n: int, scale: float, mode: float) -> np.ndarray:
    u = rng.uniform(size=n)
    return mode - scale * np.log(-np.log(u))


def singular_product_direct(d: int) -> float:
    """S(d) by full factorization with repeated division."""
    out = 1.0
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            if p > 2:
                out *= (p - 1) / (p - 2)
            while m % p == 0:
                m //= p
        p += 1
    if m > 2:
        out *= (m - 1) / (m - 2)
    return out


_GL32 = np.polynomial.legendre.leggauss(32)


def scalar_li(x: float) -> float:
    """li(x) by the package's quadrature rule, one point at a time.

    This is deliberately the same rule as numutil.log_integral_many (li(2)
    plus 32-point Gauss-Legendre on 8, 16, ... geometric or linear panels,
    stopped at relative change 1e-13), written as the plain scalar loop it
    was before li was batched. The batch must give these exact bits.
    """
    nodes, weights = _GL32

    def quad(a: float, b: float, geometric: bool) -> float:
        panels, prev = 8, math.inf
        for _ in range(12):
            space = np.geomspace if geometric else np.linspace
            edges = space(a, b, panels + 1)
            mid = 0.5 * (edges[1:] + edges[:-1])
            half = 0.5 * (edges[1:] - edges[:-1])
            t = mid[:, None] + half[:, None] * nodes
            val = float(np.sum(half[:, None] * (weights / np.log(t))))
            if abs(val - prev) <= 1e-13 * max(1.0, abs(val)):
                return val
            prev = val
            panels *= 2
        return prev

    li2 = 1.0451637801174927848
    x = float(x)
    if x == 0.0:
        return 0.0
    if x == 2.0:
        return li2
    if x < 1.0:
        return quad(0.0, x, geometric=False)
    if x < 2.0:
        return li2 - quad(x, 2.0, geometric=True)
    return li2 + quad(2.0, x, geometric=True)
