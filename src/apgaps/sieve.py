"""Segmented prime generation over [lo, hi], optionally restricted to a residue class.

Each segment is sieved over its odd numbers only: mask entry i stands for
(lo | 1) + 2i, the prime 2 is added back by hand, and the odd base primes
strike their odd multiples with step p in the mask (2p in the numbers).
``seg_len`` still counts the numbers a segment spans, so a segment's mask
holds about seg_len / 2 bytes. Residues are filtered after sieving: a single
vectorized modulo over each segment, and the scanner typically wants many
residues of the same modulus from one pass anyway.
"""

from __future__ import annotations

import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

MAX_SIEVE_BOUND = (1 << 63) - 1
DEFAULT_SEGMENT_LENGTH = 1 << 22


@dataclass(frozen=True)
class ResidueClass:
    """Arithmetic progression r + nq with gcd(q, r) = 1 and 1 <= r < q."""

    q: int
    r: int

    def __post_init__(self) -> None:
        if self.q < 2:
            raise ValueError("modulus q must be at least 2")
        if not 1 <= self.r < self.q:
            raise ValueError("residue must satisfy 1 <= r < q")
        if math.gcd(self.q, self.r) != 1:
            raise ValueError(f"gcd({self.q}, {self.r}) != 1: class holds at most one prime")

    @classmethod
    def unchecked(cls, q: int, r: int) -> "ResidueClass":
        """Bypass validation (progressions of gap sizes may have r = 0 or gcd > 1)."""
        obj = object.__new__(cls)
        object.__setattr__(obj, "q", q)
        object.__setattr__(obj, "r", r)
        return obj

    def __str__(self) -> str:  # compact form for messages and file names
        return f"{self.r} mod {self.q}"


@dataclass(frozen=True)
class PrimeSegment:
    """Ordered primes found in [lo, hi] (both inclusive)."""

    lo: int
    hi: int
    primes: np.ndarray


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit, sieved as the single interval [1, limit]."""
    if limit < 2:
        return np.empty(0, dtype=np.int64)
    return _sieve_odd(1, limit)


def _check_range(lo: int, hi: int) -> None:
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    if hi > MAX_SIEVE_BOUND:
        raise OverflowError("sieve bound exceeds 2^63 - 1")


def sieve_interval(lo: int, hi: int, base: Optional[np.ndarray] = None) -> np.ndarray:
    """Primes in [lo, hi] as an int64 array.

    base, when given, must hold every odd prime <= isqrt(hi) in ascending
    order (the output of base_primes); other entries are ignored.
    """
    _check_range(lo, hi)
    return _sieve_odd(lo, hi, base)


def _sieve_odd(lo: int, hi: int, base: Optional[np.ndarray] = None) -> np.ndarray:
    # Private, so the base-prime recursion adds no calls to the public
    # functions that tracing and profiling see.
    root = math.isqrt(hi)
    if base is None:
        base = _sieve_odd(1, root) if root >= 3 else np.empty(0, dtype=np.int64)
    o0 = lo | 1
    mask = np.ones((hi - o0) // 2 + 1, dtype=bool)
    if o0 == 1:
        mask[0] = False
    odd_lo = int(np.searchsorted(base, 3))
    odd_hi = int(np.searchsorted(base, root, side="right"))
    for p in base[odd_lo:odd_hi].tolist():
        # first odd multiple of p that is >= max(p^2, o0)
        start = max(p * p, -(-o0 // p) * p)
        if not start & 1:
            start += p
        mask[(start - o0) // 2 :: p] = False
    out = np.flatnonzero(mask).astype(np.int64, copy=False)
    out *= 2
    out += o0
    if lo <= 2 <= hi:
        out = np.concatenate((np.array([2], dtype=np.int64), out))
    return out


def _segment_bounds(lo: int, hi: int, seg_len: int) -> list[tuple[int, int]]:
    return [(a, min(a + seg_len - 1, hi)) for a in range(lo, hi + 1, seg_len)]


def iter_prime_segments(
    lo: int,
    hi: int,
    *,
    seg_len: int = DEFAULT_SEGMENT_LENGTH,
    threads: int = 1,
) -> Iterator[PrimeSegment]:
    """Stream PrimeSegments covering [lo, hi] in order.

    threads > 1 sieves segments concurrently but always yields them in
    ascending order, so every consumer sees the same deterministic stream.
    """
    _check_range(lo, hi)
    if seg_len < 2:
        raise ValueError("segment length too small")
    base = base_primes(math.isqrt(hi))
    bounds = _segment_bounds(lo, hi, seg_len)
    if threads <= 1 or len(bounds) == 1:
        for a, b in bounds:
            yield PrimeSegment(a, b, sieve_interval(a, b, base))
        return
    with ThreadPoolExecutor(max_workers=threads) as pool:
        pending: deque = deque()
        it = iter(bounds)
        for _ in range(min(len(bounds), threads + 2)):
            a, b = next(it)
            pending.append((a, b, pool.submit(sieve_interval, a, b, base)))
        while pending:
            a, b, fut = pending.popleft()
            arr = fut.result()
            nxt = next(it, None)
            if nxt is not None:
                pending.append((nxt[0], nxt[1], pool.submit(sieve_interval, nxt[0], nxt[1], base)))
            yield PrimeSegment(a, b, arr)


def iter_class_segments(
    cls: ResidueClass,
    lo: int,
    hi: int,
    *,
    seg_len: int = DEFAULT_SEGMENT_LENGTH,
    threads: int = 1,
) -> Iterator[PrimeSegment]:
    """Stream segments holding only primes p ≡ r (mod q), p in [lo, hi]."""
    for seg in iter_prime_segments(lo, hi, seg_len=seg_len, threads=threads):
        pr = seg.primes
        yield PrimeSegment(seg.lo, seg.hi, pr[pr % cls.q == cls.r])


def primes_in_class(
    cls: ResidueClass,
    lo: int,
    hi: int,
    *,
    seg_len: int = DEFAULT_SEGMENT_LENGTH,
    threads: int = 1,
) -> Iterator[int]:
    """Ordered stream of primes in the class, as Python ints."""
    for seg in iter_class_segments(cls, lo, hi, seg_len=seg_len, threads=threads):
        for p in seg.primes.tolist():
            yield p


def prime_count(cls: ResidueClass, x: int, *, threads: int = 1) -> int:
    """pi(x; q, r): number of primes <= x in the class."""
    if x < 1:
        raise ValueError("x must be positive")
    total = 0
    for seg in iter_class_segments(cls, 1, x, threads=threads):
        total += len(seg.primes)
    return total


def count_all_primes(x: int, *, threads: int = 1) -> int:
    """pi(x) over all primes."""
    if x < 1:
        return 0
    return sum(len(seg.primes) for seg in iter_prime_segments(1, x, threads=threads))


def residue_counts(q: int, x: int, *, threads: int = 1) -> np.ndarray:
    """Counts of primes <= x in every residue class mod q (index = residue)."""
    if q < 1 or x < 1:
        raise ValueError("need q >= 1 and x >= 1")
    counts = np.zeros(q, dtype=np.int64)
    for seg in iter_prime_segments(1, x, threads=threads):
        if len(seg.primes):
            counts += np.bincount(seg.primes % q, minlength=q)
    return counts
