"""Segmented prime generation over [lo, hi], and the one selector of a residue class's primes.

This bottom module, which every other one imports, owns three input rules
of the library: the modulus rule, an integer 2 <= q <= MAX_MODULUS
(``check_modulus``, applied by ``ResidueClass`` and by every function taking
a bare q), the bound rule, an integer x >= 1 (``check_bound``, for every
sieve bound from 1 up to x), and the residue rule, an integer 1 <= r < q
coprime to q (``ResidueClass``). Integers are Python's or numpy's.

Each segment is sieved on a mod-6 wheel: only the numbers 6k + 1 and 6k + 5
have an entry. The mask spans whole 6-blocks, from the one holding lo to
the one holding hi, so with b0 = 6 * (lo // 6) mask entry e stands for
b0 + 6 * (e // 2) + (1, 5)[e & 1], which is (3e + b0 + 1) | 1, and a number w
of the wheel has entry (w - b0) // 3. The entries of the end blocks that
lie outside [lo, hi] are cleared. The mask does not start all true: it is
pre-sieved by periodic patterns, as segmented sieves do (Oliveira e Silva,
Herzog & Pardi, Math. Comp. 83, 2014), one for each of the groups
(5, 7, 11, 13), (17, 19, 23), (29, 31, 37) and (41, 43, 47), with the
multiples of the group's primes struck. One loop applies them: the mask is
viewed as rows of one group period each, and the pattern's window at the
mask's start is stored into the rows and the tail for the first pattern and
ANDed into them for the other three. So the patterns strike the primes 5
to 47 themselves, and of the numbers below 53 only the entry for 1 can stay
true. The mask holds no prime below 53: the readout alone decides them,
taking 2 to 47 from one table, ``_SMALL``, and dropping 1. The base primes
p from 53 up then strike their multiples p * m with m = 1 (mod 6) and with
m = 5 (mod 6): each of the two is one slice of step 2p in the mask (6p in
the numbers). The patterns take the place of the 18 longest slices, which
at 1e8 hold about 222,000 of the roughly 800,000 strikes per segment. The
first mask indices, at the first such multiples >= max(p^2, lo), come from
one vectorized pass over each chunk of 2^14 base primes, so the Python loop
only slices, and the indices it walks take a few MiB at any bound.
Each slice stores one shared read-only 0-d False array: given the Python
scalar False, numpy would build that array again on every store. The loop
makes 2,428 stores per segment at 1e8 and 6,772 at 1e9, most of them of
only a few entries, so the fixed cost per store sets the price of the loop.

``iter_prime_segments`` streams plain int64 prime arrays, one per segment
of ``DEFAULT_SEGMENT_LENGTH`` numbers, read when the stream starts. The
length counts the numbers a segment spans, not mask bytes: the default 2^21
gives a mask of 699,052 entries (683 KiB), which stays in a 2 MiB L2 cache
together with its primes.
Each segment is struck (``_strike``: pattern loop and slice loop) and then
read out (``_read_out``: the mask's true entries as numbers, with the
primes below 53 from ``_SMALL`` where the segment starts below 48). The base
primes are sieved the same way (``base_primes``), so no mask is longer
than one segment. With threads > 1 the stream strikes on the consumer's
thread and reads out on one helper thread: the readout is a few long numpy
calls that release the GIL, while the strike loop's short slices would
trade the GIL back and forth if two threads ran them at once. The helper is a plain thread fed
through two queues, one of struck masks and one of results; an exception
raised in a readout is re-raised on the consumer's thread, and closing the
stream stops the helper and joins it. The consumers split the arrays by
residue. Where one class is wanted (``prime_count`` here, the single-class
pair stream in gapscan), one selector, ``_class_select``, decides which
primes belong to it, with no division. Where gapscan wants many residues
of the same modulus from one pass, it takes one floor division per prime
(p - p // q * q, which numpy does faster than %).
"""

from __future__ import annotations

import math
import numbers
import os
import queue
import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

MAX_SIEVE_BOUND = (1 << 63) - 1
DEFAULT_SEGMENT_LENGTH = 1 << 21
MAX_MODULUS = 10**12  # largest q: trial division takes about 0.1 s on a prime this big


def check_modulus(q: int) -> None:
    """The modulus rule of the library: an integer 2 <= q <= MAX_MODULUS."""
    if not (isinstance(q, numbers.Integral) and 2 <= q <= MAX_MODULUS):
        raise ValueError(f"modulus q must be an integer with 2 <= q <= {MAX_MODULUS}, got {q}")


def check_bound(x: int) -> None:
    """The bound rule of the library: an integer x >= 1, so [1, x] holds a number."""
    if not (isinstance(x, numbers.Integral) and x >= 1):
        raise ValueError(f"bound x must be an integer of at least 1, got {x}")


def _wheel_pattern(group: tuple[int, ...]) -> np.ndarray:
    """Two periods of wheel entries, false where the number has a factor in group.

    Entry j stands for the wheel number (3j + 1) | 1. One period is
    prod(group) 6-blocks of two entries each, so any window of one period
    is one slice. The wheel multiples of p are p * m with m = 1 and m = 5
    (mod 6), each a slice of step 2p from entry p * m // 3 (p itself
    included), so no integer array is built.
    """
    pattern = np.ones(4 * math.prod(group), dtype=bool)
    for p in group:
        pattern[p // 3 :: 2 * p] = False
        pattern[5 * p // 3 :: 2 * p] = False
    return pattern


# The patterns every mask starts from (see the module docstring); 522 KB in all.
_GROUPS = ((5, 7, 11, 13), (17, 19, 23), (29, 31, 37), (41, 43, 47))
_PATTERNS = tuple(_wheel_pattern(g) for g in _GROUPS)
# The primes below 53: the patterns strike 5..47 and the wheel has no entry
# for 2 or 3, so _read_out adds them from this table.
_SMALL = np.array((2, 3, *sum(_GROUPS, ())), dtype=np.int64)
# The value of every strike store (see the module docstring); read-only, so
# nothing can set it True and turn every strike into a no-op.
_FALSE = np.zeros((), dtype=bool)
_FALSE.flags.writeable = False
# Base primes per pass of _strike's slice loop: more than the 3,401 up to
# sqrt(1e9), so runs to 1e9 make one pass, while near 2^63 - 1 the first
# strikes and their lists stay a few MiB rather than about 20 GB.
_STRIKE_CHUNK = 1 << 14


@dataclass(frozen=True)
class ResidueClass:
    """Arithmetic progression r + nq: integers 2 <= q <= MAX_MODULUS, 1 <= r < q, gcd(q, r) = 1."""

    q: int
    r: int

    def __post_init__(self) -> None:
        check_modulus(self.q)
        if not (isinstance(self.r, numbers.Integral) and 1 <= self.r < self.q):
            raise ValueError(f"residue r must be an integer with 1 <= r < q, got {self.r}")
        if math.gcd(self.q, self.r) != 1:
            raise ValueError(f"gcd({self.q}, {self.r}) != 1: class holds at most one prime")

    def __str__(self) -> str:  # compact form for messages and file names
        return f"{self.r} mod {self.q}"


def _class_select(q: int, r: int) -> Callable[[np.ndarray], np.ndarray]:
    """A function that keeps the primes of r mod q of an ascending int64 prime array.

    It is the one rule for which primes lie in a single class, and it makes
    no division. With q = 2^s * m and m odd, p is in the class when m
    divides t = p + (-r mod m), which stays below 2^64, and its low s bits
    are those of r. On uint64, m divides t exactly when
    t * m^-1 (mod 2^64) <= (2^64 - 1) // m: multiplying by m^-1 maps the
    multiples of m onto 0..(2^64 - 1) // m and every other t above them
    (Granlund & Montgomery, PLDI 1994). For even q, r is odd, so the prime
    2, which can only come first, is dropped by value; every prime after it
    is odd, so the low bits need a test only when 4 divides q, and q = 2
    keeps the rest as it is.
    """
    s = (q & -q).bit_length() - 1
    m = q >> s
    low, r_low = np.uint64((1 << s) - 1), np.uint64(r & ((1 << s) - 1))
    offset, inverse = np.uint64(-r % m), np.uint64(pow(m, -1, 1 << 64))
    top = np.uint64(((1 << 64) - 1) // m)

    def select(primes: np.ndarray) -> np.ndarray:
        if s and primes.size and primes[0] == 2:
            primes = primes[1:]
        if q == 2:
            return primes
        u = primes.view(np.uint64)
        t = u + offset
        t *= inverse
        hit = t <= top
        if s > 1:
            hit &= (u & low) == r_low
        return primes.compress(hit)  # several times faster than indexing by a mask

    return select


def base_primes(limit: int) -> np.ndarray:
    """All primes <= limit, from the segments of [1, limit] joined.

    The segments are those iter_prime_segments would stream. Their own base
    primes come first, sieved the same way up the chain of roots ...,
    isqrt(limit), limit, with no call to a public function, so tracing sees
    one base_primes call. The peak is about 16 bytes per prime plus one
    segment.
    """
    tops = [limit]
    while tops[-1] > 1:
        tops.append(math.isqrt(tops[-1]))
    primes = np.empty(0, dtype=np.int64)
    for top in reversed(tops[:-1]):
        primes = np.concatenate([_read_out(a, b, _strike(a, b, primes))
                                 for a, b in _segments(1, top)])
    return primes


def _check_range(lo: int, hi: int) -> None:
    if lo < 1 or hi < lo:
        raise ValueError("need 1 <= lo <= hi")
    if hi > MAX_SIEVE_BOUND:
        raise OverflowError("sieve bound exceeds 2^63 - 1")


def sieve_interval(lo: int, hi: int, base: Optional[np.ndarray] = None,
                   mask: Optional[np.ndarray] = None) -> np.ndarray:
    """Primes in [lo, hi] as an int64 array.

    The interval is struck as one mask, which holds the primes from 53 up;
    the readout adds those below 53 from a table. base must hold every
    prime from 53 to isqrt(hi) in ascending order; other entries are
    ignored. By default base_primes sieves them. mask, when given, is the
    struck mask that _strike built for the same [lo, hi], and only the
    primes are read out.
    """
    _check_range(lo, hi)
    if mask is None:
        mask = _strike(lo, hi, base_primes(math.isqrt(hi)) if base is None else base)
    return _read_out(lo, hi, mask)


def _strike(lo: int, hi: int, base: np.ndarray) -> np.ndarray:
    """The wheel mask of [lo, hi], true at its primes from 53 up.

    It holds 2 * (hi // 6 - lo // 6 + 1) entries, two per 6-block; base is
    as in sieve_interval. The patterns strike every wheel number below 53
    but 1, and the slices every composite from 53 up; the end blocks'
    entries outside [lo, hi] are cleared, so none reads out past hi.
    """
    mask = _presieved(lo // 6, 2 * (hi // 6 - lo // 6 + 1))
    ps = base[np.searchsorted(base, _SMALL[-1], side="right")
              : np.searchsorted(base, math.isqrt(hi), side="right")]
    for c in range(0, ps.size, _STRIKE_CHUNK):
        chunk = ps[c : c + _STRIKE_CHUNK]
        for i, step in zip(_first_strikes(lo, chunk).tolist(), (2 * chunk).tolist() * 2):
            mask[i::step] = _FALSE
    # the end blocks' entries outside [lo, hi]
    if lo % 6 > 1:
        mask[0] = False
    if hi % 6 < 5:
        mask[-1] = False
        if hi % 6 == 0:
            mask[-2] = False
    return mask


def _read_out(lo: int, hi: int, mask: np.ndarray) -> np.ndarray:
    """The primes of [lo, hi] from its struck wheel mask.

    One flatnonzero pass, turned into numbers in place. This is the one
    place that decides the primes below 53: when lo <= 47, the numbers read
    out up to 47 (only 1 can be among them) are dropped and the primes of
    _SMALL in [lo, hi] go in front.
    """
    out = np.flatnonzero(mask).astype(np.int64, copy=False)
    out *= 3
    out += lo - lo % 6 + 1
    out |= 1
    if lo <= _SMALL[-1]:
        # of the numbers <= 47 only 1 can be left, and the table replaces them;
        # a slice, so the segment's primes are not copied twice
        keep = np.searchsorted(out, _SMALL[-1], side="right")
        out = np.concatenate((_SMALL[(lo <= _SMALL) & (_SMALL <= hi)], out[keep:]))
    return out


def _presieved(b: int, n: int) -> np.ndarray:
    """The wheel mask of n entries from 6-block b, with every pattern's strikes."""
    mask = np.empty(n, dtype=bool)
    for pattern in _PATTERNS:
        period = pattern.size // 2
        j0 = 2 * (b % (period // 2))
        window = pattern[j0 : j0 + period]
        k = n - n % period
        rows = mask[:k].reshape(-1, period)  # whole periods, one row each
        if pattern is _PATTERNS[0]:
            rows[:] = window
            mask[k:] = window[: n - k]
        else:
            rows &= window
            mask[k:] &= window[: n - k]
    return mask


def _first_strikes(lo: int, ps: np.ndarray) -> np.ndarray:
    """Wheel indices of each prime's first multiples p * m >= max(p^2, lo).

    The first len(ps) indices are those with m = 1 (mod 6), the next
    len(ps) those with m = 5 (mod 6), counted from the block 6 * (lo // 6).
    Each p is coprime to 6 with p^2 <= hi, the end of the mask. The only
    number formed is a = max(p^2, lo) <= hi; the rest are offsets from the
    mask's first block, below a - 6 * (lo // 6) + 6p, so nothing overflows
    int64 up to MAX_SIEVE_BOUND.
    """
    a = np.maximum(ps * ps, lo)
    t = (-a) % ps  # a + t is the first multiple of p >= a
    m = (a % 6 + t % 6) * ps % 6  # its cofactor mod 6: p * p = 1 (mod 6)
    d = a - (lo - lo % 6) + t  # the offset of a + t from the first block
    return np.concatenate([(d + (c - m) % 6 * ps) // 3 for c in (1, 5)])


def _usable_cpus() -> int:
    """CPUs this process may run on (its affinity mask where the OS has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def iter_prime_segments(lo: int, hi: int, *, threads: int = 1) -> Iterator[np.ndarray]:
    """Stream the primes in [lo, hi] as int64 arrays, one per segment, in order.

    Each segment spans DEFAULT_SEGMENT_LENGTH numbers, read when the stream
    starts, and its bounds are drawn from a range as it is reached, so none
    are held ahead. Its primes come from one sieve_interval call made through
    the module attribute. With threads > 1, capped at the CPUs the process can
    use, the calling thread strikes every segment and one helper thread
    reads the primes out of its mask: segment k is read out while segment
    k - 1 is yielded, so at most two segments are held at once and any
    threads above 2 run like 2. The helper takes struck masks from one
    queue and puts results on another; an exception raised in a readout is
    re-raised here, on the consumer's thread, and closing the stream (or
    an exception) stops the helper and joins it. The stream is the same for
    every threads value.
    """
    _check_range(lo, hi)
    threads = min(threads, _usable_cpus())
    base = base_primes(math.isqrt(hi))
    bounds = _segments(lo, hi)
    if threads <= 1 or hi - lo < DEFAULT_SEGMENT_LENGTH:
        for a, b in bounds:
            yield sieve_interval(a, b, base)
        return
    jobs, results = queue.SimpleQueue(), queue.SimpleQueue()
    # a daemon, so a stream left unclosed at exit cannot keep the interpreter up
    helper = threading.Thread(target=_read_out_jobs, args=(jobs, results), daemon=True)
    helper.start()
    try:
        for k, (a, b) in enumerate(bounds):
            jobs.put((a, b, base, _strike(a, b, base)))
            if k:
                yield _take(results)
        yield _take(results)
    finally:
        jobs.put(None)
        helper.join()


def _segments(lo: int, hi: int) -> Iterator[tuple[int, int]]:
    """(a, b) of each segment of [lo, hi], drawn as reached; the length is read now."""
    step = DEFAULT_SEGMENT_LENGTH
    return ((a, min(a + step - 1, hi)) for a in range(lo, hi + 1, step))


def _read_out_jobs(jobs: queue.SimpleQueue, results: queue.SimpleQueue) -> None:
    """The helper thread: one sieve_interval per job, until the job None.

    Each result, or the exception that the readout raised, goes on results.
    """
    while (job := jobs.get()) is not None:
        try:
            results.put(sieve_interval(*job))
        except BaseException as exc:
            results.put(exc)


def _take(results: queue.SimpleQueue) -> np.ndarray:
    """The next readout's primes; its exception, if it raised one, is raised here."""
    got = results.get()
    if isinstance(got, BaseException):
        raise got
    return got


def prime_count(cls: ResidueClass, x: int, *, threads: int = 1) -> int:
    """pi(x; q, r): number of primes <= x in the class."""
    check_bound(x)
    select = _class_select(cls.q, cls.r)
    return sum(select(p).size for p in iter_prime_segments(1, x, threads=threads))


def count_all_primes(x: int, *, threads: int = 1) -> int:
    """pi(x) over all primes."""
    check_bound(x)
    return sum(p.size for p in iter_prime_segments(1, x, threads=threads))
