"""Record gap events and gap-size histograms of the primes in residue classes.

A gap event is the pair of consecutive class primes (p, p') bounding a gap
d = p' - p that is maximal (strictly larger than every earlier gap) or a
first occurrence (no earlier gap of exactly that size). Every maximal gap is
also a first occurrence, so the event list holds first occurrences with a
maximal flag.

All requested classes come from one pass of the segment sieve, turned into
one stream of consecutive class-prime pairs: per batch, the number of pairs
of each class, their gaps and their end primes. New gap sizes are found by
one ``take`` per batch from a flat, row-major boolean table of the sizes not
yet seen, a row per class and a column per gap d / q. Every gap in a class
mod q is a multiple of q, so the key is exact, the odd gap from 2 included.
The table's width, a power of two, doubles whenever a wider gap appears, so
it stays small: for q = 211 up to 1e9 the widest gap, 66,254, is column 314
of 512. Only the few pairs still unseen in the table reach the Python event
loop.

A single class, as in ``scan --r r`` and every Brun sum, takes its own
path through the pair stream: no residue array, no sort and no per-class
arrays, only the class's last prime carried as a scalar. Its primes come
from the sieve's one class selector, ``sieve._class_select``, which
``sieve.prime_count`` counts through too.

``gap_size_counts`` reads the single-class stream into a histogram of every
gap size. The count of one size d, tau_d(x), is ``brun.tau``: it is the pair
count of the Brun sum B_d(x) and comes from the same pass.

``check_classes`` is the one class cap, MAX_CLASSES, and the one code that
counts classes. It reads the residues one at a time and refuses the first
distinct one past the cap, so a refused run holds at most MAX_CLASSES + 1
residues however many it names. ``scan_many``, ``interval_record_table`` and
the CLI take their sorted class lists from it, before any ResidueClass is
built or any number sieved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import sieve
from .numutil import totient
from .sieve import InputError, ResidueClass

# The most residue classes of one run: a scan holds about 460 bytes per class
# and writes one file per class.
MAX_CLASSES = 10**5


def check_classes(residues: Iterable[int]) -> list[int]:
    """The class cap of the library: at most MAX_CLASSES distinct classes in one run.

    Returns the distinct residues in ascending order. They are read one at a
    time and the first past the cap is refused at once, so a refused run
    costs at most MAX_CLASSES + 1 distinct residues, however long the input.
    """
    seen: set[int] = set()
    for r in residues:
        seen.add(r)
        if len(seen) > MAX_CLASSES:
            raise InputError(f"too many residue classes, the cap is {MAX_CLASSES}")
    return sorted(seen)


class GapEvent(NamedTuple):
    """One first-occurrence gap; a tuple, so a scan builds many cheaply."""

    start_prime: int
    end_prime: int
    size: int
    is_maximal: bool
    maximal_index: Optional[int]
    fo_index: Optional[int]
    csg: float  # size / (phi(q) * log^2 end_prime), the Cramer-Shanks-Granville ratio


@dataclass
class ScanResult:
    cls: ResidueClass
    x_max: int
    events: list[GapEvent]
    n_maximal: int
    n_first_occurrence: int


# Sieved primes per batch of the pair stream. A batch's arrays (256 KB
# each) stay in cache and are freed long before a segment's primes (about
# 1 MB) would be.
_BATCH = 1 << 15


def _class_pairs(q: int, rs: Sequence[int], hi: int, *,
                 threads: int) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Consecutive prime pairs of the classes rs (ascending) mod q, up to hi.

    Yields (counts, gaps, ends) for each batch of at most _BATCH primes of
    segments sieve.DEFAULT_SEGMENT_LENGTH numbers long, read when the stream
    starts: the pairs come grouped by row, counts[i] of them for the class
    rs[i], each row in ascending order, and pair j joins the consecutive class
    primes ends[j] - gaps[j] < ends[j]. A row's first pair in a batch starts
    at its last prime of the batches before, and a class's first prime
    starts no pair. Batches without a pair are skipped. No rows or starts
    are built; a consumer that needs the start primes takes ends - gaps on
    the pairs it keeps.
    """
    batches = (seg[i : i + _BATCH]
               for seg in sieve.iter_prime_segments(1, hi, threads=threads)
               for i in range(0, seg.size, _BATCH))
    if len(rs) == 1:
        return _one_class_pairs(q, rs[0], batches)
    return _many_class_pairs(q, rs, batches)


def _one_class_pairs(q: int, r: int, batches: Iterable[np.ndarray]
                     ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """_class_pairs of the one class r mod q, with its last prime carried as a scalar."""
    select = sieve._class_select(q, r)
    last = 0  # the class's latest prime, 0 before its first
    for primes in batches:
        ends = select(primes)
        if not last and ends.size:  # the class's first prime starts no pair
            last, ends = int(ends[0]), ends[1:]
        if not ends.size:
            continue
        gaps = np.empty_like(ends)
        gaps[0] = ends[0] - last
        np.subtract(ends[1:], ends[:-1], out=gaps[1:])
        last = int(ends[-1])
        yield np.array([ends.size]), gaps, ends


def _many_class_pairs(q: int, rs: Sequence[int], batches: Iterable[np.ndarray]
                      ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """_class_pairs of two or more classes: one stable sort by residue per batch."""
    k = len(rs)
    # residues < q fit a narrow type, which numpy's stable sort radix-sorts
    key_type = np.min_scalar_type(q - 1)
    rs_arr = np.array(rs, dtype=key_type)
    last = np.zeros(k, dtype=np.int64)  # each class's latest prime, 0 before its first
    for primes in batches:
        # p & (q - 1) and p - p // q * q are p % q for p >= 0 at a fraction of
        # numpy's cost
        residues = (primes & (q - 1) if q & (q - 1) == 0
                    else primes - primes // q * q).astype(key_type)
        order = np.argsort(residues, kind="stable")  # keeps each class ascending
        sorted_res = residues[order]
        los = np.searchsorted(sorted_res, rs_arr, side="left")
        counts = np.searchsorted(sorted_res, rs_arr, side="right") - los
        n = int(counts.sum())
        if n < primes.size:  # drop the primes of classes not asked for
            order = order[np.arange(n) + np.repeat(los - (np.cumsum(counts) - counts),
                                                   counts)]
        ends = primes[order]
        if not n:
            continue
        has = np.flatnonzero(counts)
        heads = (np.cumsum(counts) - counts)[has]  # each nonempty row's first position
        prev = last[has]
        last[has] = ends[heads + counts[has] - 1]
        gaps = np.empty_like(ends)
        np.subtract(ends[1:], ends[:-1], out=gaps[1:])
        gaps[heads] = ends[heads] - prev
        firsts = prev == 0
        if firsts.any():
            counts[has[firsts]] -= 1
            keep = np.ones(n, dtype=bool)
            keep[heads[firsts]] = False
            gaps, ends = gaps.compress(keep), ends.compress(keep)
            if not ends.size:
                continue
        yield counts, gaps, ends


def scan_many(
    q: int,
    r_values: Iterable[int],
    x_max: int,
    *,
    threads: int = 1,
) -> dict[int, ScanResult]:
    """Scan every requested residue class mod q in a single sieve pass.

    More than MAX_CLASSES classes are refused before any ResidueClass is
    built or any number sieved.
    """
    rs = check_classes(r_values)
    classes = {r: ResidueClass(q, r) for r in rs}  # validates q, r pairs
    if not rs:
        raise InputError("no residue classes to scan")
    sieve.check_bound(x_max)
    phi = totient(q)
    k = len(rs)
    events: list[list[GapEvent]] = [[] for _ in rs]
    running_max = [0] * k
    n_max = [0] * k
    # unseen[row << shift | g]: class rs[row] has had no gap g * q yet
    shift = 0
    unseen = np.ones(k, dtype=bool)
    for counts, gaps, ends in _class_pairs(q, rs, x_max, threads=threads):
        key = gaps // q
        top = int(key.max()).bit_length()  # 2^top is the power of two above every g
        if top > shift:
            unseen = np.pad(unseen.reshape(k, -1), ((0, 0), (0, (1 << top) - (1 << shift))),
                            constant_values=True).ravel()
            shift = top
        if k > 1:
            key |= np.repeat(np.arange(k) << shift, counts)
        cand = np.flatnonzero(unseen.take(key))
        if not cand.size:
            continue
        _, first = np.unique(key[cand], return_index=True)
        fresh = np.sort(cand[first])  # time order within each class
        fresh_key = key[fresh]
        unseen[fresh_key] = False
        fresh_rows = (fresh_key >> shift).tolist()
        for row, e, v in zip(fresh_rows, ends[fresh].tolist(), gaps[fresh].tolist()):
            evs = events[row]
            csg = v / (phi * math.log(e) ** 2)
            # positional, as keywords cost more per event: start, end, size,
            # is_maximal, maximal_index, fo_index, csg
            if v > running_max[row]:
                running_max[row] = v
                n_max[row] += 1
                evs.append(GapEvent(e - v, e, v, True, n_max[row], len(evs) + 1, csg))
            else:
                evs.append(GapEvent(e - v, e, v, False, None, len(evs) + 1, csg))
    return {
        r: ScanResult(cls=classes[r], x_max=x_max, events=events[i],
                      n_maximal=n_max[i], n_first_occurrence=len(events[i]))
        for i, r in enumerate(rs)
    }


def scan(cls: ResidueClass, x_max: int, *, threads: int = 1) -> ScanResult:
    """Scan one residue class for gap events among primes <= x_max."""
    return scan_many(cls.q, [cls.r], x_max, threads=threads)[cls.r]


def gap_size_counts(cls: ResidueClass, x: int, *, threads: int = 1) -> dict[int, int]:
    """Exact histogram of gap sizes between consecutive class primes <= x.

    The sizes come in ascending order.
    """
    sieve.check_bound(x)
    q = cls.q
    total = np.zeros(0, dtype=np.int64)  # total[g]: pairs with gap g * q
    for _, gaps, _ in _class_pairs(q, [cls.r], x, threads=threads):
        per_g = np.bincount(gaps // q, minlength=total.size)
        per_g[: total.size] += total
        total = per_g
    return {g * q: c for g, c in enumerate(total.tolist()) if c}


def interval_record_table(
    q: int,
    j_max: int,
    *,
    threads: int = 1,
) -> list[tuple[int, float, float]]:
    """Mean record counts per interval (e^j, e^{j+1}], averaged over coprime r.

    Returns rows (j, mean first-occurrence count, mean maximal count) for
    j = 1..j_max. Records are defined globally (from the start of each class),
    only bucketed by where their end prime lands. More than MAX_CLASSES
    classes are refused as soon as the coprime residues pass the cap.
    """
    if j_max < 1:
        raise InputError("j_max must be >= 1")
    sieve.check_modulus(q)
    rs = check_classes(r for r in range(1, q) if math.gcd(r, q) == 1)
    x_needed = math.floor(math.exp(j_max + 1))
    events = [ev for res in scan_many(q, rs, x_needed, threads=threads).values()
              for ev in res.events]
    # bucket j covers integers in (floor(e^j), floor(e^{j+1})]; the ends are
    # at most the last bound, so bucket k = 0 is the only one dropped
    bounds = np.array([math.floor(math.exp(j)) for j in range(1, j_max + 2)], dtype=np.int64)
    k = np.searchsorted(bounds, np.array([ev.end_prime for ev in events], dtype=np.int64))
    maximal = np.array([ev.is_maximal for ev in events], dtype=bool)
    fo = np.bincount(k, minlength=j_max + 1)[1:].tolist()
    mx = np.bincount(k[maximal], minlength=j_max + 1)[1:].tolist()
    return [(j, fo[j - 1] / len(rs), mx[j - 1] / len(rs)) for j in range(1, j_max + 1)]


def check_record_bounds(result: ScanResult) -> list[tuple[str, int, int]]:
    """Violations of the conjectured record-size envelopes.

    Maximal records: phi(q) n^2 / 6 < R(n) < phi(q) n^2 + (n+2) q log^2 q.
    First occurrences: n <= S(n) <= 2 n q ceil(log^2 q).
    Returns (kind, index, size) triples; empty list means no violations.
    """
    q = result.cls.q
    phi = totient(q)
    log2q = math.log(q) ** 2
    ceil_log2q = math.ceil(log2q)
    bad = []
    for ev in result.events:
        if ev.is_maximal:
            n = ev.maximal_index
            if not (phi * n * n / 6 < ev.size < phi * n * n + (n + 2) * q * log2q):
                bad.append(("maximal", n, ev.size))
        n = ev.fo_index
        if not (n <= ev.size <= 2 * n * q * ceil_log2q):
            bad.append(("first_occurrence", n, ev.size))
    return bad

