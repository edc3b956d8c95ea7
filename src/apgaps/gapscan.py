"""Record gap events between primes in a residue class.

A gap event is the pair of consecutive class primes (p, p') bounding a gap
d = p' - p that is maximal (strictly larger than every earlier gap) or a
first occurrence (no earlier gap of exactly that size). Every maximal gap is
also a first occurrence, so the event list holds first occurrences with a
maximal flag. Memory stays proportional to the number of distinct gap sizes.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
from dataclasses import dataclass
from typing import Iterable, Literal, Optional, Sequence

import numpy as np

from . import sieve
from .numutil import totient
from .sieve import DEFAULT_SEGMENT_LENGTH, ResidueClass


class BudgetExceededError(RuntimeError):
    """Raised when a request would sieve more numbers than the configured budget."""


@dataclass(frozen=True)
class GapEvent:
    start_prime: int
    end_prime: int
    size: int
    is_maximal: bool
    is_first_occurrence: bool
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


class _ClassState:
    __slots__ = ("last", "seen", "running_max", "events", "n_max")

    def __init__(self) -> None:
        self.last: Optional[int] = None
        self.seen: set[int] = set()
        self.running_max = 0
        self.events: list[GapEvent] = []
        self.n_max = 0


def _advance(state: _ClassState, sub: np.ndarray, phi: int) -> None:
    """Feed the next batch of class primes (ascending) through the detector."""
    if state.last is None:
        if len(sub) < 2:
            if len(sub):
                state.last = int(sub[-1])
            return
        gaps = np.diff(sub)
        starts = sub[:-1]
        ends = sub[1:]
    else:
        gaps = np.diff(sub, prepend=state.last)
        starts = np.empty_like(sub)
        starts[0] = state.last
        starts[1:] = sub[:-1]
        ends = sub
    state.last = int(sub[-1])
    uniq, first_idx = np.unique(gaps, return_index=True)
    fresh = [
        (int(i), int(v))
        for v, i in zip(uniq.tolist(), first_idx.tolist())
        if v not in state.seen
    ]
    if not fresh:
        return
    fresh.sort()  # chronological order decides maximality
    for i, v in fresh:
        state.seen.add(v)
        is_max = v > state.running_max
        if is_max:
            state.running_max = v
            state.n_max += 1
        end = int(ends[i])
        state.events.append(
            GapEvent(
                start_prime=int(starts[i]),
                end_prime=end,
                size=v,
                is_maximal=is_max,
                is_first_occurrence=True,
                maximal_index=state.n_max if is_max else None,
                fo_index=len(state.events) + 1,
                csg=v / (phi * math.log(end) ** 2),
            )
        )


def scan_many(
    q: int,
    r_values: Iterable[int],
    x_max: int,
    *,
    threads: int = 1,
    seg_len: int = DEFAULT_SEGMENT_LENGTH,
) -> dict[int, ScanResult]:
    """Scan every requested residue class mod q in a single sieve pass."""
    rs = sorted(set(int(r) for r in r_values))
    classes = {r: ResidueClass(q, r) for r in rs}  # validates q, r pairs
    if x_max < 1:
        raise ValueError("x_max must be positive")
    phi = totient(q)
    states = {r: _ClassState() for r in rs}
    # residues < q fit a narrow type, which numpy's stable sort radix-sorts
    key_type = np.min_scalar_type(q - 1)
    rs_arr = np.array(rs, dtype=key_type)
    for seg in sieve.iter_prime_segments(1, x_max, seg_len=seg_len, threads=threads):
        primes = seg.primes
        if not len(primes):
            continue
        if len(rs) == 1:
            r = rs[0]
            sub = primes[primes % q == r]
            if len(sub):
                _advance(states[r], sub, phi)
            continue
        residues = (primes % q).astype(key_type)
        order = np.argsort(residues, kind="stable")
        sorted_res = residues[order]
        los = np.searchsorted(sorted_res, rs_arr, side="left")
        his = np.searchsorted(sorted_res, rs_arr, side="right")
        for r, a, b in zip(rs, los.tolist(), his.tolist()):
            if a == b:
                continue
            sub = primes[order[a:b]]  # stable sort keeps ascending order
            _advance(states[r], sub, phi)
    out = {}
    for r in rs:
        st = states[r]
        out[r] = ScanResult(
            cls=classes[r],
            x_max=x_max,
            events=st.events,
            n_maximal=st.n_max,
            n_first_occurrence=len(st.events),
        )
    return out


def scan(cls: ResidueClass, x_max: int, *, threads: int = 1,
         seg_len: int = DEFAULT_SEGMENT_LENGTH) -> ScanResult:
    """Scan one residue class for gap events among primes <= x_max."""
    return scan_many(cls.q, [cls.r], x_max, threads=threads, seg_len=seg_len)[cls.r]


def latest_first_occurrence(result: ScanResult, x: int) -> GapEvent:
    """Most recent event whose end prime is <= x."""
    if x > result.x_max:
        raise ValueError("x beyond the scanned range")
    ends = [ev.end_prime for ev in result.events]
    i = bisect.bisect_right(ends, x)
    if i == 0:
        raise LookupError(f"no gap event ends at or below {x}")
    return result.events[i - 1]


def gap_size_counts(cls: ResidueClass, x: int, *, threads: int = 1) -> dict[int, int]:
    """Exact histogram of gap sizes between consecutive class primes <= x."""
    if x < 1:
        raise ValueError("x must be positive")
    counts: dict[int, int] = {}
    last: Optional[int] = None
    for seg in sieve.iter_class_segments(cls, 1, x, threads=threads):
        sub = seg.primes
        if not len(sub):
            continue
        gaps = np.diff(sub) if last is None else np.diff(sub, prepend=last)
        last = int(sub[-1])
        if len(gaps):
            vals, cnts = np.unique(gaps, return_counts=True)
            for v, c in zip(vals.tolist(), cnts.tolist()):
                counts[v] = counts.get(v, 0) + c
    return counts


def tau(cls: ResidueClass, d: int, x: int, *, threads: int = 1) -> int:
    """Exact count of gaps of size d with end prime <= x.

    Inadmissible sizes (d odd, or q not dividing d) short-circuit to 0 with
    no sieving.
    """
    if d < 1 or x < 1:
        raise ValueError("need d >= 1 and x >= 1")
    if d % 2 or d % cls.q:
        return 0
    return gap_size_counts(cls, x, threads=threads).get(d, 0)


RecordKind = Literal["maximal", "first_occurrence"]


def interval_record_table(
    q: int,
    j_max: int,
    *,
    threads: int = 1,
    budget: Optional[int] = None,
) -> list[tuple[int, float, float]]:
    """Mean record counts per interval (e^j, e^{j+1}], averaged over coprime r.

    Returns rows (j, mean first-occurrence count, mean maximal count) for
    j = 1..j_max. Records are defined globally (from the start of each class),
    only bucketed by where their end prime lands.
    """
    if j_max < 1:
        raise ValueError("j_max must be >= 1")
    x_needed = math.floor(math.exp(j_max + 1))
    if budget is not None and x_needed > budget:
        raise BudgetExceededError(
            f"interval table to j={j_max} needs sieving to {x_needed} > budget {budget}")
    rs = [r for r in range(1, q) if math.gcd(r, q) == 1]
    results = scan_many(q, rs, x_needed, threads=threads)
    # bucket j covers integers in (floor(e^j), floor(e^{j+1})]
    bounds = [math.floor(math.exp(j)) for j in range(1, j_max + 2)]
    fo_totals = [0] * j_max
    max_totals = [0] * j_max
    for r in rs:
        for ev in results[r].events:
            k = bisect.bisect_left(bounds, ev.end_prime)
            if 1 <= k <= j_max:
                fo_totals[k - 1] += 1
                if ev.is_maximal:
                    max_totals[k - 1] += 1
    n = len(rs)
    return [(j, fo_totals[j - 1] / n, max_totals[j - 1] / n) for j in range(1, j_max + 1)]


def interval_record_counts(
    q: int,
    j_max: int,
    kind: RecordKind,
    *,
    threads: int = 1,
    budget: Optional[int] = None,
) -> list[tuple[int, float]]:
    """Mean counts of one record kind per interval (e^j, e^{j+1}]."""
    if kind not in ("maximal", "first_occurrence"):
        raise ValueError(f"unknown record kind {kind!r}")
    table = interval_record_table(q, j_max, threads=threads, budget=budget)
    idx = 2 if kind == "maximal" else 1
    return [(row[0], row[idx]) for row in table]


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


# ---------------------------------------------------------------------------
# Export. One row per event: maximal events report their maximal index,
# plain first occurrences their fo index.

CSV_COLUMNS = ["q", "r", "kind", "n", "start_prime", "end_prime", "size", "csg"]


def event_rows(result: ScanResult) -> list[dict]:
    rows = []
    for ev in result.events:
        kind = "maximal" if ev.is_maximal else "first_occurrence"
        rows.append(
            {
                "q": result.cls.q,
                "r": result.cls.r,
                "kind": kind,
                "n": ev.maximal_index if ev.is_maximal else ev.fo_index,
                "start_prime": ev.start_prime,
                "end_prime": ev.end_prime,
                "size": ev.size,
                "csg": ev.csg,
            }
        )
    return rows


def write_events_csv(results: Sequence[ScanResult] | ScanResult, path: str) -> None:
    """CSV export; csg carries 10 significant digits."""
    if isinstance(results, ScanResult):
        results = [results]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for res in results:
            for row in event_rows(res):
                writer.writerow(
                    [row[c] for c in CSV_COLUMNS[:-1]] + [format(row["csg"], ".10g")]
                )


def write_events_json(results: Sequence[ScanResult] | ScanResult, path: str) -> None:
    """JSON export mirroring the CSV fields at full float precision."""
    if isinstance(results, ScanResult):
        results = [results]
    rows = []
    for res in results:
        rows.extend(event_rows(res))
    with open(path, "w") as fh:
        json.dump(rows, fh, indent=1)
        fh.write("\n")
