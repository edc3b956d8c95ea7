import bisect
import math
import threading
from collections import Counter, defaultdict
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apgaps import brun, cli, gapscan, sieve
from apgaps.gapscan import (
    GapEvent,
    ScanResult,
    check_record_bounds,
    gap_size_counts,
    interval_record_table,
    scan,
    scan_many,
    tau,
)
from apgaps.numutil import lcm2, totient
from apgaps.sieve import ResidueClass

from _oracles import naive_events, naive_tau, trial_division_primes_in_class


class TestScanExamples:
    def test_class_6_5_to_50(self):
        res = scan(ResidueClass(6, 5), 50)
        assert res.n_first_occurrence == 2
        assert res.n_maximal == 2
        first, second = res.events
        assert (first.start_prime, first.end_prime, first.size) == (5, 11, 6)
        assert first.is_maximal
        assert (first.maximal_index, first.fo_index) == (1, 1)
        assert (second.start_prime, second.end_prime, second.size) == (29, 41, 12)
        assert (second.maximal_index, second.fo_index) == (2, 2)

    def test_all_primes_to_30(self):
        res = scan(ResidueClass(2, 1), 30)
        got = [(e.size, e.start_prime, e.end_prime, e.maximal_index) for e in res.events]
        assert got == [(2, 3, 5, 1), (4, 7, 11, 2), (6, 23, 29, 3)]

    def test_single_event(self):
        res = scan(ResidueClass(6, 5), 11)
        assert len(res.events) == 1
        ev = res.events[0]
        assert ev.size == 6 and ev.is_maximal

    def test_empty_when_one_prime(self):
        res = scan(ResidueClass(6, 5), 7)
        assert res.events == [] and res.n_maximal == 0

    def test_csg_definition(self):
        res = scan(ResidueClass(6, 5), 50)
        ev = res.events[0]
        assert ev.csg == pytest.approx(6 / (2 * math.log(11) ** 2), rel=1e-15)


class TestOracleEquivalence:
    @pytest.mark.parametrize("q,r,x", [
        (2, 1, 10**5),
        (6, 5, 10**5),
        (6, 1, 10**5),
        (211, 1, 10**5),
        (211, 113, 10**5),
    ])
    def test_matches_naive_scan(self, q, r, x):
        res = scan(ResidueClass(q, r), x)
        want = naive_events(q, r, x)
        assert len(res.events) == len(want)
        for got, exp in zip(res.events, want):
            assert got.start_prime == exp["start_prime"]
            assert got.end_prime == exp["end_prime"]
            assert got.size == exp["size"]
            assert got.is_maximal == exp["is_maximal"]
            assert got.maximal_index == exp["maximal_index"]
            assert got.fo_index == exp["fo_index"]
            assert got.csg == pytest.approx(exp["csg"], rel=1e-12)

    def test_scan_many_matches_scan(self):
        many = scan_many(6, [1, 5], 10**5)
        for r in (1, 5):
            single = scan(ResidueClass(6, r), 10**5)
            assert many[r].events == single.events


@st.composite
def class_sets(draw):
    """q <= 60 and a random set of its classes; odd q always brings r = 2."""
    q = draw(st.integers(2, 60))
    coprime = [r for r in range(1, q) if math.gcd(r, q) == 1]
    rs = set(draw(st.lists(st.sampled_from(coprime), min_size=1, max_size=8)))
    if q % 2:
        rs.add(2)  # the class holding the prime 2 and its odd gap
    return q, sorted(rs)


def _event_tuples(res):
    return [(e.start_prime, e.end_prime, e.size, e.is_maximal, e.maximal_index,
             e.fo_index, e.csg) for e in res.events]


def _naive_tuples(q, r, x):
    return [(e["start_prime"], e["end_prime"], e["size"], e["is_maximal"],
             e["maximal_index"], e["fo_index"], e["csg"]) for e in naive_events(q, r, x)]


class TestPairStreamDifferential:
    """The class-pair stream and its three consumers against trial division.

    Small segments and batches split the classes over many batches, some of
    them with no prime of a class, and carry the pair from 2 across batch
    bounds.
    """

    @settings(max_examples=150, deadline=None)
    @given(qrs=class_sets(), x=st.integers(1, 30_000), data=st.data())
    def test_pairs_match_oracle(self, qrs, x, data):
        q, rs = qrs
        seg_len = data.draw(st.integers(2, max(2, x)), label="seg_len")
        threads = data.draw(st.integers(1, 3), label="threads")
        batch = data.draw(st.integers(1, 64), label="batch")
        got = defaultdict(list)
        with mock.patch.object(gapscan, "_BATCH", batch), \
                mock.patch.object(sieve, "DEFAULT_SEGMENT_LENGTH", seg_len):
            for counts, gaps, ends in gapscan._class_pairs(q, rs, x, threads=threads):
                assert counts.size == len(rs) and np.all(counts >= 0)
                assert counts.sum() == ends.size == gaps.size > 0
                rows = np.repeat(np.arange(len(rs)), counts)
                for row, s, e in zip(rows.tolist(), (ends - gaps).tolist(), ends.tolist()):
                    got[rs[row]].append((s, e))
        for r in rs:
            primes = trial_division_primes_in_class(q, r, x).tolist()
            assert got[r] == list(zip(primes, primes[1:]))

    @settings(max_examples=100, deadline=None)
    @given(qrs=class_sets(), x=st.integers(1, 30_000), data=st.data())
    def test_scan_many_matches_oracle(self, qrs, x, data):
        q, rs = qrs
        seg_len = data.draw(st.integers(2, max(2, x)), label="seg_len")
        batch = data.draw(st.integers(1, 64), label="batch")
        with mock.patch.object(sieve, "DEFAULT_SEGMENT_LENGTH", seg_len):
            one = scan_many(q, rs, x, threads=1)
            with mock.patch.object(gapscan, "_BATCH", batch):
                three = scan_many(q, rs, x, threads=3)
        for r in rs:
            want = _naive_tuples(q, r, x)
            assert _event_tuples(one[r]) == want
            assert one[r].events == three[r].events
            assert one[r].n_maximal == sum(e[3] for e in want)
            assert one[r].n_first_occurrence == len(want)

    @settings(max_examples=100, deadline=None)
    @given(qrs=class_sets(), x=st.integers(1, 30_000), data=st.data())
    def test_gap_size_counts_match_oracle(self, qrs, x, data):
        q, rs = qrs
        r = data.draw(st.sampled_from(rs), label="r")
        seg_len = data.draw(st.integers(2, max(2, x)), label="seg_len")
        threads = data.draw(st.integers(1, 3), label="threads")
        primes = trial_division_primes_in_class(q, r, x)
        want = Counter(np.diff(primes).tolist())
        with mock.patch.object(sieve, "DEFAULT_SEGMENT_LENGTH", seg_len):
            got = gap_size_counts(ResidueClass(q, r), x, threads=threads)
        assert got == want

    @settings(max_examples=100, deadline=None)
    @given(qrs=class_sets(), x=st.integers(1, 30_000), data=st.data())
    def test_brun_growth_matches_oracle(self, qrs, x, data):
        q, rs = qrs
        r = data.draw(st.sampled_from(rs), label="r")
        primes = trial_division_primes_in_class(q, r, x).tolist()
        pairs = list(zip(primes, primes[1:]))
        # d = q is the odd gap from 2 when 2 + q is prime, as 2 -> 5 in 2 mod 3
        d = data.draw(st.sampled_from(sorted({e - s for s, e in pairs} | {lcm2(q), q})),
                      label="d")
        xs = sorted(set(data.draw(st.lists(st.integers(1, x), max_size=4), label="xs"))
                    | {x})
        seg_len = data.draw(st.integers(2, max(2, x)), label="seg_len")
        threads = data.draw(st.integers(1, 3), label="threads")
        with mock.patch.object(sieve, "DEFAULT_SEGMENT_LENGTH", seg_len):
            got = brun.brun_growth(d, ResidueClass(q, r), xs, threads=threads)
        for bs in got:
            hits = [(s, e) for s, e in pairs if e - s == d and e <= bs.x]
            assert bs.pair_count == len(hits)
            assert bs.partial_sum == pytest.approx(
                math.fsum(1 / s + 1 / e for s, e in hits), rel=1e-12, abs=0)

    @settings(max_examples=100, deadline=None)
    @given(q=st.sampled_from([2, 4, 8, 16, 32]), x=st.integers(1, 30_000), data=st.data())
    def test_power_of_two_moduli(self, q, x, data):
        # many classes take residues as p & (q - 1), one class tests the low
        # bits alone; for q = 2 every batch after the one holding 2 lies
        # wholly in the class and is used without a test
        rs = list(range(1, q, 2))
        r = data.draw(st.sampled_from(rs), label="r")
        primes = trial_division_primes_in_class(q, r, x).tolist()
        pairs = list(zip(primes, primes[1:]))
        d = data.draw(st.sampled_from(sorted({e - s for s, e in pairs} | {q})), label="d")
        seg_len = data.draw(st.integers(2, max(2, x)), label="seg_len")
        threads = data.draw(st.integers(1, 3), label="threads")
        batch = data.draw(st.integers(1, 64), label="batch")
        cls = ResidueClass(q, r)
        with mock.patch.object(gapscan, "_BATCH", batch), \
                mock.patch.object(sieve, "DEFAULT_SEGMENT_LENGTH", seg_len):
            counts = gap_size_counts(cls, x, threads=threads)
            (bs,) = brun.brun_growth(d, cls, [x], threads=threads)
            many = scan_many(q, rs, x, threads=threads)
        assert counts == Counter(e - s for s, e in pairs)
        hits = [(s, e) for s, e in pairs if e - s == d]
        assert bs.pair_count == len(hits)
        assert bs.partial_sum == pytest.approx(
            math.fsum(1 / s + 1 / e for s, e in hits), rel=1e-12, abs=0)
        for rr in rs:
            assert _event_tuples(many[rr]) == _naive_tuples(q, rr, x)

    def test_odd_gap_from_two_is_its_own_event(self):
        # 2 -> 23 (d = 21) opens 2 mod 7, keyed 21 // 7 = 3; the next pair
        # 23 -> 37 (d = 14, key 2) is a new gap size, below the running max 21
        res = scan(ResidueClass(7, 2), 10**4)
        got = [(e.start_prime, e.end_prime, e.size, e.maximal_index, e.fo_index)
               for e in res.events[:2]]
        assert got == [(2, 23, 21, 1, 1), (23, 37, 14, None, 2)]
        assert _event_tuples(res) == _naive_tuples(7, 2, 10**4)
        assert gap_size_counts(ResidueClass(7, 2), 10**4)[21] == 1


class TestGapEvent:
    """Events are named tuples: fixed field order, immutable, built by keyword too."""

    FIELDS = ("start_prime", "end_prime", "size", "is_maximal", "maximal_index",
              "fo_index", "csg")

    def test_field_order(self):
        assert GapEvent._fields == self.FIELDS

    def test_keyword_equals_positional(self):
        ev = GapEvent(start_prime=9973 - 36, end_prime=9973, size=36, is_maximal=False,
                      maximal_index=None, fo_index=3, csg=0.1)
        assert ev == GapEvent(9937, 9973, 36, False, None, 3, 0.1)
        assert (ev.start_prime, ev.size, ev.maximal_index, ev.fo_index) == (9937, 36, None, 3)

    def test_fields_cannot_be_assigned(self):
        ev = scan(ResidueClass(6, 5), 50).events[0]
        for name in self.FIELDS:
            with pytest.raises(AttributeError):
                setattr(ev, name, 0)
        assert ev == GapEvent(5, 11, 6, True, 1, 1, 6 / (2 * math.log(11) ** 2))


class TestSieveContract:
    """Every prime the pipelines see comes through sieve.sieve_interval.

    The benchmark's traced runs count the primes that sieve_interval returns
    and require the total to be pi(x); a sieve path that bypasses it fails.
    """

    PI_1E6 = 78_498

    RUNS = [
        lambda t: scan_many(6, [1], 10**6, threads=t),
        lambda t: scan_many(211, range(1, 211), 10**6, threads=t),
        lambda t: brun.brun_growth(2, ResidueClass(2, 1), [10**6], threads=t),
    ]
    RUN_IDS = ["scan-q6", "scan-q211-all", "brun-twin"]

    @pytest.mark.parametrize("threads", [1, 2])
    @pytest.mark.parametrize("run", RUNS, ids=RUN_IDS)
    def test_sieved_primes_are_pi_x(self, run, threads, monkeypatch):
        counted = []
        interval = sieve.sieve_interval

        def counting(*args, **kwargs):
            primes = interval(*args, **kwargs)
            counted.append(len(primes))
            return primes

        monkeypatch.setattr(sieve, "sieve_interval", counting)
        run(threads)
        assert sum(counted) == self.PI_1E6

    @pytest.mark.parametrize("run", RUNS, ids=RUN_IDS)
    def test_helper_thread_primes_are_pi_x(self, run, monkeypatch):
        # 2^17-number segments put 1e6 in 8 of them, so threads = 2 takes
        # the threaded branch and every readout runs on the helper thread
        counted, readers = [], set()
        interval = sieve.sieve_interval

        def counting(*args, **kwargs):
            readers.add(threading.get_ident())
            primes = interval(*args, **kwargs)
            counted.append(len(primes))
            return primes

        monkeypatch.setattr(sieve, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", 2**17)
        monkeypatch.setattr(sieve, "sieve_interval", counting)
        run(2)
        assert len(counted) == 8
        assert sum(counted) == self.PI_1E6
        assert len(readers) == 1 and threading.get_ident() not in readers


@pytest.fixture(scope="module")
def result():
    return scan(ResidueClass(6, 1), 10**6)


class TestInvariants:
    def test_maximal_sizes_strictly_increase(self, result):
        sizes = [e.size for e in result.events if e.is_maximal]
        assert all(a < b for a, b in zip(sizes, sizes[1:]))

    def test_fo_sizes_distinct(self, result):
        sizes = [e.size for e in result.events]
        assert len(sizes) == len(set(sizes))

    def test_maximal_implies_fo(self, result):
        # the event list holds every first occurrence, so a maximal event must
        # outgrow all events before it and carry its own fo index
        for i, e in enumerate(result.events):
            if e.is_maximal:
                assert all(e.size > prev.size for prev in result.events[:i])
                assert e.fo_index == i + 1

    def test_counts_match_flags(self, result):
        assert result.n_maximal == sum(e.is_maximal for e in result.events)
        assert result.n_first_occurrence == len(result.events)

    def test_divisibility_lattice(self, result):
        c = lcm2(result.cls.q)
        for e in result.events:
            if e.start_prime > result.cls.q:
                assert e.size % c == 0

    def test_events_ordered_by_end_prime(self, result):
        ends = [e.end_prime for e in result.events]
        assert ends == sorted(ends)


class TestTau:
    def test_zero_rule_no_sieve(self):
        # odd size, and size not divisible by q: both rejected instantly
        assert tau(ResidueClass(6, 5), 9, 10**6) == 0
        assert tau(ResidueClass(6, 5), 10, 10**6) == 0

    def test_gap_six_class_6_5(self):
        assert tau(ResidueClass(6, 5), 6, 50) == 5

    def test_twin_pairs_to_30(self):
        assert tau(ResidueClass(2, 1), 2, 30) == 4

    @pytest.mark.parametrize("q,r,d,x", [(2, 1, 6, 10**4), (6, 1, 12, 10**5)])
    def test_matches_oracle(self, q, r, d, x):
        assert tau(ResidueClass(q, r), d, x) == naive_tau(q, r, d, x)

    @pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 15, 21, 35])
    def test_class_of_two_matches_oracle(self, q):
        # the odd multiples of q include the gap from 2, the even ones the rest
        cls = ResidueClass(q, 2)
        for d in range(q, 8 * q, q):
            for x in (d + 1, d + 2, 10**4):
                assert tau(cls, d, x) == naive_tau(q, 2, d, x), (d, x)

    def test_odd_gap_counted_once(self):
        assert tau(ResidueClass(7, 2), 21, 200) == 1
        assert tau(ResidueClass(3, 2), 3, 100) == 1

    def test_counting_consistency(self):
        cls = ResidueClass(6, 5)
        x = 10**5
        counts = gap_size_counts(cls, x)
        from apgaps.sieve import prime_count
        assert sum(counts.values()) == prime_count(cls, x) - 1


class TestIntervalCounts:
    def test_oracle_means_q6(self):
        # brute force to e^4 ~ 54.6: class r=1 has primes 7,13,19,31,37,43;
        # class r=5 has 5,11,17,23,29,41,47
        table = interval_record_table(6, 3)
        want_max = {1: 0.0, 2: 1.0, 3: 1.0}
        want_fo = {1: 0.0, 2: 1.0, 3: 1.0}
        for j, fo, mx in table:
            assert fo == want_fo[j]
            assert mx == want_max[j]

    def test_bucket_boundaries_q2(self):
        # records d=2 ends at 5, d=4 ends at 11; bucket j=1 is (2, 7]
        assert interval_record_table(2, 1) == [(1, 1.0, 1.0)]

    def test_empty_bucket_zero(self):
        table = interval_record_table(211, 1)
        assert table[0][1] == 0.0 and table[0][2] == 0.0

    def test_row_count(self):
        assert len(interval_record_table(6, 10)) == 10

    @settings(max_examples=30, deadline=None)
    # q = 4: the gap 3 -> 7 of 3 mod 4 ends exactly on the bound floor(e^2) = 7
    @example(q=4, j_max=1)
    @example(q=4, j_max=3)
    @given(q=st.integers(2, 60), j_max=st.integers(1, 9))
    def test_matches_oracle_events(self, q, j_max):
        x = math.floor(math.exp(j_max + 1))
        bounds = [math.floor(math.exp(j)) for j in range(1, j_max + 2)]
        rs = [r for r in range(1, q) if math.gcd(r, q) == 1]
        fo, mx = [0] * (j_max + 1), [0] * (j_max + 1)
        for r in rs:
            for ev in naive_events(q, r, x):
                k = bisect.bisect_left(bounds, ev["end_prime"])
                fo[k] += 1
                mx[k] += ev["is_maximal"]
        want = [(j, fo[j] / len(rs), mx[j] / len(rs)) for j in range(1, j_max + 1)]
        assert interval_record_table(q, j_max) == want

    # counts checks the table's bound floor(e^(j-max + 1)) before it builds it
    def test_budget_honored(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with mock.patch.object(gapscan, "interval_record_table") as table:
            assert cli.main("counts --q 6 --j-max 30 --budget 1e6".split()) == 3
        table.assert_not_called()

    def test_budget_past_float_range(self, tmp_path, monkeypatch):
        # e^801 overflows a float; the bound is past the sieve ceiling
        monkeypatch.chdir(tmp_path)
        with mock.patch.object(gapscan, "interval_record_table") as table:
            assert cli.main("counts --q 6 --j-max 800 --budget 1e10".split()) == 2
        table.assert_not_called()


class TestRecordBounds:
    def test_clean_class_6_5(self):
        assert check_record_bounds(scan(ResidueClass(6, 5), 10**6)) == []

    def test_clean_all_primes(self):
        assert check_record_bounds(scan(ResidueClass(2, 1), 10**6)) == []

    def test_synthetic_violation(self):
        # R(1) = 1 fails the strict lower bound phi(7)*1/6 = 1 < R(1)
        ev = GapEvent(start_prime=29, end_prime=30, size=1, is_maximal=True,
                      maximal_index=1, fo_index=1, csg=0.1)
        fake = ScanResult(cls=ResidueClass(7, 1), x_max=100, events=[ev],
                          n_maximal=1, n_first_occurrence=1)
        bad = check_record_bounds(fake)
        assert len(bad) == 1 and bad[0][0] == "maximal"

