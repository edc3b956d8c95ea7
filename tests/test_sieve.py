import math
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from apgaps import sieve
from apgaps.numutil import MAX_MODULUS, log_integral, totient
from apgaps.sieve import (
    MAX_SIEVE_BOUND,
    ResidueClass,
    base_primes,
    count_all_primes,
    iter_prime_segments,
    prime_count,
    sieve_interval,
)

from _oracles import small_primes, trial_division_primes_in_class


def segment_primes(lo, hi, seg_len=sieve.DEFAULT_SEGMENT_LENGTH, threads=1):
    """The segment arrays of [lo, hi], sieved with segments seg_len numbers long."""
    with mock.patch.object(sieve, "DEFAULT_SEGMENT_LENGTH", seg_len):
        return list(iter_prime_segments(lo, hi, threads=threads))


def collect(cls, lo, hi, **kw):
    """The primes of the class in [lo, hi], filtered segment by segment."""
    return [p for seg in segment_primes(lo, hi, **kw)
            for p in seg.compress(seg % cls.q == cls.r).tolist()]


class TestResidueClass:
    def test_valid(self):
        cls = ResidueClass(6, 5)
        assert (cls.q, cls.r) == (6, 5)
        assert str(cls) == "5 mod 6"

    def test_rejects_noncoprime(self):
        with pytest.raises(ValueError):
            ResidueClass(4, 2)

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ResidueClass(6, 0)
        with pytest.raises(ValueError):
            ResidueClass(6, 7)


class TestPrimesInClass:
    def test_class_6_5(self):
        assert collect(ResidueClass(6, 5), 1, 50) == [5, 11, 17, 23, 29, 41, 47]

    def test_all_odd_primes(self):
        assert collect(ResidueClass(2, 1), 3, 20) == [3, 5, 7, 11, 13, 17, 19]

    def test_empty_window(self):
        assert collect(ResidueClass(6, 5), 24, 28) == []

    def test_range_cap(self):
        with pytest.raises(OverflowError):
            collect(ResidueClass(2, 1), 1, MAX_SIEVE_BOUND + 1)

    @pytest.mark.parametrize("q,r,x", [(2, 1, 10**5), (6, 1, 10**5), (211, 3, 10**5)])
    def test_matches_trial_division(self, q, r, x):
        got = collect(ResidueClass(q, r), 1, x)
        want = trial_division_primes_in_class(q, r, x).tolist()
        assert got == want

    def test_segment_independence(self):
        cls = ResidueClass(6, 1)
        whole = collect(cls, 1, 3 * 10**5)
        # stitch the same range back together from an uneven partition
        cuts = [1, 977, 10**4, 10**4 + 1, 2 * 10**5, 3 * 10**5]
        parts = []
        for lo, hi in zip(cuts, cuts[1:]):
            parts.extend(collect(cls, lo if lo == 1 else lo + 1, hi))
        assert parts == whole

    def test_small_segment_length(self):
        cls = ResidueClass(2, 1)
        assert collect(cls, 1, 10**4, seg_len=256) == collect(cls, 1, 10**4)

    def test_threaded_identical(self):
        cls = ResidueClass(211, 1)
        a = collect(cls, 1, 10**6, seg_len=2**14, threads=1)
        b = collect(cls, 1, 10**6, seg_len=2**14, threads=8)
        assert a == b


class TestPrimeCount:
    def test_example(self):
        assert prime_count(ResidueClass(6, 5), 50) == 7

    def test_below_first_prime(self):
        assert prime_count(ResidueClass(6, 5), 4) == 0

    def test_odd_primes_to_100(self):
        assert prime_count(ResidueClass(2, 1), 100) == 24

    @pytest.mark.parametrize("q", [2, 6, 211])
    def test_partition_property(self, q):
        x = 10**6
        total = count_all_primes(x)
        in_classes = sum(prime_count(ResidueClass(q, r), x)
                         for r in range(1, q) if math.gcd(q, r) == 1)
        dividing_q = sum(1 for p in (2, 3, 5, 7, 11, 13) if q % p == 0 and p <= x)
        if q == 211:
            dividing_q = 1  # 211 itself is prime
        assert in_classes + dividing_q == total

    @settings(max_examples=150, deadline=None)
    @given(q=st.one_of(st.integers(1, 499).map(lambda k: 2 * k + 1),  # odd
                       st.integers(0, 249).map(lambda k: 4 * k + 2),  # 2 mod 4
                       st.integers(1, 250).map(lambda k: 4 * k)),  # 0 mod 4
           x=st.integers(1, 5_000), data=st.data())
    def test_matches_trial_division(self, q, x, data):
        # odd q brings r = 2, the class of the prime 2, in half the draws;
        # segments of 1 or 2 numbers put 2 alone at a segment's start
        coprime = st.integers(1, q - 1).filter(lambda r: math.gcd(q, r) == 1)
        r = data.draw(st.one_of(st.just(2), coprime) if q % 2 else coprime, label="r")
        seg_len = data.draw(st.one_of(st.sampled_from([1, 2]), st.integers(1, x)),
                            label="seg_len")
        threads = data.draw(st.integers(1, 2), label="threads")
        with mock.patch.object(sieve, "DEFAULT_SEGMENT_LENGTH", seg_len):
            got = prime_count(ResidueClass(q, r), x, threads=threads)
        assert got == trial_division_primes_in_class(q, r, x).size

    def test_pnt_for_aps(self):
        # equidistribution sanity at x = 1e8 for q = 211, every coprime r
        x = 10**8
        counts = np.zeros(211, dtype=np.int64)
        for seg in iter_prime_segments(1, x):
            counts += np.bincount(seg % 211, minlength=211)
        expect = log_integral(x) / totient(211)
        for r in range(1, 211):
            assert abs(counts[r] - expect) / expect < 0.05


def odd_numbers(lo, hi):
    """Odd numbers from lo to hi."""
    return st.integers((lo - 1) // 2, (hi - 1) // 2).map(lambda k: 2 * k + 1)


TOP = (1 << 63) - 1
TOP_BIT = MAX_MODULUS.bit_length() - 1  # 2^39 <= 10^12 < 2^40
# q from 2 to MAX_MODULUS: a power of two, 2^s times an odd number (s of 1
# to 3 in half the draws, so q = 2 (mod 4), 4 (mod 8) and 0 (mod 8) all
# come often), or odd
moduli = st.one_of(
    st.integers(1, TOP_BIT).map(lambda s: 1 << s),
    st.one_of(st.integers(1, 3), st.integers(1, TOP_BIT - 1)).flatmap(
        lambda s: odd_numbers(3, MAX_MODULUS >> s).map(lambda m: m << s)),
    odd_numbers(3, MAX_MODULUS))


class TestClassSelect:
    """The one class selector against p % q == r.

    Its input is what the sieve streams: an ascending int64 array of odd
    numbers, with or without 2 in front. The odd numbers are any up to
    2^63 - 1, not only primes: 3, numbers below r, and numbers near the
    class, r + kq moved by 1, m, 2^s or q (q = 2^s * m, m odd), which agree
    with r in one of its two parts only. For even q the moves by 1 and m
    are doubled, as r + kq is odd.
    """

    @settings(max_examples=400, deadline=None)
    @given(q=moduli, data=st.data())
    def test_matches_remainder(self, q, data):
        # every coprime r; for odd q, r = 2 (the class of the prime 2) in half the draws
        coprime = st.integers(1, q - 1).filter(lambda r: math.gcd(q, r) == 1)
        r = data.draw(st.one_of(st.just(2), coprime) if q % 2 else coprime, label="r")
        low_bit = q & -q
        m = q // low_bit
        moves = [d if q % 2 or d % 2 == 0 else 2 * d
                 for d in (0, 1, -1, m, -m, low_bit, -low_bit, q, -q)]
        # for odd q, one more q turns an even r + kq + d odd with the same residue
        near = st.tuples(st.integers(0, (TOP - r) // q), st.sampled_from(moves)).map(
            lambda t: r + t[0] * q + t[1]).map(lambda p: p if p % 2 else p + q)
        odds = data.draw(st.lists(st.one_of(
            st.just(3), odd_numbers(3, max(3, r)), odd_numbers(3, TOP),
            near.filter(lambda p: 3 <= p <= TOP)), max_size=40), label="odds")
        ps = [2] * data.draw(st.booleans(), label="two") + sorted(set(odds))
        got = sieve._class_select(q, r)(np.array(ps, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in ps if p % q == r]


SMALL_LIMIT = 30_000
SMALL = small_primes(SMALL_LIMIT)
DIVISORS = small_primes(10**5)  # enough to trial-divide any n <= 1e10

# lo leans on the special starts 1, 2, 3; widths on 0, 1 and 2
starts = st.one_of(st.sampled_from([1, 2, 3]), st.integers(1, SMALL_LIMIT // 2))
widths = st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 3_000))


@st.composite
def residue_classes(draw):
    q = draw(st.integers(2, 60))
    r = draw(st.sampled_from([r for r in range(1, q) if math.gcd(q, r) == 1]))
    return ResidueClass(q, r)


def trial_division(lo, hi):
    cand = np.arange(lo, hi + 1, dtype=np.int64)
    keep = cand >= 2
    for p in DIVISORS:
        if p * p > hi:
            break
        keep &= (cand % p != 0) | (cand == p)
    return cand[keep].tolist()


class TestDifferential:
    """Wheel sieve against trial division over random intervals."""

    @settings(max_examples=300, deadline=None)
    @given(lo=starts, width=widths)
    def test_sieve_interval_small(self, lo, width):
        hi = lo + width
        got = sieve_interval(lo, hi)
        assert got.dtype == np.int64
        assert got.tolist() == [p for p in SMALL if lo <= p <= hi]

    @settings(max_examples=100, deadline=None)
    @given(lo=st.integers(1, 10**10 - 3_000), width=widths, with_base=st.booleans())
    def test_sieve_interval_large(self, lo, width, with_base):
        hi = lo + width
        base = base_primes(math.isqrt(hi)) if with_base else None
        assert sieve_interval(lo, hi, base).tolist() == trial_division(lo, hi)

    @settings(max_examples=100, deadline=None)
    @given(n=st.integers(0, 1999))
    def test_base_primes(self, n):
        got = base_primes(n)
        assert got.dtype == np.int64
        assert got.tolist() == small_primes(n)

    @settings(max_examples=150, deadline=None)
    @given(seg_len=st.integers(2, 4_000), data=st.data())
    def test_base_primes_in_segments(self, seg_len, data):
        # at most 300 segments, so that each example stays fast
        k = data.draw(st.integers(0, min(300, 10**5 // seg_len)))
        n = data.draw(st.one_of(st.integers(0, 53), st.integers(0, min(10**5, 300 * seg_len)),
                                st.sampled_from([-1, 0, 1]).map(lambda d: max(0, k * seg_len + d))))
        with mock.patch.object(sieve, "DEFAULT_SEGMENT_LENGTH", seg_len):
            got = base_primes(n)
        assert got.dtype == np.int64
        assert got.tolist() == trial_division(1, n)

    @settings(max_examples=100, deadline=None)
    @given(cls=residue_classes(), lo=starts, width=widths,
           seg_len=st.integers(2, 4_000), threads=st.integers(1, 3))
    def test_iter_prime_segments(self, cls, lo, width, seg_len, threads):
        hi = lo + width
        segs = segment_primes(lo, hi, seg_len, threads)
        assert len(segs) == -(-(width + 1) // seg_len)
        assert all(seg.dtype == np.int64 for seg in segs)
        assert [p for seg in segs for p in seg.tolist()] == trial_division(lo, hi)
        got = [p for seg in segs for p in seg.compress(seg % cls.q == cls.r).tolist()]
        want = trial_division_primes_in_class(cls.q, cls.r, hi)
        assert got == [p for p in want.tolist() if p >= lo]


PERIOD = 2 * 3 * 5 * 7 * 11 * 13  # the numbers one period of the first pattern spans
WIDE = 10**6  # lo bound for wide intervals, so trial division stays cheap


def check_against_trial_division(lo, hi, with_base):
    base = base_primes(math.isqrt(hi)) if with_base else None
    assert sieve_interval(lo, hi, base).tolist() == trial_division(lo, hi)


ROOT = math.isqrt(MAX_SIEVE_BOUND)  # 5 (mod 6)
PRESTRUCK = math.prod(small_primes(47)[2:])  # 5 * 7 * ... * 47, struck by the patterns
WHEEL = st.tuples(st.integers(3, (ROOT + 1) // 6), st.sampled_from([-1, 1])).map(
    lambda t: 6 * t[0] + t[1])  # numbers from 17 up, coprime to 6


def first_strikes(lo, p):
    """Wheel indices of p's first multiples p * m >= max(p^2, lo) with m = 1, 5 (mod 6).

    In Python ints, counted from 6 * (lo // 6).
    """
    got = []
    for c in (1, 5):
        m = -(-max(p * p, lo) // p)
        m += (c - m) % 6
        got.append((p * m - lo // 6 * 6) // 3)
    return got


def check_first_strikes(lo, ps):
    got = sieve._first_strikes(lo, np.array(ps, dtype=np.int64)).tolist()
    want = [first_strikes(lo, p) for p in ps]
    assert got == [w[0] for w in want] + [w[1] for w in want]


def wheel_numbers(lo, hi):
    """The numbers the wheel mask of [lo, hi] stands for, entry by entry."""
    return [6 * b + c for b in range(lo // 6, hi // 6 + 1) for c in (1, 5)]


class TestPreSievedMask:
    """The pre-sieved wheel mask and its vectorized first strikes.

    Intervals cross several pattern periods, start at and next to their
    bounds, and hold the pre-struck primes 5 to 47 themselves.
    """

    def test_every_small_interval(self):
        for lo in range(1, 61):
            for hi in range(lo, 61):
                assert sieve_interval(lo, hi).tolist() == [p for p in SMALL if lo <= p <= hi]

    @settings(max_examples=25, deadline=None)
    @given(lo=st.integers(1, WIDE), width=st.integers(2 * PERIOD, 10**5),
           with_base=st.booleans())
    def test_wide_intervals(self, lo, width, with_base):
        check_against_trial_division(lo, lo + width, with_base)

    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, WIDE // PERIOD), shift=st.integers(-2, 2),
           width=st.one_of(widths, st.integers(PERIOD, 10**5)), with_base=st.booleans())
    def test_starts_at_period_bounds(self, k, shift, width, with_base):
        check_against_trial_division(k * PERIOD + shift, k * PERIOD + shift + width,
                                     with_base)

    @settings(max_examples=40, deadline=None)
    @given(k=st.integers(WIDE // PERIOD, 10**10 // PERIOD), shift=st.integers(-2, 2),
           width=widths, with_base=st.booleans())
    def test_starts_at_far_period_bounds(self, k, shift, width, with_base):
        check_against_trial_division(k * PERIOD + shift, k * PERIOD + shift + width,
                                     with_base)

    @settings(max_examples=40, deadline=None)
    @given(lo=st.sampled_from([1, 2, 3, 9, 13, 15, 17, 29, 47, 49, 53]),
           width=st.one_of(widths, st.integers(0, 10**5)), with_base=st.booleans())
    def test_low_starts(self, lo, width, with_base):
        check_against_trial_division(lo, lo + width, with_base)

    @settings(max_examples=150, deadline=None)
    # k = 0..8 are the 6-blocks of 1..53, where the readout adds 2..47 from its table
    @given(k=st.one_of(st.integers(0, 8), st.integers(0, 10**9)), lo_res=st.integers(0, 5),
           blocks=st.one_of(st.integers(0, 3), st.integers(0, 2_000)),
           hi_res=st.integers(0, 5), seg_blocks=st.integers(0, 400),
           seg_res=st.integers(1, 5), threads=st.integers(1, 3), with_base=st.booleans())
    def test_every_residue_of_lo_and_hi(self, k, lo_res, blocks, hi_res, seg_blocks,
                                        seg_res, threads, with_base):
        lo, hi = 6 * k + lo_res, 6 * (k + blocks) + hi_res
        assume(1 <= lo <= hi)
        want = trial_division(lo, hi)
        base = base_primes(math.isqrt(hi)) if with_base else None
        assert sieve_interval(lo, hi, base).tolist() == want
        assert len(sieve._strike(lo, hi, base_primes(math.isqrt(hi)))) == \
            2 * (hi // 6 - lo // 6 + 1)
        # segments that are not whole 6-blocks, so each starts at another residue
        segs = segment_primes(lo, hi, 6 * seg_blocks + seg_res, threads)
        assert [p for seg in segs for p in seg.tolist()] == want

    @settings(max_examples=200, deadline=None)
    @given(lo=st.integers(1, 10**12),
           ps=st.lists(WHEEL.filter(lambda p: p <= 10**6), min_size=1, max_size=20))
    def test_first_strikes_exact(self, lo, ps):
        check_first_strikes(lo, ps)

    @settings(max_examples=200, deadline=None)
    @given(lo=st.integers(0, 10**12).map(lambda k: MAX_SIEVE_BOUND - k),
           ps=st.lists(WHEEL.filter(lambda p: p <= ROOT), min_size=1, max_size=20))
    def test_first_strikes_near_the_ceiling(self, lo, ps):
        check_first_strikes(lo, ps)

    def test_first_strikes_at_the_ceiling(self):
        ps = [17, 19, ROOT - 6, ROOT - 4, ROOT]
        for lo in [MAX_SIEVE_BOUND - k for k in range(6)] + [ROOT * ROOT + k for k in (-6, 0, 6)]:
            check_first_strikes(lo, ps)

    @pytest.mark.parametrize("group", sieve._GROUPS)
    def test_pattern_is_the_gcd_table(self, group):
        pattern = dict(zip(sieve._GROUPS, sieve._PATTERNS))[group]
        wheel = np.array(wheel_numbers(0, 12 * math.prod(group) - 1))  # two periods
        assert wheel.size == pattern.size
        assert pattern.dtype == bool
        assert np.array_equal(pattern, np.gcd(wheel, math.prod(group)) == 1)

    def test_strike_value_is_a_read_only_false(self):
        assert sieve._FALSE.shape == () and sieve._FALSE.dtype == bool
        assert not sieve._FALSE
        with pytest.raises(ValueError, match="read-only"):
            sieve._FALSE[()] = True

    @settings(max_examples=60, deadline=None)
    @given(lo=st.integers(0, 10**4).map(lambda k: MAX_SIEVE_BOUND - k),
           width=st.one_of(st.sampled_from([0, 1, 2]), st.integers(0, 300)),
           ps=st.lists(WHEEL.filter(lambda p: p <= ROOT), max_size=20),
           chunk=st.integers(1, 7))
    def test_strike_near_the_ceiling(self, lo, width, ps, chunk):
        # base primes near the ceiling run to 3.04e9, too many to sieve here;
        # the mask is checked against the patterns' strikes of the multiples
        # of 5..47 and the strikes of the given numbers only, most of which
        # start past its end. Chunks of 1..7 base primes make the strike
        # take several passes over them.
        hi = min(lo + width, MAX_SIEVE_BOUND)
        base = np.array(sorted({17, 19, 23, 29, *ps}), dtype=np.int64)
        with mock.patch.object(sieve, "_STRIKE_CHUNK", chunk):
            mask = sieve._strike(lo, hi, base)
        assert len(mask) == 2 * (hi // 6 - lo // 6 + 1)
        want = [lo <= w <= hi and math.gcd(w, PRESTRUCK) == 1
                and all(w % p for p in base.tolist()) for w in wheel_numbers(lo, hi)]
        assert mask.tolist() == want
        assert sieve._read_out(lo, hi, mask).tolist() == [
            w for w, keep in zip(wheel_numbers(lo, hi), want) if keep]

    def test_strike_memory_is_bounded_by_the_chunk(self):
        # one pass over all 78,498 base primes below 1e6 held 10.8 MiB
        # traced in first strikes and their lists; chunks of 2^14 hold 2.8
        hi = 10**12
        lo = hi - sieve.DEFAULT_SEGMENT_LENGTH + 1
        base = base_primes(math.isqrt(hi))
        tracemalloc.start()
        try:
            mask = sieve._strike(lo, hi, base)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 2**20
        with mock.patch.object(sieve, "_STRIKE_CHUNK", base.size):  # one pass
            assert np.array_equal(mask, sieve._strike(lo, hi, base))


class TestReadOutFromBlockZero:
    """The struck mask holds no number below 53 but possibly 1, a readout
    with lo <= 47 puts the primes below 53 in front from one table, and
    base_primes strikes [1, L] one segment at a time."""

    @settings(max_examples=100, deadline=None)
    @given(lo=st.integers(1, 53), width=st.one_of(st.integers(0, 60), st.integers(0, 20_000)),
           seg_len=st.integers(2, 4_000), threads=st.integers(1, 3), with_base=st.booleans())
    def test_small_primes_in_front(self, lo, width, seg_len, threads, with_base):
        hi = lo + width
        want = trial_division(lo, hi)
        check_against_trial_division(lo, hi, with_base)
        assert base_primes(hi).tolist() == trial_division(1, hi)
        segs = segment_primes(lo, hi, seg_len, threads)
        assert [p for seg in segs for p in seg.tolist()] == want

    def test_strike_sets_nothing_below_53(self):
        # the readout alone adds the primes below 53: of the entries there the
        # strike may leave only the one for 1 set, which the readout drops
        for lo in range(1, 54):
            for hi in (lo, lo + 5, 53, 200):
                mask = sieve._strike(lo, hi, base_primes(math.isqrt(hi)))
                set_below = [w for w, keep in zip(wheel_numbers(lo, hi), mask.tolist())
                             if keep and w < 53]
                assert set_below in ([], [1]), (lo, hi)

    def test_no_mask_longer_than_a_segment(self, monkeypatch):
        seg_len = 2**12
        presieved, sizes = sieve._presieved, []

        def spy(b, n):
            sizes.append(n)
            return presieved(b, n)

        monkeypatch.setattr(sieve, "_presieved", spy)
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", seg_len)
        got = base_primes(10**6)
        assert got.size == 78_498 and got[-1] == 999_983  # pi(1e6), the last prime
        assert len(sizes) >= 10**6 // seg_len
        # seg_len numbers touch at most seg_len // 6 + 2 6-blocks
        assert max(sizes) <= 2 * (seg_len // 6 + 2)


# the bounds of the 49 segments of [1, 1e5] that TestBoundedWorkers streams
STREAM_BOUNDS = {(a, min(a + 2**11 - 1, 10**5)) for a in range(1, 10**5 + 1, 2**11)}


class TestBoundedWorkers:
    """threads=64 starts at most one helper thread and holds two segments.

    49 segments of 2^11 numbers. Peaks are sampled in the readouts and at
    every yielded segment; a segment is in flight from the start of its
    strike until the consumer has taken it and asks for the next one.
    """

    @pytest.mark.parametrize("cpus", [None, 1, 3])
    def test_threads_and_segments_in_flight(self, cpus, monkeypatch):
        if cpus is not None:
            monkeypatch.setattr(sieve, "_usable_cpus", lambda: cpus)
        cap = sieve._usable_cpus()
        inner, strike = sieve.sieve_interval, sieve._strike
        calls = {"strikes": 0, "readouts": 0}
        peak = {"threads": 0, "in_flight": 0}

        def traced_strike(lo, hi, base):
            # a segment's strike, told from the base primes' strikes by its bounds
            calls["strikes"] += (lo, hi) in STREAM_BOUNDS
            return strike(lo, hi, base)

        def traced(*args):
            calls["readouts"] += 1
            peak["threads"] = max(peak["threads"], threading.active_count())
            return inner(*args)

        monkeypatch.setattr(sieve, "_strike", traced_strike)
        monkeypatch.setattr(sieve, "sieve_interval", traced)
        before = threading.active_count()
        got = []
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", 2**11)
        for done, seg in enumerate(iter_prime_segments(1, 10**5, threads=64)):
            peak["threads"] = max(peak["threads"], threading.active_count())
            peak["in_flight"] = max(peak["in_flight"], calls["strikes"] - done)
            got.extend(seg.tolist())
        assert got == small_primes(10**5)
        assert calls["readouts"] == 49
        assert peak["threads"] - before <= (1 if cap > 1 else 0)
        assert peak["in_flight"] <= 2

    @pytest.mark.parametrize("threads", [1, 2])
    def test_first_segment_holds_no_bounds_ahead(self, threads, monkeypatch):
        # a list of every segment's bounds to 1e12 held 61.9 MiB traced
        monkeypatch.setattr(sieve, "_usable_cpus", lambda: 2)
        tracemalloc.start()
        try:
            stream = iter_prime_segments(1, 10**12, threads=threads)
            first = next(stream)
            peak = tracemalloc.get_traced_memory()[1]
            stream.close()
        finally:
            tracemalloc.stop()
        assert first[-1] < sieve.DEFAULT_SEGMENT_LENGTH < first[-1] + 100
        assert peak < 16 * 2**20

    def test_consumer_strikes_and_helper_reads_out(self, monkeypatch):
        monkeypatch.setattr(sieve, "_usable_cpus", lambda: 2)
        inner, strike = sieve.sieve_interval, sieve._strike
        strikers, readers = set(), set()

        def traced_strike(*args):
            strikers.add(threading.get_ident())
            return strike(*args)

        def traced(*args):
            readers.add(threading.get_ident())
            return inner(*args)

        monkeypatch.setattr(sieve, "_strike", traced_strike)
        monkeypatch.setattr(sieve, "sieve_interval", traced)
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", 2**11)
        got = [p for seg in iter_prime_segments(1, 10**5, threads=2) for p in seg.tolist()]
        assert got == small_primes(10**5)
        assert strikers == {threading.get_ident()}
        assert len(readers) == 1 and readers != strikers

    def test_readout_exception_reaches_the_consumer(self, monkeypatch):
        monkeypatch.setattr(sieve, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", 2**11)
        inner = sieve.sieve_interval
        calls = []

        def failing(*args):
            calls.append(args)
            if len(calls) == 3:
                raise ArithmeticError("readout 3 failed")
            return inner(*args)

        monkeypatch.setattr(sieve, "sieve_interval", failing)
        before = threading.active_count()
        got = []
        with pytest.raises(ArithmeticError, match="^readout 3 failed$"):
            for seg in iter_prime_segments(1, 10**5, threads=2):
                got.append(seg)
        assert len(got) == 2  # the two segments read out before the failure
        assert threading.active_count() == before

    def test_break_stops_and_joins_the_helper(self, monkeypatch):
        monkeypatch.setattr(sieve, "_usable_cpus", lambda: 2)
        monkeypatch.setattr(sieve, "DEFAULT_SEGMENT_LENGTH", 2**11)
        inner, strike = sieve.sieve_interval, sieve._strike
        calls = {"strikes": 0, "readouts": 0}

        def traced_strike(lo, hi, base):
            calls["strikes"] += (lo, hi) in STREAM_BOUNDS
            return strike(lo, hi, base)

        def traced(*args):
            calls["readouts"] += 1
            return inner(*args)

        monkeypatch.setattr(sieve, "_strike", traced_strike)
        monkeypatch.setattr(sieve, "sieve_interval", traced)
        before = threading.active_count()
        stream = iter_prime_segments(1, 10**5, threads=2)
        for seg in stream:
            assert threading.active_count() == before + 1
            break
        submitted = calls["strikes"]
        stream.close()
        assert threading.active_count() == before
        # segments 1 and 2 were in flight at the break; nothing after them
        assert submitted == calls["strikes"] == calls["readouts"] == 2
        assert seg.tolist() == small_primes(2**11)
