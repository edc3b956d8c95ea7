import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgaps import gapscan, sieve
from apgaps.brun import (
    BrunSum,
    brun_estimate,
    brun_growth,
    brun_partial_sum,
    empirical_singular_mean,
    first_occurrence_log_exact,
    mean_singular_product,
    singular_product,
    tau,
    tau_estimate,
)
from apgaps.gapscan import gap_size_counts
from apgaps.numutil import TWIN_PRIME_CONSTANT, lcm2, totient
from apgaps.sieve import ResidueClass

from _oracles import singular_product_direct, trial_division_primes_in_class


class TestSingularProduct:
    def test_power_of_two(self):
        assert singular_product(8) == 1.0

    def test_six(self):
        assert singular_product(6) == 2.0

    def test_primorial(self):
        assert singular_product(210) == pytest.approx(2 * (4 / 3) * (6 / 5), rel=1e-15)

    @pytest.mark.parametrize("d", [1, 2, 9, 15, 49, 128, 2310, 9999])
    def test_matches_direct_factorization(self, d):
        assert singular_product(d) == pytest.approx(singular_product_direct(d), rel=1e-14)


class TestMeanSingularProduct:
    @pytest.mark.parametrize("q,r,mult", [
        (3, 0, Fraction(3, 2)),
        (3, 1, Fraction(3, 4)),
        (3, 2, Fraction(3, 4)),
        (4, 1, Fraction(1)),
        (4, 3, Fraction(1)),
        (15, 1, Fraction(45, 64)),
        (15, 0, Fraction(15, 8)),
        (30, 3, Fraction(45, 32)),
    ])
    def test_printed_cases_exact(self, q, r, mult):
        sm = mean_singular_product(q, r)
        assert sm.multiplier == mult
        assert sm.value == pytest.approx(float(mult) / TWIN_PRIME_CONSTANT, rel=1e-10)

    def test_weighted_average_identity(self):
        # (1/p) mult(p,0) + ((p-1)/p) mult(p,1) = 1 exactly, every odd prime p <= 50
        for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
            lhs = (Fraction(1, p) * mean_singular_product(p, 0).multiplier
                   + Fraction(p - 1, p) * mean_singular_product(p, 1).multiplier)
            assert lhs == 1

    def test_partition_identity(self):
        # residue-class means average back to the global mean, all q <= 100
        for q in range(1, 101):
            total = sum(mean_singular_product(q, r).multiplier for r in range(q))
            assert total == q

    def test_no_coprimality_requirement(self):
        sm = mean_singular_product(30, 15)
        assert sm.multiplier > 0

    def test_rejects_bad_r(self):
        with pytest.raises(ValueError):
            mean_singular_product(10, 10)


class TestEmpiricalSingularMean:
    def test_single_term(self):
        assert empirical_singular_mean(3, 0, 1) == 2.0  # S(3) alone

    def test_small_n_matches_direct_sum(self):
        # the last three end below 4, where 2 is no base prime of the factor sieve
        for q, r, n in ((6, 1, 500), (15, 4, 500), (4, 0, 500), (2, 0, 1), (1, 1, 2), (1, 0, 3)):
            direct = sum(singular_product_direct(r + k * q) for k in range(1, n + 1)) / n
            assert empirical_singular_mean(q, r, n) == pytest.approx(direct, rel=1e-12)

    def test_converges_to_closed_form(self):
        for q, r in ((2, 0), (15, 1)):
            closed = mean_singular_product(q, r).value
            emp = empirical_singular_mean(q, r, 10**5)
            assert abs(emp - closed) / closed < 0.01

    def test_bombieri_davenport_value(self):
        # progression 2n sweeps all even numbers; mean S -> 1/Pi2 = 1.51478
        assert empirical_singular_mean(2, 0, 10**5) == pytest.approx(1.51478, abs=2e-3)


class TestBrunPartialSum:
    def test_twin_sum_to_13(self):
        bs = brun_partial_sum(2, ResidueClass(2, 1), 13)
        want = (1 / 3 + 1 / 5) + (1 / 5 + 1 / 7) + (1 / 11 + 1 / 13)
        assert bs.partial_sum == pytest.approx(want, rel=1e-15)
        assert bs.pair_count == 3
        # shared middle prime 5 really is counted twice
        assert bs.partial_sum == pytest.approx(1.0440226440226442, rel=1e-12)

    def test_cousin_sum_to_23_skips_nonconsecutive(self):
        # (3,7) is NOT a pair of consecutive primes (5 sits between)
        bs = brun_partial_sum(4, ResidueClass(2, 1), 23)
        want = (1 / 7 + 1 / 11) + (1 / 13 + 1 / 17) + (1 / 19 + 1 / 23)
        assert bs.partial_sum == pytest.approx(want, rel=1e-15)
        assert bs.pair_count == 3

    def test_impossible_size_zero(self):
        bs = brun_partial_sum(9, ResidueClass(6, 5), 10**6)
        assert bs.partial_sum == 0.0 and bs.pair_count == 0

    def test_consecutiveness_against_oracle(self):
        primes = trial_division_primes_in_class(2, 1, 10**5).tolist()
        for d in (2, 4, 6):
            want = 0.0
            count = 0
            for p, pp in zip(primes, primes[1:]):
                if pp - p == d:
                    want += 1 / p + 1 / pp
                    count += 1
            bs = brun_partial_sum(d, ResidueClass(2, 1), 10**5)
            assert bs.partial_sum == pytest.approx(want, rel=1e-12)
            assert bs.pair_count == count

    def test_growth_nondecreasing(self):
        growth = brun_growth(2, ResidueClass(2, 1), [10**3, 10**4, 10**5, 10**6])
        sums = [g.partial_sum for g in growth]
        assert all(a <= b for a, b in zip(sums, sums[1:]))

    def test_growth_matches_single_calls(self):
        xs = [10**3, 10**5]
        growth = brun_growth(6, ResidueClass(6, 1), xs)
        for g, x in zip(growth, xs):
            solo = brun_partial_sum(6, ResidueClass(6, 1), x)
            assert g.partial_sum == solo.partial_sum
            assert g.pair_count == solo.pair_count


def concatenated_growth(primes, d, xs):
    """Checkpoints read from one cumsum over every gap-d pair of the run."""
    p = np.array(primes, dtype=np.int64)
    sel = p[1:] - p[:-1] == d
    ends = p[1:][sel]
    csum = np.cumsum(1.0 / p[:-1][sel] + 1.0 / ends)
    out = []
    for x in xs:
        k = int(np.searchsorted(ends, x, side="right"))
        out.append((float(csum[k - 1]) if k else 0.0, k))
    return out


class TestBoundedGrowth:
    """The carried running sum gives the bits of one cumsum over the run."""

    @settings(max_examples=60, deadline=None)
    @given(d=st.sampled_from([2, 4, 6, 30]), x=st.integers(1, 30_000),
           batch=st.integers(1, 300), threads=st.integers(1, 2), data=st.data())
    def test_bit_equal_to_one_cumsum(self, d, x, batch, threads, data):
        xs = sorted(set(data.draw(st.lists(st.integers(1, x), max_size=5), label="xs"))
                    | {x})
        primes = trial_division_primes_in_class(2, 1, x).tolist()
        with mock.patch.object(gapscan, "_BATCH", batch), \
                mock.patch.object(sieve, "DEFAULT_SEGMENT_LENGTH", max(2, x // 7)):
            got = brun_growth(d, ResidueClass(2, 1), xs, threads=threads)
        assert [(g.partial_sum, g.pair_count) for g in got] == \
            concatenated_growth(primes, d, xs)

    def test_checkpoints_before_first_and_after_last_pair(self):
        # twin pairs up to 100 end at 5, 7, 13, 19, 31, 43, 61 and 73
        xs = [1, 4, 5, 6, 72, 73, 74, 100]
        primes = trial_division_primes_in_class(2, 1, 100).tolist()
        with mock.patch.object(gapscan, "_BATCH", 3):
            got = brun_growth(2, ResidueClass(2, 1), xs)
        assert [(g.partial_sum, g.pair_count) for g in got] == \
            concatenated_growth(primes, 2, xs)
        assert [g.pair_count for g in got] == [0, 0, 1, 1, 7, 8, 8, 8]


class TestBrunEstimate:
    def test_amplitude_q2(self):
        # A = 2 lcm(2,2)/phi(2) = 4; at the x -> infinity limit the estimate
        # is A/d
        assert brun_estimate(4, 2) == pytest.approx(1.0, rel=1e-12)

    def test_amplitude_odd_primes(self):
        for q in (3, 5, 7, 11, 211):
            amp = brun_estimate(1, q) * 1  # d=1 exposes A directly
            assert amp <= 6.0 + 1e-12

    def test_limit_is_sup_of_finite_x(self):
        vals = [brun_estimate(6, 6, x) for x in (10**3, 10**6, 10**9, 10**12)]
        lim = brun_estimate(6, 6)
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < lim
        assert lim - vals[-1] < lim * 0.15

    def test_full_product_variant(self):
        plain = brun_estimate(30, 6, 10**6)
        full = brun_estimate(30, 6, 10**6, full_product=True)
        assert full != plain
        assert full > 0


class TestTauEstimate:
    def test_zero_rule(self):
        cls = ResidueClass(6, 1)
        assert tau_estimate(9, cls, 10**6) == 0.0
        assert tau_estimate(8, cls, 10**6) == 0.0

    def test_quality_at_1e7(self):
        cls = ResidueClass(6, 1)
        counts = gap_size_counts(cls, 10**7)
        for d in (6, 12):
            exact = counts[d]
            est = tau_estimate(d, cls, 10**7)
            assert abs(est - exact) / exact < 0.30

    def test_decreasing_in_d(self):
        cls = ResidueClass(6, 5)
        vals = [tau_estimate(d, cls, 10**8) for d in (6, 12, 18, 24, 60)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_exact_pi_mode_close_to_smooth(self):
        cls = ResidueClass(2, 1)
        smooth = tau_estimate(2, cls, 10**6)
        exact_mode = tau_estimate(2, cls, 10**6, exact_pi=True)
        assert exact_mode == pytest.approx(smooth, rel=0.02)

    def test_x_floor(self):
        with pytest.raises(ValueError):
            tau_estimate(6, ResidueClass(6, 1), 100)


class TestGapRule:
    """One rule, numutil.gap_admissible, decides which gap sizes count."""

    @pytest.mark.parametrize("q", range(2, 31))
    def test_estimates_zero_exactly_off_lcm2(self, q):
        # the class 2 mod q has the odd gap q, but the estimates count
        # recurring gaps only, so they ignore r
        classes = [ResidueClass(q, r) for r in (1, 2) if math.gcd(q, r) == 1]
        for d in range(1, 4 * q + 1):
            off = d % lcm2(q) != 0
            for cls in classes:
                assert (tau_estimate(d, cls, 1e4) == 0.0) == off, (d, cls)
            for est in (brun_estimate(d, q), brun_estimate(d, q, 1e6),
                        brun_estimate(d, q, 1e6, full_product=True)):
                assert (est == 0.0) == off, (d, q)

    @pytest.mark.parametrize("q,r,d", [(4, 1, 2), (3, 1, 3), (6, 5, 9), (6, 5, 10), (7, 3, 7)])
    def test_exact_counts_sieve_nothing_for_inadmissible_d(self, q, r, d, monkeypatch):
        calls = []  # the class-pair stream's sieve calls
        segments = sieve.iter_prime_segments
        monkeypatch.setattr(sieve, "iter_prime_segments",
                            lambda *a, **k: calls.append(a) or segments(*a, **k))
        cls = ResidueClass(q, r)
        assert tau(cls, d, 10**4) == 0
        xs = [10, 100, 10**4]
        assert brun_growth(d, cls, xs) == [
            BrunSum(d=d, cls=cls, x=x, partial_sum=0.0, pair_count=0) for x in xs]
        assert calls == []
        tau(cls, lcm2(q), 10**4)  # an admissible size does sieve
        assert calls


class TestFirstOccurrenceHeuristic:
    def test_exact_root_ratio_tends_to_one(self):
        # t = (log d + sqrt(log^2 d + 4d/phi))/2 vs the approximation
        # t = log(d)/2 + sqrt(d/phi): ratio of predicted locations tends to 1
        gaps = []
        for k in (2, 3, 4, 5, 6):
            d = 10**k
            t_exact = first_occurrence_log_exact(d, 2)
            t_approx = 0.5 * math.log(d) + math.sqrt(d / 1)
            gaps.append(abs(t_exact / t_approx - 1.0))
        assert all(a > b for a, b in zip(gaps, gaps[1:]))
        assert gaps[-1] < 1e-3

    def test_exact_root_at_d_one(self):
        assert first_occurrence_log_exact(1, 2) == pytest.approx(1.0, rel=1e-15)
