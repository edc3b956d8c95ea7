import math

import numpy as np
import pytest

from apgaps.gapscan import GapEvent, scan, scan_many
from apgaps.numutil import log_integral, totient
from apgaps.sieve import ResidueClass
from apgaps.trend import (
    DEFAULT_PREDICTOR_BOUNDS,
    PredictorBounds,
    TrendParams,
    avg_gap,
    baseline_trend,
    baseline_trend_expanded,
    default_params,
    first_occurrence_bounds,
    fo_trend,
    inverse_limit_probe,
    maximal_trend,
    predict_first_occurrence,
    rescale,
    rescale_many,
    trend_points,
)

E_HALF_INV = math.exp(-0.5)


class TestAvgGap:
    def test_q2_formula(self):
        x = math.exp(10)
        assert avg_gap(2, x) == pytest.approx(x / log_integral(x), rel=1e-12)

    def test_ratio_to_phi_logx(self):
        val = avg_gap(2, 1e12) / (1 * math.log(1e12))
        assert 0.8 < val < 1.0

    def test_proportional_to_totient(self):
        x = 1e8
        assert avg_gap(211, x) == pytest.approx(210 * avg_gap(2, x), rel=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            avg_gap(2, 2.0)


class TestBaselineTrend:
    def test_forms_agree_at_example(self):
        a6 = baseline_trend(211, 1e10)
        a7 = baseline_trend_expanded(211, 1e10)
        assert a7 == pytest.approx(a6, rel=1e-9)

    def test_forms_agree_on_grid(self):
        for q in (2, 5, 211, 10**5):
            for x in (1e3, 1e5, 1e7, 1e10, 1e14):
                a = avg_gap(q, x)
                if log_integral(x) / a <= 1.0:
                    continue  # trend undefined this early for this q
                assert baseline_trend_expanded(q, x) == pytest.approx(
                    baseline_trend(q, x), rel=1e-9)

    def test_csg_style_bound(self):
        assert baseline_trend(211, 1e10) / (210 * math.log(1e10) ** 2) < 1

    def test_small_x_value(self):
        a = avg_gap(2, 100)
        li100 = log_integral(100)
        assert li100 == pytest.approx(30.126, abs=5e-3)
        assert baseline_trend(2, 100) == pytest.approx(a * math.log(li100 / a), rel=1e-12)

    def test_domain_error(self):
        # li(x)/a <= 1 for huge q at small x
        with pytest.raises(ValueError):
            baseline_trend(10**5, 1e3)


class TestMaximalTrend:
    def test_q2_equals_baseline(self):
        for x in (10.0, 1e6, 1e12):
            assert maximal_trend(2, x) == baseline_trend(2, x)

    def test_arithmetic_at_example(self):
        x = 1e10
        t0 = baseline_trend(211, x)
        corr = 4 * math.log(210) / math.log(math.log(x)) ** 2.7 * avg_gap(211, x)
        assert maximal_trend(211, x) == pytest.approx(t0 + corr, rel=1e-12)

    def test_at_least_baseline(self):
        for q in (2, 6, 211):
            for x in (1e6, 1e8, 1e12):
                assert maximal_trend(q, x) >= baseline_trend(q, x)

    def test_domain(self):
        with pytest.raises(ValueError):
            maximal_trend(211, math.e)


class TestFoTrend:
    def test_sign_flip(self):
        p = default_params(211)
        x_star = math.exp(math.exp(p.c0 / p.c1))
        a_lo = fo_trend(211, x_star * 0.5, p) - baseline_trend(211, x_star * 0.5)
        a_hi = fo_trend(211, x_star * 2.0, p) - baseline_trend(211, x_star * 2.0)
        assert a_lo > 0 > a_hi

    def test_q211_constants(self):
        p = default_params(211)
        assert p.c0 == pytest.approx(2.18 * math.log(422) ** 0.58, rel=1e-12)
        assert p.c1 == pytest.approx(1.18 * math.log(422) ** 0.364, rel=1e-12)

    def test_q2_at_1e10(self):
        x = 1e10
        a = avg_gap(2, x)
        ef = fo_trend(2, x) - baseline_trend(2, x)
        assert ef == pytest.approx((3 - 1.58 * math.log(math.log(x))) * a, rel=1e-12)
        assert ef < 0
        assert ef / a == pytest.approx(-1.95, abs=0.02)

    def test_eventually_below_baseline(self):
        p = default_params(6)
        for x in (1e10, 1e13):
            if math.log(math.log(x)) > p.c0 / p.c1:
                assert fo_trend(6, x, p) < baseline_trend(6, x)


class TestDefaultParams:
    def test_q2(self):
        p = default_params(2)
        assert (p.c0, p.c1) == (3.0, 1.58)
        assert p.b1 == 0.0  # forces the maximal correction to vanish
        assert not p.extrapolated

    def test_prime_q(self):
        p = default_params(11)
        assert p.c0 == pytest.approx(2.18 * math.log(22) ** 0.58, rel=1e-12)
        assert p.b1 == 4.0 and p.b2 == 2.7
        assert not p.extrapolated

    def test_even_semiprime_matches_prime(self):
        assert default_params(22).c0 == default_params(11).c0
        assert default_params(22).c1 == default_params(11).c1

    def test_uncovered_q_marked(self):
        for q in (9, 12, 100):
            p = default_params(q)
            assert p.extrapolated
            assert p.source == "default_formula"

    def test_small_cases_not_covered_by_formula(self):
        # q=3 is prime but below 5; q=4 is an even semiprime but below 10
        assert default_params(3).extrapolated
        assert default_params(4).extrapolated

    def test_params_validation(self):
        with pytest.raises(ValueError):
            TrendParams(b1=-1.0, b2=2.7, c0=3.0, c1=1.58)
        with pytest.raises(ValueError):
            TrendParams(b1=4.0, b2=0.0, c0=3.0, c1=1.58)


class TestRescale:
    def test_on_trend_zero(self):
        cls = ResidueClass(2, 1)
        p = default_params(2)
        x = 10**8 + 7
        d = fo_trend(2, x, p)
        ev = GapEvent(start_prime=x - int(d), end_prime=x, size=int(d),
                      is_maximal=False, is_first_occurrence=True,
                      maximal_index=None, fo_index=9, csg=0.5)
        u = rescale(ev, cls, p)
        # size is the integer truncation of the trend, so |u| < 1/a
        assert abs(u) <= 1.0 / avg_gap(2, x) + 1e-12

    def test_linearity(self):
        cls = ResidueClass(6, 1)
        p = default_params(6)
        base = GapEvent(start_prime=9973 - 36, end_prime=9973, size=36,
                        is_maximal=False, is_first_occurrence=True,
                        maximal_index=None, fo_index=3, csg=0.1)
        shifted = GapEvent(start_prime=9973 - 48, end_prime=9973, size=48,
                           is_maximal=False, is_first_occurrence=True,
                           maximal_index=None, fo_index=4, csg=0.1)
        du = rescale(shifted, cls, p) - rescale(base, cls, p)
        assert du == pytest.approx(12 / avg_gap(6, 9973), rel=1e-12)

    @pytest.mark.slow
    def test_desk_median(self, desk211):
        p = default_params(211)
        u = [rescale(ev, desk211[r].cls, p)
             for r in range(1, 211) for ev in desk211[r].events
             if 10**7 <= ev.end_prime <= 10**9]
        med = float(np.median(np.asarray(u)))
        assert -1.0 <= med <= 2.0


@pytest.fixture(scope="module")
def events211():
    """(r, event) for every event mod 211 ending in [1e5, 1e6]."""
    results = scan_many(211, list(range(1, 211)), 10**6)
    return [(r, ev) for r in range(1, 211) for ev in results[r].events
            if 10**5 <= ev.end_prime]


class TestRescaleMany:
    def test_equals_rescale_exactly(self, events211):
        p = default_params(211)
        u = rescale_many(211, [ev.end_prime for _, ev in events211],
                         [ev.size for _, ev in events211], p)
        assert len(events211) > 1000
        assert u.tolist() == [rescale(ev, ResidueClass(211, r), p)
                              for r, ev in events211]

    def test_equals_scalar_trend_formula(self, events211):
        # the definition rescale had before li was batched
        for q, params in ((211, default_params(211)), (211, None),
                          (2, TrendParams(b1=0.0, b2=2.7, c0=2.5, c1=1.2))):
            picked = [ev for _, ev in events211[::50]]
            u = rescale_many(q, [ev.end_prime for ev in picked],
                             [ev.size for ev in picked], params)
            assert u.tolist() == [
                (ev.size - fo_trend(q, ev.end_prime, params)) / avg_gap(q, ev.end_prime)
                for ev in picked]

    def test_empty(self):
        assert rescale_many(211, [], []).shape == (0,)

    def test_domain(self):
        with pytest.raises(ValueError):
            rescale_many(2, [101, 2], [2, 2])  # x <= e
        with pytest.raises(ValueError):
            rescale_many(10**5, [10**6, 1009], [2, 2])  # li(x)/a <= 1
        with pytest.raises(ValueError):
            rescale_many(211, [10**6], [2, 4])


class TestTrendPoints:
    def test_matches_scalar_trends_and_skips_undefined(self):
        p = default_params(211)
        xs = [2, 3, 1009, 10007, 10**5 + 3, 10**6 + 3, 10**9 + 7]
        want = []
        for x in xs:
            try:
                want.append((x, baseline_trend(211, x), fo_trend(211, x, p)))
            except ValueError:
                continue
        assert 0 < len(want) < len(xs)
        assert trend_points(211, xs, p) == want


class TestTrendRatios:
    def test_trends_over_phi_log2(self):
        # all three trends, normalized by phi log^2 x, sit in (0, 1.2]
        # and drift upward over the window
        for q in (2, 211):
            phi = totient(q)
            series = []
            for x in (1e6, 1e10, 1e14):
                denom = phi * math.log(x) ** 2
                trio = (baseline_trend(q, x) / denom,
                        maximal_trend(q, x) / denom,
                        fo_trend(q, x) / denom)
                for v in trio:
                    assert 0 < v <= 1.2
                series.append(trio[0])
            assert series[-1] > series[0]


class TestPredictor:
    def test_exponent_one(self):
        for q in (2, 6, 211):
            d = totient(q)
            assert predict_first_occurrence(d, q) == pytest.approx(
                math.sqrt(d) * math.e, rel=1e-12)

    def test_d100_q2(self):
        assert predict_first_occurrence(100, 2) == pytest.approx(
            10 * math.exp(10), rel=1e-12)

    def test_frozen_ratio_at_1e12(self):
        # the limit 0.60653 is approached from below much too slowly for the
        # ratio to be anywhere near it at 1e12; these are the true values
        r2 = inverse_limit_probe(2, [1e12])[0]
        r211 = inverse_limit_probe(211, [1e12])[0]
        assert r2 == pytest.approx(0.4505989136209722, rel=1e-9)
        assert r211 == pytest.approx(0.2247358778969604, rel=1e-9)

    def test_overflow_guard(self):
        assert predict_first_occurrence(10**9, 2) == math.inf

    def test_bounds(self):
        lo, hi = first_occurrence_bounds(100, 2)
        center = predict_first_occurrence(100, 2)
        assert lo == pytest.approx(0.1 * center, rel=1e-12)
        assert hi == pytest.approx(10 * center, rel=1e-12)

    def test_bounds_validation(self):
        with pytest.raises(ValueError):
            PredictorBounds(2.0, 1.0)
        assert DEFAULT_PREDICTOR_BOUNDS.c_lower == 0.1
        assert DEFAULT_PREDICTOR_BOUNDS.c_upper == 10.0


class TestInverseLimitProbe:
    def test_monotone_approach_q2(self):
        r = inverse_limit_probe(2, [1e6, 1e9, 1e12])
        assert r[0] < r[1] < r[2] < E_HALF_INV

    def test_gap_to_limit_shrinks(self):
        for q in (2, 211):
            r = inverse_limit_probe(q, [1e6, 1e9, 1e12])
            assert abs(r[2] - E_HALF_INV) < abs(r[0] - E_HALF_INV)

    def test_limit_constant(self):
        assert E_HALF_INV == pytest.approx(0.60653, abs=5e-6)
