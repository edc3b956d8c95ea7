"""Library input checks: each row is a call with one argument out of range
and the exception it must raise. The rows ending in "-d_inadmissible" give
a gap size that returns 0 without work, to show that every check runs
before that shortcut."""

import math

import pytest

from apgaps import brun, evstats, gapscan, numutil, sieve, trend
from apgaps.sieve import ResidueClass

C6 = ResidueClass(6, 1)

CHECKS = [
    # brun
    ("singular_product-d0", lambda: brun.singular_product(0), ValueError),
    ("empirical_singular_mean-q0", lambda: brun.empirical_singular_mean(0, 1, 5), ValueError),
    ("empirical_singular_mean-negative_r", lambda: brun.empirical_singular_mean(6, -1, 5),
     ValueError),
    ("empirical_singular_mean-n0", lambda: brun.empirical_singular_mean(6, 1, 0), ValueError),
    ("empirical_singular_mean-past_int64", lambda: brun.empirical_singular_mean(10**18, 1, 10),
     OverflowError),
    ("brun_growth-d0", lambda: brun.brun_growth(0, C6, [100]), ValueError),
    ("brun_growth-no_checkpoints", lambda: brun.brun_growth(6, C6, []), ValueError),
    ("brun_growth-checkpoint0", lambda: brun.brun_growth(6, C6, [0, 100]), ValueError),
    ("brun_estimate-d0", lambda: brun.brun_estimate(0, 6), ValueError),
    ("brun_estimate-q1", lambda: brun.brun_estimate(2, 1), ValueError),
    ("brun_estimate-x1", lambda: brun.brun_estimate(2, 6, 1.0), ValueError),
    ("brun_estimate-x1-d_inadmissible", lambda: brun.brun_estimate(3, 6, 1.0), ValueError),
    ("brun_estimate-q_above_cap-d_inadmissible", lambda: brun.brun_estimate(3, 10**12 + 1),
     ValueError),
    ("brun_growth-checkpoint0-d_inadmissible", lambda: brun.brun_growth(9, C6, [0, 100]),
     ValueError),
    ("tau_estimate-x100-d_inadmissible", lambda: brun.tau_estimate(9, C6, 100), ValueError),
    ("tau_estimate-d0", lambda: brun.tau_estimate(0, C6, 1e4), ValueError),
    ("first_occurrence_log_exact-d0", lambda: brun.first_occurrence_log_exact(0, 6),
     ValueError),
    ("first_occurrence_log_exact-q1", lambda: brun.first_occurrence_log_exact(6, 1),
     ValueError),
    # evstats
    ("build_histogram-bins0", lambda: evstats.build_histogram([1.0, 2.0], 0), ValueError),
    ("ks_statistic-empty", lambda: evstats.ks_statistic([], lambda x: x), ValueError),
    ("build_histogram-nan", lambda: evstats.build_histogram([1.0, math.nan, 2.0], 3),
     ValueError),
    ("ks_statistic-nan", lambda: evstats.ks_statistic([math.nan], lambda x: x), ValueError),
    ("fit_gumbel-zero_spread", lambda: evstats.fit_gumbel([1.5] * 10),
     evstats.FitConvergenceError),
    ("fit_gumbel-all_nan", lambda: evstats.fit_gumbel([math.nan] * 20), ValueError),
    ("fit_gumbel-inf", lambda: evstats.fit_gumbel([1.0] * 19 + [math.inf]), ValueError),
    ("fit_gev-nan", lambda: evstats.fit_gev([float(k) for k in range(59)] + [math.nan]),
     ValueError),
    ("fit_hyperbola-nan_means", lambda: evstats.fit_hyperbola([1.0, 2.0, 3.0],
                                                              [0.5, math.nan, 1.0]),
     ValueError),
    ("fit_hyperbola-inf_js", lambda: evstats.fit_hyperbola([1.0, math.inf], [0.5, 1.0]),
     ValueError),
    # gapscan
    ("scan_many-x0", lambda: gapscan.scan_many(6, [1], 0), ValueError),
    ("scan_many-no_classes", lambda: gapscan.scan_many(6, [], 10**4), ValueError),
    ("gap_size_counts-x0", lambda: gapscan.gap_size_counts(C6, 0), ValueError),
    ("tau-d0", lambda: gapscan.tau(C6, 0, 100), ValueError),
    ("tau-x0-d_inadmissible", lambda: gapscan.tau(C6, 9, 0), ValueError),
    ("interval_record_table-j0", lambda: gapscan.interval_record_table(6, 0), ValueError),
    # phi(q) = 999999999988 classes, refused before the coprime list is built
    ("interval_record_table-too_many_classes",
     lambda: gapscan.interval_record_table(999999999989, 1), ValueError),
    # numutil
    ("twin_prime_constant-cutoff2", lambda: numutil.twin_prime_constant(2), ValueError),
    # sieve
    ("ResidueClass-q1", lambda: ResidueClass(1, 0), ValueError),
    ("sieve_interval-lo0", lambda: sieve.sieve_interval(0, 5), ValueError),
    ("prime_count-x0", lambda: sieve.prime_count(C6, 0), ValueError),
    # trend
    ("TrendParams-source", lambda: trend.TrendParams(b1=4.0, b2=2.7, c0=1.0, c1=1.0,
                                                     source="x"), ValueError),
    ("default_params-q1", lambda: trend.default_params(1), ValueError),
    ("avg_gap-q1", lambda: trend.avg_gap(1, 10), ValueError),
    ("baseline_trend-a_overflows", lambda: trend.baseline_trend(211, 1e306), OverflowError),
    ("fo_trend-x_below_e", lambda: trend.fo_trend(6, 2.5), ValueError),
    ("fo_trend-q1", lambda: trend.fo_trend(1, 10, trend.default_params(2)), ValueError),
    ("rescale_many-q1", lambda: trend.rescale_many(1, [11], [2]), ValueError),
    ("trend_points-q1", lambda: trend.trend_points(1, [11]), ValueError),
    ("predict_first_occurrence-d0", lambda: trend.predict_first_occurrence(0, 6), ValueError),
    ("predict_first_occurrence-q1", lambda: trend.predict_first_occurrence(6, 1), ValueError),
    ("predict_first_occurrence-nan", lambda: trend.predict_first_occurrence(math.nan, 2),
     ValueError),
    ("first_occurrence_bounds-nan", lambda: trend.first_occurrence_bounds(math.nan, 2),
     ValueError),
]


@pytest.mark.parametrize("call,exc", [row[1:] for row in CHECKS], ids=[row[0] for row in CHECKS])
def test_bad_input_raises(call, exc):
    with pytest.raises(exc):
        call()


def test_first_occurrence_bound_violation_is_reported():
    # a fifth first occurrence of size 2 breaks n <= S(n); not maximal, so
    # only the first-occurrence envelope is checked
    ev = gapscan.GapEvent(start_prime=101, end_prime=103, size=2, is_maximal=False,
                          maximal_index=None, fo_index=5, csg=0.0)
    result = gapscan.ScanResult(cls=ResidueClass(2, 1), x_max=103, events=[ev],
                                n_maximal=0, n_first_occurrence=1)
    assert gapscan.check_record_bounds(result) == [("first_occurrence", 5, 2)]
