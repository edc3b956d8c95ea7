"""Library input checks: each row is a call with one argument out of range
and the exception it must raise. The rows ending in "-d_inadmissible" give
a gap size that returns 0 without work, to show that every check runs
before that shortcut.

Each rule has one owner: the modulus rule (sieve.check_modulus), the bound
rule (sieve.check_bound), the residue rule (ResidueClass) and the gap-size
rule (numutil.check_gap), whose integer half every caller but
predict_first_occurrence applies. Moduli, bounds, residues and those gap
sizes must be integers. test_rule_has_one_owner calls every caller of each
rule and checks that it refuses with the owner's own message."""

import math

import pytest

from apgaps import brun, evstats, gapscan, numutil, sieve, trend
from apgaps.sieve import MAX_MODULUS, ResidueClass

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
    ("brun_estimate-x_nan", lambda: brun.brun_estimate(2, 2, math.nan), ValueError),
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
    ("first_occurrence_log_exact-q_above_cap",
     lambda: brun.first_occurrence_log_exact(2, MAX_MODULUS + 1), ValueError),
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
    ("interval_record_table-q_float", lambda: gapscan.interval_record_table(6.0, 1),
     ValueError),
    # phi(q) = 999999999988 classes, refused before the coprime list is built
    ("interval_record_table-too_many_classes",
     lambda: gapscan.interval_record_table(999999999989, 1), ValueError),
    # numutil
    ("twin_prime_constant-cutoff2", lambda: numutil.twin_prime_constant(2), ValueError),
    # sieve
    ("ResidueClass-q1", lambda: ResidueClass(1, 0), ValueError),
    ("ResidueClass-q_2_41", lambda: ResidueClass(2**41, 1), ValueError),
    ("ResidueClass-q_above_cap", lambda: ResidueClass(MAX_MODULUS + 1, 1), ValueError),
    ("sieve_interval-lo0", lambda: sieve.sieve_interval(0, 5), ValueError),
    ("prime_count-x0", lambda: sieve.prime_count(C6, 0), ValueError),
    ("count_all_primes-x0", lambda: sieve.count_all_primes(0), ValueError),
    # trend
    ("TrendParams-source", lambda: trend.TrendParams(b1=4.0, b2=2.7, c0=1.0, c1=1.0,
                                                     source="x"), ValueError),
    ("default_params-q1", lambda: trend.default_params(1), ValueError),
    ("default_params-q_above_cap", lambda: trend.default_params(MAX_MODULUS + 1), ValueError),
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


# Each rule: its owner, the values it refuses, a value it accepts, and every
# caller of the owner, as a call of the one argument the rule checks.
RULES = {
    "modulus": (sieve.check_modulus, (1, MAX_MODULUS + 1, 6.0), MAX_MODULUS, {
        "ResidueClass": lambda q: ResidueClass(q, 1),
        "default_params": trend.default_params,
        "_points": lambda q: trend.avg_gap(q, 10),
        "predict_first_occurrence": lambda q: trend.predict_first_occurrence(6, q),
        "brun_estimate": lambda q: brun.brun_estimate(2, q),
        "first_occurrence_log_exact": lambda q: brun.first_occurrence_log_exact(6, q),
        "scan_many": lambda q: gapscan.scan_many(q, [1], 100),
    }),
    # 100.5 is brun_growth's largest checkpoint, which it checks as well
    "bound": (sieve.check_bound, (0, -5, 100.5), 1, {
        "scan_many": lambda x: gapscan.scan_many(6, [1], x),
        "gap_size_counts": lambda x: gapscan.gap_size_counts(C6, x),
        "tau": lambda x: gapscan.tau(C6, 6, x),
        "prime_count": lambda x: sieve.prime_count(C6, x),
        "count_all_primes": sieve.count_all_primes,
        "brun_growth": lambda x: brun.brun_growth(6, C6, [x, 100]),
    }),
    "gap": (numutil.check_gap, (0, -2, math.nan), 6, {
        "tau": lambda d: gapscan.tau(C6, d, 100),
        "singular_product": brun.singular_product,
        "brun_growth": lambda d: brun.brun_growth(d, C6, [100]),
        "brun_estimate": lambda d: brun.brun_estimate(d, 6),
        "tau_estimate": lambda d: brun.tau_estimate(d, C6, 1e4),
        "first_occurrence_log_exact": lambda d: brun.first_occurrence_log_exact(d, 6),
        "predict_first_occurrence": lambda d: trend.predict_first_occurrence(d, 6),
    }),
    "residue": (lambda r: ResidueClass(6, r), (0, 6, 2, 1.5), 5, {
        "ResidueClass": lambda r: ResidueClass(6, r),
        "scan_many": lambda r: gapscan.scan_many(6, [r], 100),
    }),
    # every gap caller but predict_first_occurrence, which takes a real d
    "integer_gap": (numutil.check_gap, (6.5,), 6, {
        "tau": lambda d: gapscan.tau(C6, d, 100),
        "singular_product": brun.singular_product,
        "brun_growth": lambda d: brun.brun_growth(d, C6, [100]),
        "brun_estimate": lambda d: brun.brun_estimate(d, 6),
        "tau_estimate": lambda d: brun.tau_estimate(d, C6, 1e4),
        "first_occurrence_log_exact": lambda d: brun.first_occurrence_log_exact(d, 6),
    }),
}
CALLERS = [(rule, name, call) for rule, (*_, calls) in RULES.items()
           for name, call in calls.items()]


@pytest.mark.parametrize("rule,call", [(rule, call) for rule, _, call in CALLERS],
                         ids=[f"{rule}-{name}" for rule, name, _ in CALLERS])
def test_rule_has_one_owner(rule, call):
    """Every caller refuses with the owner's own message and passes what it accepts."""
    owner, refused, accepted, _ = RULES[rule]
    for value in refused:
        with pytest.raises(ValueError) as got:
            call(value)
        with pytest.raises(ValueError) as want:
            owner(value)
        assert str(got.value) == str(want.value)
    call(accepted)


def test_predict_first_occurrence_takes_a_real_gap():
    # probe passes the trend value T0 as d
    assert trend.predict_first_occurrence(6.5, 6) == math.exp(0.5 * math.log(6.5)
                                                              + math.sqrt(6.5 / 2))


def test_first_occurrence_bound_violation_is_reported():
    # a fifth first occurrence of size 2 breaks n <= S(n); not maximal, so
    # only the first-occurrence envelope is checked
    ev = gapscan.GapEvent(start_prime=101, end_prime=103, size=2, is_maximal=False,
                          maximal_index=None, fo_index=5, csg=0.0)
    result = gapscan.ScanResult(cls=ResidueClass(2, 1), x_max=103, events=[ev],
                                n_maximal=0, n_first_occurrence=1)
    assert gapscan.check_record_bounds(result) == [("first_occurrence", 5, 2)]
