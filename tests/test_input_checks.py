"""Library input checks: each row is a call with one argument out of range
and the exception it must raise. The rows ending in "-d_inadmissible" give
a gap size that returns 0 without work, to show that every check runs
before that shortcut. An argument check raises InputError, a ValueError;
a computed value that fails (an overflow, a degenerate sample) raises
something else, and so do the sample checks of evstats, whose samples are
often computed values.

Each rule has one owner: the modulus rule (sieve.check_modulus), the bound
rule (sieve.check_bound), the residue rule (ResidueClass), the class cap
(gapscan.check_classes) and the gap-size rule (numutil.check_gap), whose
integer half every caller but predict_first_occurrence applies. Moduli,
bounds, residues and those gap sizes must be integers.
test_rule_has_one_owner calls every caller of each rule and checks that it
refuses with the owner's own message."""

import math
import tracemalloc
from unittest import mock

import pytest

from apgaps import brun, evstats, gapscan, numutil, sieve, trend
from apgaps.gapscan import MAX_CLASSES
from apgaps.sieve import MAX_MODULUS, InputError, ResidueClass

C6 = ResidueClass(6, 1)


def _unsieved(call):
    """call, run with a sieve that fails the test if it is started."""
    def run():
        with mock.patch.object(sieve, "iter_prime_segments",
                               side_effect=AssertionError("the sieve was started")):
            return call()
    return run


def _unsieved_small(call):
    """_unsieved(call), which also fails the test at a traced peak of 16 MB."""
    def run():
        tracemalloc.start()
        try:
            return _unsieved(call)()
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert peak < 16 << 20, f"traced peak of {peak} bytes"
    return run


CHECKS = [
    # brun
    ("singular_product-d0", lambda: brun.singular_product(0), InputError),
    ("empirical_singular_mean-q0", lambda: brun.empirical_singular_mean(0, 1, 5), InputError),
    ("empirical_singular_mean-negative_r", lambda: brun.empirical_singular_mean(6, -1, 5),
     InputError),
    ("empirical_singular_mean-n0", lambda: brun.empirical_singular_mean(6, 1, 0), InputError),
    ("empirical_singular_mean-q_float", lambda: brun.empirical_singular_mean(6.0, 1, 5),
     InputError),
    ("empirical_singular_mean-r_float", lambda: brun.empirical_singular_mean(6, 1.5, 5),
     InputError),
    ("empirical_singular_mean-n_float", lambda: brun.empirical_singular_mean(6, 1, 5.0),
     InputError),
    ("mean_singular_product-q0", lambda: brun.mean_singular_product(0, 0), InputError),
    ("mean_singular_product-r_is_q", lambda: brun.mean_singular_product(10, 10), InputError),
    ("mean_singular_product-q_float", lambda: brun.mean_singular_product(7.5, 1), InputError),
    ("mean_singular_product-r_float", lambda: brun.mean_singular_product(30, 3.5), InputError),
    ("empirical_singular_mean-past_int64", lambda: brun.empirical_singular_mean(10**18, 1, 10),
     InputError),
    ("brun_growth-d0", lambda: brun.brun_growth(0, C6, [100]), InputError),
    ("brun_growth-no_checkpoints", lambda: brun.brun_growth(6, C6, []), InputError),
    ("brun_growth-checkpoint0", lambda: brun.brun_growth(6, C6, [0, 100]), InputError),
    ("brun_estimate-d0", lambda: brun.brun_estimate(0, 6), InputError),
    ("brun_estimate-q1", lambda: brun.brun_estimate(2, 1), InputError),
    ("brun_estimate-x1", lambda: brun.brun_estimate(2, 6, 1.0), InputError),
    ("brun_estimate-x1-d_inadmissible", lambda: brun.brun_estimate(3, 6, 1.0), InputError),
    ("brun_estimate-x_nan", lambda: brun.brun_estimate(2, 2, math.nan), InputError),
    ("brun_estimate-q_above_cap-d_inadmissible", lambda: brun.brun_estimate(3, 10**12 + 1),
     InputError),
    ("brun_growth-checkpoint0-d_inadmissible", lambda: brun.brun_growth(9, C6, [0, 100]),
     InputError),
    ("tau_estimate-x100-d_inadmissible", lambda: brun.tau_estimate(9, C6, 100), InputError),
    ("tau_estimate-d0", lambda: brun.tau_estimate(0, C6, 1e4), InputError),
    ("tau-d0", lambda: brun.tau(C6, 0, 100), InputError),
    ("tau-x0-d_inadmissible", lambda: brun.tau(C6, 9, 0), InputError),
    ("tau_estimate-x_nan", lambda: brun.tau_estimate(6, C6, math.nan), InputError),
    ("first_occurrence_log_exact-d0", lambda: brun.first_occurrence_log_exact(0, 6),
     InputError),
    ("first_occurrence_log_exact-q1", lambda: brun.first_occurrence_log_exact(6, 1),
     InputError),
    ("first_occurrence_log_exact-q_above_cap",
     lambda: brun.first_occurrence_log_exact(2, MAX_MODULUS + 1), InputError),
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
    ("scan_many-x0", lambda: gapscan.scan_many(6, [1], 0), InputError),
    ("scan_many-no_classes", lambda: gapscan.scan_many(6, [], 10**4), InputError),
    ("gap_size_counts-x0", lambda: gapscan.gap_size_counts(C6, 0), InputError),
    # 100002 classes of the prime 100003, refused before any is sieved
    ("scan_many-too_many_classes",
     _unsieved(lambda: gapscan.scan_many(100003, range(1, 100003), 10)), InputError),
    # refused at the first distinct residue past the cap, before the rest is read
    ("scan_many-3000016_classes",
     _unsieved_small(lambda: gapscan.scan_many(3_000_017, range(1, 3_000_017), 10)), InputError),
    ("scan_many-10**9_residues",
     _unsieved_small(lambda: gapscan.scan_many(3_000_017, range(1, 10**9), 10)), InputError),
    ("check_classes-above_cap", lambda: gapscan.check_classes(range(MAX_CLASSES + 1)),
     InputError),
    ("interval_record_table-j0", lambda: gapscan.interval_record_table(6, 0), InputError),
    ("interval_record_table-q_float", lambda: gapscan.interval_record_table(6.0, 1),
     InputError),
    # phi(q) = 999999999988 classes, refused before the coprime list is built
    ("interval_record_table-too_many_classes",
     lambda: gapscan.interval_record_table(999999999989, 1), InputError),
    # numutil
    ("twin_prime_constant-cutoff2", lambda: numutil.twin_prime_constant(2), InputError),
    ("totient-q0", lambda: numutil.totient(0), InputError),
    ("totient-q_float", lambda: numutil.totient(7.5), InputError),
    ("lcm2-q_float", lambda: numutil.lcm2(6.5), InputError),
    ("lcm2-q_above_cap", lambda: numutil.lcm2(MAX_MODULUS + 1), InputError),
    ("log_integral-x_below_2", lambda: numutil.log_integral(1.5), InputError),
    ("log_integral_many-x_inf", lambda: numutil.log_integral_many([3.0, math.inf]), InputError),
    # sieve
    ("ResidueClass-q1", lambda: ResidueClass(1, 0), InputError),
    ("ResidueClass-q_2_41", lambda: ResidueClass(2**41, 1), InputError),
    ("ResidueClass-q_above_cap", lambda: ResidueClass(MAX_MODULUS + 1, 1), InputError),
    ("sieve_interval-lo0", lambda: sieve.sieve_interval(0, 5), InputError),
    ("sieve_interval-hi_below_lo", lambda: sieve.sieve_interval(7, 5), InputError),
    ("prime_count-x0", lambda: sieve.prime_count(C6, 0), InputError),
    ("count_all_primes-x0", lambda: sieve.count_all_primes(0), InputError),
    # trend
    ("TrendParams-source", lambda: trend.TrendParams(b1=4.0, b2=2.7, c0=1.0, c1=1.0,
                                                     source="x"), InputError),
    ("default_params-q1", lambda: trend.default_params(1), InputError),
    ("default_params-q_above_cap", lambda: trend.default_params(MAX_MODULUS + 1), InputError),
    ("avg_gap-q1", lambda: trend.avg_gap(1, 10), InputError),
    ("avg_gap-x_inf", lambda: trend.avg_gap(6, math.inf), InputError),
    ("inverse_limit_probe-x2", lambda: trend.inverse_limit_probe(2, [1e6, 2]), InputError),
    ("inverse_limit_probe-t0_below_1", lambda: trend.inverse_limit_probe(2, [2.5]), ValueError),
    ("baseline_trend-a_overflows", lambda: trend.baseline_trend(211, 1e306), OverflowError),
    ("fo_trend-x_below_e", lambda: trend.fo_trend(6, 2.5), InputError),
    ("fo_trend-q1", lambda: trend.fo_trend(1, 10, trend.default_params(2)), InputError),
    ("rescale_many-q1", lambda: trend.rescale_many(1, [11], [2]), InputError),
    ("trend_points-q1", lambda: trend.trend_points(1, [11]), InputError),
    ("predict_first_occurrence-d0", lambda: trend.predict_first_occurrence(0, 6), InputError),
    ("predict_first_occurrence-q1", lambda: trend.predict_first_occurrence(6, 1), InputError),
    ("predict_first_occurrence-nan", lambda: trend.predict_first_occurrence(math.nan, 2),
     InputError),
    ("first_occurrence_bounds-nan", lambda: trend.first_occurrence_bounds(math.nan, 2),
     InputError),
]


@pytest.mark.parametrize("call,exc", [row[1:] for row in CHECKS], ids=[row[0] for row in CHECKS])
def test_bad_input_raises(call, exc):
    with pytest.raises(exc) as got:
        call()
    # a row that names a plain ValueError is a failed computation, not bad input
    assert (got.type is InputError) == (exc is InputError)


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
        "tau": lambda x: brun.tau(C6, 6, x),
        "prime_count": lambda x: sieve.prime_count(C6, x),
        "count_all_primes": sieve.count_all_primes,
        "brun_growth": lambda x: brun.brun_growth(6, C6, [x, 100]),
    }),
    "gap": (numutil.check_gap, (0, -2, math.nan), 6, {
        "tau": lambda d: brun.tau(C6, d, 100),
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
    # the residues 1..n of the prime 100003
    "classes": (gapscan.check_classes, (range(1, MAX_CLASSES + 2),), range(1, MAX_CLASSES + 1), {
        "scan_many": lambda rs: gapscan.scan_many(100003, rs, 10),
    }),
    # every gap caller but predict_first_occurrence, which takes a real d
    "integer_gap": (numutil.check_gap, (6.5,), 6, {
        "tau": lambda d: brun.tau(C6, d, 100),
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
        with pytest.raises(InputError) as got:
            call(value)
        with pytest.raises(InputError) as want:
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
