"""Record gaps between primes in arithmetic progressions.

The package scans residue classes r mod q for maximal and first-occurrence
prime gaps, rescales them against trend curves, fits extreme-value
distributions to the result, and evaluates the singular-series constants
and Brun-type sums that calibrate the heuristics.
"""

from .brun import (
    BrunSum,
    SingularMean,
    brun_estimate,
    brun_growth,
    brun_partial_sum,
    empirical_singular_mean,
    first_occurrence_heuristic,
    mean_singular_product,
    singular_product,
    tau_estimate,
)
from .evstats import (
    FitConvergenceError,
    GevFit,
    GumbelFit,
    Histogram,
    build_histogram,
    fit_gev,
    fit_gumbel,
    gumbel_cdf,
    ks_statistic,
)
from .gapscan import (
    BudgetExceededError,
    GapEvent,
    ScanResult,
    gap_size_counts,
    interval_record_counts,
    interval_record_table,
    latest_first_occurrence,
    scan,
    scan_many,
    tau,
)
from .numutil import log_integral, log_integral_many, totient, twin_prime_constant
from .sieve import PrimeSegment, ResidueClass, iter_prime_segments, primes_in_class
from .trend import (
    TrendParams,
    avg_gap,
    baseline_trend,
    default_params,
    fo_trend,
    inverse_limit_probe,
    maximal_trend,
    predict_first_occurrence,
    rescale,
    rescale_many,
)

__version__ = "0.1.0"

__all__ = [
    "BrunSum",
    "BudgetExceededError",
    "FitConvergenceError",
    "GapEvent",
    "GevFit",
    "GumbelFit",
    "Histogram",
    "PrimeSegment",
    "ResidueClass",
    "ScanResult",
    "SingularMean",
    "TrendParams",
    "avg_gap",
    "baseline_trend",
    "brun_estimate",
    "brun_growth",
    "brun_partial_sum",
    "build_histogram",
    "default_params",
    "empirical_singular_mean",
    "first_occurrence_heuristic",
    "fit_gev",
    "fit_gumbel",
    "fo_trend",
    "gap_size_counts",
    "gumbel_cdf",
    "interval_record_counts",
    "interval_record_table",
    "inverse_limit_probe",
    "iter_prime_segments",
    "ks_statistic",
    "latest_first_occurrence",
    "log_integral",
    "log_integral_many",
    "maximal_trend",
    "mean_singular_product",
    "predict_first_occurrence",
    "primes_in_class",
    "rescale",
    "rescale_many",
    "scan",
    "scan_many",
    "singular_product",
    "tau",
    "tau_estimate",
    "totient",
    "twin_prime_constant",
]
