"""Growth trends of record gaps, rescaling, and the first-occurrence predictor.

All trends are expressed through the expected average gap
a(q, x) = x phi(q) / li(x) and the baseline
T0(q, x) = a log(li(x) / a), with additive corrections for maximal gaps
(positive, decaying like 1/(log log x)^b2) and first occurrences
(c0 - c1 log log x times a, changing sign as x grows). Every public trend
function reads x, li(x) and a(q, x) from one private evaluator, _points,
which checks q (sieve.check_modulus) and finite x > 2 once and takes li for
all of its points from one numutil.log_integral_many call; _baseline and
_fo hold the two formulas. A point gives the same bits in a batch as alone.
Argument checks raise sieve.InputError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numutil import _prime_factors, check_gap, lcm2, log_integral_many, totient
from .sieve import InputError, ResidueClass, check_modulus

E = math.e


@dataclass(frozen=True)
class TrendParams:
    b1: float
    b2: float
    c0: float
    c1: float
    source: str = "default_formula"  # default_formula | user_supplied | fitted
    extrapolated: bool = False  # c0/c1 formulas applied outside their fitted q family

    def __post_init__(self) -> None:
        if self.b1 < 0:
            raise InputError("b1 must be nonnegative")
        if self.b2 <= 0:
            raise InputError("b2 must be positive")
        if self.source not in ("default_formula", "user_supplied", "fitted"):
            raise InputError(f"unknown parameter source {self.source!r}")


def default_params(q: int) -> TrendParams:
    """Built-in trend parameters for modulus q.

    q = 2 has its own fitted pair (c0, c1) = (3, 1.58) and no maximal
    correction (b1 = 0, since log phi(2) = 0 anyway). Primes q >= 5 and
    even semiprimes q = 2p >= 10 use the fitted power laws in log lcm(2, q);
    any other q gets the same formulas with the extrapolated flag raised.
    """
    check_modulus(q)
    if q == 2:
        return TrendParams(b1=0.0, b2=2.7, c0=3.0, c1=1.58)
    lg = math.log(lcm2(q))
    factors = _prime_factors(q)
    covered = (q >= 5 and factors == [q]) or (q >= 10 and factors == [2, q // 2])
    return TrendParams(
        b1=4.0,
        b2=2.7,
        c0=2.18 * lg**0.58,
        c1=1.18 * lg**0.364,
        extrapolated=not covered,
    )


def _points(q: int, xs: Sequence[float]) -> list[tuple[float, float, float]]:
    """(x, li(x), a(q, x)) for each x, with li taken for all points in one call.

    Every trend below reads li(x) and a = x phi(q) / li(x) from here, so a
    batch costs one numutil.log_integral_many pass and one division per point.
    """
    check_modulus(q)
    if bad := [x for x in xs if not 2 < x < math.inf]:  # NaN fails both
        raise InputError(f"the trends need x > 2 and finite, got {bad[0]}")
    phi = totient(q)
    out = []
    for x, li_x in zip(xs, log_integral_many(xs).tolist()):
        if not math.isfinite(a := x * phi / li_x):  # x * phi past float range
            raise OverflowError(f"a(q, x) = x phi(q) / li(x) overflows at x={x}, phi(q)={phi}")
        out.append((x, li_x, a))
    return out


def _baseline(q: int, x: float, li_x: float, a: float) -> float:
    ratio = li_x / a
    if ratio <= 1.0:
        raise ValueError(f"baseline trend undefined at q={q}, x={x}: li(x)/a <= 1")
    return a * math.log(ratio)


def _fo(q: int, x: float, li_x: float, a: float, params: TrendParams) -> float:
    if not x > E:
        raise InputError("fo_trend needs x > e")
    return _baseline(q, x, li_x, a) + (params.c0 - params.c1 * math.log(math.log(x))) * a


def avg_gap(q: int, x: float) -> float:
    """Expected average gap a(q, x) = x phi(q) / li(x); needs x > 2."""
    return _points(q, [x])[0][2]


def baseline_trend(q: int, x: float) -> float:
    """T0(q, x) = a log(li(x)/a); defined while li(x)/a > 1."""
    return _baseline(q, *_points(q, [x])[0])


def maximal_trend(q: int, x: float, params: Optional[TrendParams] = None) -> float:
    """Trend of maximal gaps: T0 plus b1 log(phi) / (log log x)^b2 times a."""
    if not x > E:
        raise InputError("maximal_trend needs x > e")
    params = params or default_params(q)
    x, li_x, a = _points(q, [x])[0]
    correction = params.b1 * math.log(totient(q)) / math.log(math.log(x)) ** params.b2
    return _baseline(q, x, li_x, a) + correction * a


def fo_trend(q: int, x: float, params: Optional[TrendParams] = None) -> float:
    """Trend of first-occurrence gaps: T0 plus (c0 - c1 log log x) times a."""
    return _fo(q, *_points(q, [x])[0], params or default_params(q))


def rescale(event, cls: ResidueClass, params: Optional[TrendParams] = None) -> float:
    """Reduce a gap event to u = (d - T_f(q, x)) / a(q, x) at x = end prime.

    One event; rescale_many does a whole sample with li(x) batched and gives
    the same bits.
    """
    return float(rescale_many(cls.q, [event.end_prime], [event.size], params)[0])


def rescale_many(q: int, end_primes: Sequence[int], sizes: Sequence[int],
                 params: Optional[TrendParams] = None) -> np.ndarray:
    """u = (d - T_f(q, x)) / a(q, x) for each gap d ending at prime x.

    Entry i is bit-identical to rescale on that event alone.
    """
    if len(end_primes) != len(sizes):
        raise InputError("need one size per end prime")
    params = params or default_params(q)
    return np.array([(d - _fo(q, x, li_x, a, params)) / a
                     for (x, li_x, a), d in zip(_points(q, end_primes), sizes)],
                    dtype=np.float64)


def trend_points(q: int, xs: Sequence[int],
                 params: Optional[TrendParams] = None) -> list[tuple[int, float, float]]:
    """(x, T0(q, x), T_f(q, x)) for each x > e where the trends are defined.

    Points where li(x)/a <= 1 are left out.
    """
    params = params or default_params(q)
    out = []
    for x, li_x, a in _points(q, [x for x in xs if x > E]):
        try:
            out.append((x, _baseline(q, x, li_x, a), _fo(q, x, li_x, a, params)))
        except ValueError:
            continue  # trend undefined this early
    return out


def predict_first_occurrence(d: float, q: int) -> float:
    """Predictor sqrt(d) * exp(sqrt(d / phi(q))) for where gap d first appears.

    Evaluated in log space; returns math.inf instead of overflowing once
    sqrt(d/phi(q)) passes 700.
    """
    check_gap(d, integer=False)
    check_modulus(q)
    try:
        root = math.sqrt(d / totient(q))
    except OverflowError:  # an integer d so large that d / phi(q) is past float range
        return math.inf
    t = 0.5 * math.log(d) + root
    if root > 700.0 or t > 709.0:
        return math.inf
    return math.exp(t)


def first_occurrence_bounds(d: float, q: int) -> tuple[float, float]:
    """Companion interval [0.1 P, 10 P] around the predictor P."""
    p = predict_first_occurrence(d, q)
    return 0.1 * p, 10.0 * p


def inverse_limit_probe(q: int, x_values: Sequence[float]) -> list[float]:
    """Ratios P(T0(q, x), q) / x; they drift toward e^{-1/2} = 0.60653 as x grows."""
    out = []
    for x, li_x, a in _points(q, x_values):
        if (t0 := _baseline(q, x, li_x, a)) < 1:
            raise ValueError(f"probe needs T0(q, x) >= 1, got T0({q}, {x}) = {t0:.6g}")
        out.append(predict_first_occurrence(t0, q) / x)
    return out
