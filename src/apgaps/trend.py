"""Growth trends of record gaps, rescaling, and the first-occurrence predictor.

All trends are expressed through the expected average gap
a(q, x) = x phi(q) / li(x) and the baseline
T0(q, x) = a log(li(x) / a), with additive corrections for maximal gaps
(positive, decaying like 1/(log log x)^b2) and first occurrences
(c0 - c1 log log x times a, changing sign as x grows).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .numutil import lcm2, log_integral, log_integral_many, totient
from .sieve import ResidueClass

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
            raise ValueError("b1 must be nonnegative")
        if self.b2 <= 0:
            raise ValueError("b2 must be positive")
        if self.source not in ("default_formula", "user_supplied", "fitted"):
            raise ValueError(f"unknown parameter source {self.source!r}")


@dataclass(frozen=True)
class PredictorBounds:
    c_lower: float = 0.1
    c_upper: float = 10.0

    def __post_init__(self) -> None:
        if not 0 < self.c_lower < self.c_upper:
            raise ValueError("need 0 < c_lower < c_upper")


DEFAULT_PREDICTOR_BOUNDS = PredictorBounds()


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def default_params(q: int) -> TrendParams:
    """Built-in trend parameters for modulus q.

    q = 2 has its own fitted pair (c0, c1) = (3, 1.58) and no maximal
    correction (b1 = 0, since log phi(2) = 0 anyway). Primes q >= 5 and
    even semiprimes q = 2p >= 10 use the fitted power laws in log lcm(2, q);
    any other q gets the same formulas with the extrapolated flag raised.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if q == 2:
        return TrendParams(b1=0.0, b2=2.7, c0=3.0, c1=1.58)
    lg = math.log(lcm2(q))
    covered = (q >= 5 and _is_prime(q)) or (
        q >= 10 and q % 2 == 0 and (q // 2) % 2 == 1 and _is_prime(q // 2)
    )
    return TrendParams(
        b1=4.0,
        b2=2.7,
        c0=2.18 * lg**0.58,
        c1=1.18 * lg**0.364,
        extrapolated=not covered,
    )


def _check_domain(q: int, x: float) -> None:
    if q < 2:
        raise ValueError("q must be at least 2")
    if not x > 2:
        raise ValueError("avg_gap needs x > 2")


# The trend formulas proper, with li(x) passed in so batches can evaluate it
# once for all points (numutil.log_integral_many).


def _avg_gap(phi: int, x: float, li_x: float) -> float:
    return x * phi / li_x


def _baseline_trend(q: int, phi: int, x: float, li_x: float) -> float:
    a = _avg_gap(phi, x, li_x)
    ratio = li_x / a
    if ratio <= 1.0:
        raise ValueError(f"baseline trend undefined at q={q}, x={x}: li(x)/a <= 1")
    return a * math.log(ratio)


def _fo_trend(q: int, phi: int, x: float, li_x: float, params: TrendParams) -> float:
    t0 = _baseline_trend(q, phi, x, li_x)
    return t0 + (params.c0 - params.c1 * math.log(math.log(x))) * _avg_gap(phi, x, li_x)


def avg_gap(q: int, x: float) -> float:
    """Expected average gap a(q, x) = x phi(q) / li(x); needs x > 2."""
    _check_domain(q, x)
    return _avg_gap(totient(q), x, log_integral(x))


def baseline_trend(q: int, x: float) -> float:
    """T0(q, x) = a log(li(x)/a); defined while li(x)/a > 1."""
    _check_domain(q, x)
    return _baseline_trend(q, totient(q), x, log_integral(x))


def baseline_trend_expanded(q: int, x: float) -> float:
    """Algebraically equal form (x phi/li x)(2 log(li x/phi) - log(x/phi))."""
    if q < 2:
        raise ValueError("q must be at least 2")
    if not x > 2:
        raise ValueError("needs x > 2")
    phi = totient(q)
    li_x = log_integral(x)
    val = (x * phi / li_x) * (2.0 * math.log(li_x / phi) - math.log(x / phi))
    if val <= 0:
        raise ValueError(f"baseline trend undefined at q={q}, x={x}")
    return val


def maximal_trend(q: int, x: float, params: Optional[TrendParams] = None) -> float:
    """Trend of maximal gaps: T0 plus b1 log(phi) / (log log x)^b2 times a."""
    if not x > E:
        raise ValueError("maximal_trend needs x > e")
    if params is None:
        params = default_params(q)
    t0 = baseline_trend(q, x)
    correction = params.b1 * math.log(totient(q)) / math.log(math.log(x)) ** params.b2
    return t0 + correction * avg_gap(q, x)


def fo_trend(q: int, x: float, params: Optional[TrendParams] = None) -> float:
    """Trend of first-occurrence gaps: T0 plus (c0 - c1 log log x) times a."""
    if not x > E:
        raise ValueError("fo_trend needs x > e")
    if params is None:
        params = default_params(q)
    return _fo_trend(q, totient(q), x, log_integral(x), params)


def rescale(event, cls: ResidueClass, params: Optional[TrendParams] = None) -> float:
    """Reduce a gap event to u = (d - T_f(q, x)) / a(q, x) at x = end prime.

    One event; rescale_many does a whole sample with li(x) batched and gives
    the same bits.
    """
    return float(rescale_many(cls.q, [event.end_prime], [event.size], params)[0])


def rescale_many(q: int, end_primes: Sequence[int], sizes: Sequence[int],
                 params: Optional[TrendParams] = None) -> np.ndarray:
    """u = (d - T_f(q, x)) / a(q, x) for each gap d ending at prime x.

    li(x) is evaluated for all end primes in one vectorized pass; entry i is
    bit-identical to rescale on that event alone.
    """
    if len(end_primes) != len(sizes):
        raise ValueError("need one size per end prime")
    if q < 2:
        raise ValueError("q must be at least 2")
    for x in end_primes:
        if not x > E:
            raise ValueError("fo_trend needs x > e")
    if params is None:
        params = default_params(q)
    phi = totient(q)
    li = log_integral_many(end_primes).tolist()
    return np.array([(d - _fo_trend(q, phi, x, li_x, params)) / _avg_gap(phi, x, li_x)
                     for x, d, li_x in zip(end_primes, sizes, li)], dtype=np.float64)


def trend_points(q: int, xs: Sequence[int],
                 params: Optional[TrendParams] = None) -> list[tuple[int, float, float]]:
    """(x, T0(q, x), T_f(q, x)) for each x > e where the trends are defined.

    li(x) is evaluated for all points in one vectorized pass; points where
    li(x)/a <= 1 are left out.
    """
    if q < 2:
        raise ValueError("q must be at least 2")
    if params is None:
        params = default_params(q)
    phi = totient(q)
    xs = [x for x in xs if x > E]
    out = []
    for x, li_x in zip(xs, log_integral_many(xs).tolist()):
        try:
            out.append((x, _baseline_trend(q, phi, x, li_x),
                        _fo_trend(q, phi, x, li_x, params)))
        except ValueError:
            continue  # trend undefined this early
    return out


def predict_first_occurrence(d: float, q: int) -> float:
    """Predictor sqrt(d) * exp(sqrt(d / phi(q))) for where gap d first appears.

    Evaluated in log space; returns math.inf instead of overflowing once
    sqrt(d/phi(q)) passes 700.
    """
    if d < 1:
        raise ValueError("d must be at least 1")
    if q < 2:
        raise ValueError("q must be at least 2")
    root = math.sqrt(d / totient(q))
    t = 0.5 * math.log(d) + root
    if root > 700.0 or t > 709.0:
        return math.inf
    return math.exp(t)


def first_occurrence_bounds(
    d: float, q: int, bounds: PredictorBounds = DEFAULT_PREDICTOR_BOUNDS
) -> tuple[float, float]:
    """Companion interval [c_lower * P, c_upper * P] around the predictor."""
    p = predict_first_occurrence(d, q)
    return bounds.c_lower * p, bounds.c_upper * p


def inverse_limit_probe(q: int, x_values: Sequence[float]) -> list[float]:
    """Ratios P(T0(q, x), q) / x; they drift toward e^{-1/2} = 0.60653 as x grows."""
    out = []
    for x in x_values:
        out.append(predict_first_occurrence(baseline_trend(q, x), q) / x)
    return out
