import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from apgaps import numutil
from apgaps.numutil import (
    CONSTANTS,
    LI_AT_2,
    lcm2,
    log_integral,
    log_integral_many,
    totient,
    twin_prime_constant,
)

from _oracles import scalar_li


def mp_li(x: float) -> float:
    mpmath.mp.dps = 30
    return float(mpmath.li(x))


class TestTotient:
    def test_one(self):
        assert totient(1) == 1

    def test_prime(self):
        assert totient(211) == 210

    def test_composite(self):
        assert totient(30) == 8

    def test_multiplicative(self):
        rng = random.Random(20260816)
        checked = 0
        while checked < 50:
            m = rng.randrange(2, 1000)
            n = rng.randrange(2, 1000)
            if math.gcd(m, n) != 1 or m * n >= 10**6:
                continue
            assert totient(m * n) == totient(m) * totient(n)
            checked += 1

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            totient(0)


class TestLcm2:
    def test_two(self):
        assert lcm2(2) == 2

    def test_even(self):
        assert lcm2(6) == 6

    def test_odd(self):
        assert lcm2(211) == 422


class TestLogIntegral:
    def test_zero(self):
        assert log_integral(0) == 0.0

    def test_at_two(self):
        assert log_integral(2) == pytest.approx(LI_AT_2, rel=1e-14)

    def test_at_1e6(self):
        # adaptive quadrature oracle; pi(1e6) = 78498 is within 150
        assert log_integral(10**6) == pytest.approx(78627.54915946218, rel=1e-12)
        assert abs(log_integral(10**6) - 78498) < 150

    def test_diverges_at_one(self):
        with pytest.raises(ValueError):
            log_integral(1.0)

    @pytest.mark.parametrize("x", [math.inf, math.nan, -1.0])
    def test_rejects_non_finite_and_negative(self, x):
        with pytest.raises(ValueError):
            log_integral(x)

    @pytest.mark.parametrize("x", [3.0, 10.0, 100.0, 1e4, 1e6, 1e8, 1e10, 1e12, 1e14])
    def test_against_mpmath(self, x):
        assert log_integral(x) == pytest.approx(mp_li(x), rel=1e-10)

    def test_below_two_against_mpmath(self):
        for x in (0.5, 1.5, 1.9):
            assert log_integral(x) == pytest.approx(mp_li(x), rel=1e-8)

    def test_strictly_increasing(self):
        xs = [1.1, 1.5, 2.0, 5.0, 100.0, 1e4, 1e8, 1e12]
        vals = [log_integral(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_pnt_ratio(self):
        for x in (1e4, 1e6, 1e9, 1e12):
            ratio = log_integral(x) / (x / math.log(x))
            assert 0.9 < ratio < 1.2


def ulps_from(x: float, k: int) -> float:
    """The float k steps above x (below for k < 0)."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def assert_batch_exact(xs):
    got = log_integral_many(xs)
    assert got.shape == (len(xs),)
    assert got.tolist() == [scalar_li(x) for x in xs]
    assert got.tolist() == [log_integral(x) for x in xs]


# points from each branch of li: [0, 1), (1, 2) and [2, 2^64]
li_domain = st.one_of(
    st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    st.floats(min_value=1.0, max_value=2.0, exclude_min=True),
    st.floats(min_value=2.0, max_value=2.0**64),
)


# quadrature nodes next to t = 1 round onto it for x one ulp from 1
@pytest.mark.filterwarnings("ignore:divide by zero:RuntimeWarning")
class TestLogIntegralMany:
    def test_near_two(self):
        xs = [ulps_from(2.0, k) for k in (-40, -3, -2, -1, 1, 2, 3, 40)]
        assert_batch_exact(xs + [2.0, 2.5, 3.0])

    def test_near_one_and_zero(self):
        # 5e-324 spaces its panels by another formula than the other
        # subnormals, which would change their bits if all shared one call
        xs = [5e-324, 9.44143638583e-313, 3.2094997e-316, 1.3413081e-316, 1e-300,
              0.25, ulps_from(1.0, -1), ulps_from(1.0, 1), 1.5, 0.0]
        assert_batch_exact(xs)

    def test_int64_extremes(self):
        assert_batch_exact([3, 2**53 + 1, 2**62, 2**63 - 1, 10**18 + 9])

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(min_value=3, max_value=2**63 - 1), max_size=30))
    def test_integers_exact(self, xs):
        assert_batch_exact(xs)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(li_domain, max_size=20))
    def test_mixed_magnitudes_exact(self, xs):
        assert_batch_exact(xs)

    def test_many_chunks_exact(self, monkeypatch):
        rng = np.random.default_rng(20261018)
        xs = np.concatenate([rng.uniform(2.0, 1e4, 40), np.exp(rng.uniform(1.0, 43.0, 60)),
                             rng.uniform(0.0, 1.0, 10), rng.uniform(1.0, 2.0, 10)])
        want = [scalar_li(x) for x in xs]
        # three integrals per chunk at the first level, one from the second on
        monkeypatch.setattr(numutil, "_CHUNK_NODES", 3 * 8 * 32)
        assert log_integral_many(xs).tolist() == want

    def test_empty(self):
        assert log_integral_many([]).shape == (0,)

    @pytest.mark.parametrize("bad", [math.inf, math.nan, -0.5, 1.0])
    def test_rejects_bad_point(self, bad):
        with pytest.raises(ValueError):
            log_integral_many([10.0, bad])


class TestTwinPrimeConstant:
    def test_single_factor(self):
        assert twin_prime_constant(3) == 0.75

    def test_two_factors(self):
        assert twin_prime_constant(5) == 0.703125

    def test_converged(self):
        assert twin_prime_constant(10**7) == pytest.approx(0.66016, abs=5e-6)

    def test_decreasing_bounded(self):
        cuts = [3, 5, 11, 101, 1009, 10007]
        vals = [twin_prime_constant(c) for c in cuts]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 0.66 for v in vals)


class TestConstants:
    def test_inverse_pair(self):
        assert abs(CONSTANTS.pi2 * CONSTANTS.pi2_inv - 1.0) < 1e-12

    def test_ranges(self):
        assert 0.6601 < CONSTANTS.pi2 < 0.6602
        assert 0.5772 < CONSTANTS.euler_gamma < 0.5773

    def test_li_offset(self):
        assert CONSTANTS.li_offset == LI_AT_2
