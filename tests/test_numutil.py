import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from apgaps import numutil
from apgaps.numutil import (
    LI_AT_2,
    PI2_INV,
    TWIN_PRIME_CONSTANT,
    gap_admissible,
    lcm2,
    log_integral,
    log_integral_many,
    totient,
    twin_prime_constant,
)

from _oracles import scalar_li, small_primes, trial_division_primes_in_class


def mp_li(x: float) -> float:
    mpmath.mp.dps = 30
    return float(mpmath.li(x))


class TestPrimeFactors:
    def test_matches_division_by_small_primes(self):
        primes = small_primes(5000)
        for n in range(1, 5001):
            assert numutil._prime_factors(n) == [p for p in primes if n % p == 0], n

    @pytest.mark.parametrize("n,want", [
        (2**40, [2]),
        (9973**2, [9973]),
        (2**5 * 3 * 101 * 9973, [2, 3, 101, 9973]),
        (1_000_000_007, [1_000_000_007]),
        (2 * 1_000_000_007, [2, 1_000_000_007]),
        (3**3 * 65_537 * 1_000_003, [3, 65_537, 1_000_003]),
    ])
    def test_large(self, n, want):
        assert numutil._prime_factors(n) == want


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

    def test_modulus_bound(self):
        # above the bound it raises before trial division, which would run
        # about 1.5e9 Python steps on the prime 2^63 - 25
        assert totient(numutil.MAX_MODULUS) == 4 * 10**11
        assert lcm2(numutil.MAX_MODULUS) == numutil.MAX_MODULUS
        for q in (numutil.MAX_MODULUS + 1, 2**63 - 25):
            with pytest.raises(ValueError, match="q <= 1000000000000"):
                totient(q)
            with pytest.raises(ValueError, match="q <= 1000000000000"):
                lcm2(q)


class TestLcm2:
    def test_two(self):
        assert lcm2(2) == 2

    def test_even(self):
        assert lcm2(6) == 6

    def test_odd(self):
        assert lcm2(211) == 422


class TestGapAdmissible:
    @settings(max_examples=60, deadline=None)
    @given(q=st.integers(2, 60), x=st.integers(1, 20_000))
    @example(q=3, x=20_000)  # 2 -> 5, the odd gap of 2 mod 3
    def test_every_naive_gap_is_admissible(self, q, x):
        # with its class every gap passes; without, all but the odd gap from 2
        for r in range(1, q):
            if math.gcd(r, q) != 1:
                continue
            primes = trial_division_primes_in_class(q, r, x)
            for start, d in zip(primes[:-1].tolist(), np.diff(primes).tolist()):
                assert gap_admissible(d, q, r), (q, r, start, d)
                assert gap_admissible(d, q) == (start != 2), (q, r, start, d)

    def test_odd_multiple_of_q_only_in_the_class_of_two(self):
        assert gap_admissible(3, 3, 2) and not gap_admissible(3, 3, 1)
        assert not gap_admissible(3, 3) and gap_admissible(6, 3)
        assert not gap_admissible(2, 4, 1) and gap_admissible(4, 4, 1)


class TestLogIntegral:
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

    def test_strictly_increasing(self):
        xs = [2.0, 5.0, 100.0, 1e4, 1e8, 1e12]
        vals = [log_integral(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    @settings(max_examples=100, deadline=None)
    @given(st.floats(min_value=0.0, max_value=2.0, exclude_max=True))
    @example(0.0)
    @example(1.0)
    @example(math.nextafter(2.0, 0.0))
    def test_domain_starts_at_two(self, x):
        # li is evaluated on [2, inf) only; li(2) is the constant, bit for bit
        with pytest.raises(ValueError, match="finite x >= 2"):
            log_integral(x)
        with pytest.raises(ValueError, match="finite x >= 2"):
            log_integral_many([10.0, x])
        assert log_integral(2.0) == LI_AT_2
        assert log_integral_many([2.0, 2, 3.0])[:2].tolist() == [LI_AT_2] * 2

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


# points of li's whole domain up to 2^64, li(2) included
li_domain = st.floats(min_value=2.0, max_value=2.0**64)


class TestLogIntegralMany:
    def test_near_two(self):
        xs = [ulps_from(2.0, k) for k in (1, 2, 3, 40)]
        assert_batch_exact(xs + [2.0, 2.5, 3.0])

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
        xs = np.concatenate([rng.uniform(2.0, 1e4, 40), np.exp(rng.uniform(1.0, 43.0, 60))])
        want = [scalar_li(x) for x in xs]
        # three integrals per chunk at the first level, one from the second on
        monkeypatch.setattr(numutil, "_CHUNK_NODES", 3 * 8 * 32)
        assert log_integral_many(xs).tolist() == want

    def test_chunk_below_one_row_exact(self, monkeypatch):
        # 100 nodes is under one 8-panel row (256 nodes): each pass holds one
        # row, and the buffer grows as the panels double; 2^63 - 1 runs a
        # third level
        rng = np.random.default_rng(20261019)
        xs = [2**63 - 1, 10**18 + 9, 2**62, 3.0, 5e7 + 3] + \
            np.exp(rng.uniform(1.0, 43.6, 20)).tolist()
        want = [scalar_li(x) for x in xs]
        passes = []
        quad = numutil._panel_quad_inv_log

        def spy(edges, buf):
            passes.append((len(edges), buf.size))
            return quad(edges, buf)

        monkeypatch.setattr(numutil, "_CHUNK_NODES", 100)
        monkeypatch.setattr(numutil, "_panel_quad_inv_log", spy)
        assert log_integral_many(xs).tolist() == want
        assert {rows for rows, _ in passes} == {1}
        assert sorted({size for _, size in passes}) == [256, 512, 1024]

    @pytest.mark.parametrize("chunk_nodes", [None, 3 * 8 * 32 + 100])
    def test_rows_not_dividing_chunk_exact(self, chunk_nodes, monkeypatch):
        # 301 rows against 128 per chunk at the first level (default), or
        # 7 rows against 3 then 1 per chunk
        rng = np.random.default_rng(17)
        n = 301 if chunk_nodes is None else 7
        xs = np.exp(rng.uniform(0.7, 43.6, n)).tolist()
        xs[n // 2] = 2**63 - 1
        want = [scalar_li(x) for x in xs]
        if chunk_nodes is not None:
            monkeypatch.setattr(numutil, "_CHUNK_NODES", chunk_nodes)
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
        assert PI2_INV == 1.0 / TWIN_PRIME_CONSTANT
        assert abs(TWIN_PRIME_CONSTANT * PI2_INV - 1.0) < 1e-12

    def test_ranges(self):
        assert 0.6601 < TWIN_PRIME_CONSTANT < 0.6602

    def test_li_offset(self):
        assert LI_AT_2 == pytest.approx(mp_li(2.0), rel=1e-15)

    def test_gauss_legendre_table_is_leggauss(self):
        # the literal half-table and its mirror, bit for bit
        nodes, weights = np.polynomial.legendre.leggauss(32)
        assert numutil._GL_NODES.dtype == numutil._GL_WEIGHTS.dtype == np.float64
        assert numutil._GL_NODES.tobytes() == nodes.tobytes()
        assert numutil._GL_WEIGHTS.tobytes() == weights.tobytes()
