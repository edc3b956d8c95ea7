import math

import numpy as np
import pytest

from apgaps import evstats
from apgaps.evstats import (
    FitConvergenceError,
    build_histogram,
    fit_gev,
    fit_gumbel,
    fit_hyperbola,
    gev_cdf,
    gumbel_cdf,
    gumbel_pdf,
    ks_statistic,
)

from _oracles import gumbel_ppf, gumbel_samples, ks_bruteforce


class TestHistogram:
    def test_basic(self):
        h = build_histogram([0, 1, 2, 3], 2)
        assert list(h.bin_edges) == [0, 1.5, 3]
        assert list(h.counts) == [2, 2]
        assert h.total == 4

    def test_boundary_goes_low_except_max(self):
        h = build_histogram([0.0, 1.5, 3.0], 2)
        # 1.5 sits on the inner edge and joins the lower bin; the max joins
        # the last bin
        assert list(h.counts) == [2, 1]

    def test_degenerate_range(self):
        h = build_histogram([5.0] * 7, 3)
        assert h.total == 7
        assert sum(h.counts) == 7
        assert h.bin_edges[0] < 5.0 < h.bin_edges[-1]

    def test_mass_conserved(self):
        rng = np.random.default_rng(3)
        for n in (1, 10, 997):
            samples = rng.normal(size=n)
            h = build_histogram(samples, 53)
            assert sum(h.counts) == n

    def test_53_bin_reference_width(self):
        # 53 bins spanning a width-12.2 range gives bin size about 0.23
        samples = np.linspace(-3.5, 8.7, 400)
        h = build_histogram(samples, 53)
        width = h.bin_edges[1] - h.bin_edges[0]
        assert width == pytest.approx(12.2 / 53, rel=1e-12)
        assert width == pytest.approx(0.23, abs=0.005)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_histogram([], 5)


class TestGumbelFit:
    def test_recovers_parameters(self):
        rng = np.random.default_rng(20260816)
        fit = fit_gumbel(gumbel_samples(rng, 10**5, 1.0, 0.0))
        assert fit.scale == pytest.approx(1.0, abs=0.02)
        assert fit.mode == pytest.approx(0.0, abs=0.02)
        assert fit.sample_size == 10**5
        assert 0 <= fit.ks <= 1

    def test_affine_equivariance(self):
        rng = np.random.default_rng(11)
        u = gumbel_samples(rng, 5000, 1.0, 0.0)
        base = fit_gumbel(u)
        moved = fit_gumbel(2.5 * u + 7.0)
        assert moved.scale == pytest.approx(2.5 * base.scale, rel=1e-6)
        assert moved.mode == pytest.approx(2.5 * base.mode + 7.0, abs=1e-6)

    def test_consistency_across_sample_sizes(self):
        # estimator error shrinks with n in at least 9 of 10 fixed seeds
        wins = 0
        for seed in range(10):
            small = fit_gumbel(gumbel_samples(
                np.random.default_rng(2 * seed), 10**3, 1.0, 0.0))
            big = fit_gumbel(gumbel_samples(
                np.random.default_rng(2 * seed + 1), 10**5, 1.0, 0.0))
            if abs(big.scale - 1.0) < abs(small.scale - 1.0):
                wins += 1
        assert wins >= 9

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_gumbel([1.0] * 9)

    def test_ks_against_fitted_cdf(self):
        rng = np.random.default_rng(5)
        u = gumbel_samples(rng, 2000, 0.9, 0.3)
        fit = fit_gumbel(u)
        d = ks_statistic(u, lambda x: gumbel_cdf(x, fit.scale, fit.mode))
        assert d == fit.ks

    @staticmethod
    def score(u, alpha):
        w = np.exp(-(u - u.min()) / alpha)
        return u.mean() - (u * w).sum() / w.sum() - alpha

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_heavy_tail_bisects_the_score(self, seed):
        # the damped iteration 2-cycles on these t(3) samples and used to raise
        u = np.random.default_rng(seed).standard_t(3, 5000)
        fit = fit_gumbel(u)
        assert abs(self.score(u, fit.scale)) <= 1e-10 * fit.scale
        # the score falls strictly in alpha: a sign change brackets the root
        assert self.score(u, fit.scale * (1 - 1e-9)) > 0 > self.score(u, fit.scale * (1 + 1e-9))
        want = -fit.scale * math.log(np.exp(-u / fit.scale).mean())
        assert fit.mode == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("seed,scale,mode", [
        (0, 2.4789050323952955, -0.8433686556432014),
        (6, 2.2786430308226695, -0.8258454470025324),
    ])
    def test_converging_iteration_keeps_its_bits(self, seed, scale, mode):
        # t(3) samples the damped iteration settles on, fitted before the
        # bisection fallback existed
        fit = fit_gumbel(np.random.default_rng(seed).standard_t(3, 5000))
        assert (fit.scale, fit.mode) == (scale, mode)


class TestGevFit:
    def test_gumbel_data_near_zero_shape(self):
        rng = np.random.default_rng(77)
        fit = fit_gev(gumbel_samples(rng, 20000, 1.0, 0.0))
        assert -0.05 <= fit.shape <= 0.05
        assert fit.scale == pytest.approx(1.0, abs=0.05)

    def test_bounded_data_negative_shape(self):
        rng = np.random.default_rng(13)
        # negated exponential variates are bounded above: Weibull domain
        fit = fit_gev(-rng.exponential(size=20000))
        assert fit.shape < -0.5

    def test_shape_rounded(self):
        rng = np.random.default_rng(21)
        fit = fit_gev(gumbel_samples(rng, 5000, 1.0, 0.0))
        assert fit.shape == round(fit.shape, 3)

    def test_too_few_samples(self):
        with pytest.raises(ValueError):
            fit_gev(list(range(49)))

    @pytest.mark.parametrize("xi", [0.0, 0.2])
    def test_nonpositive_scale_penalty_steers_back(self, xi):
        # a finite penalty above any admissible NLL, growing with |sigma|
        u = gumbel_samples(np.random.default_rng(5), 200, 1.0, 0.0)
        admissible = evstats._gev_nll(np.array([1.0, 0.0, xi]), u)
        penalties = [evstats._gev_nll(np.array([s, 0.0, xi]), u) for s in (0.0, -0.5, -3.0)]
        assert all(math.isfinite(p) for p in penalties)
        assert admissible < penalties[0] < penalties[1] < penalties[2]


_SAMPLERS = {
    "gumbel": lambda rng, n: gumbel_samples(rng, n, 1.0, 0.0),
    "negexp": lambda rng, n: -rng.exponential(size=n),
    "normal": lambda rng, n: rng.normal(size=n),
    "t3": lambda rng, n: rng.standard_t(3, size=n),
}

# (sampler, n, seed, max_iter); the small max_iter cases stop before converging
_NM_CASES = [
    ("gumbel", 50, 1, 2000), ("gumbel", 1000, 2, 2000), ("gumbel", 20000, 3, 2000),
    ("negexp", 60, 4, 2000), ("negexp", 2000, 5, 2000),
    ("normal", 80, 6, 2000), ("normal", 3000, 7, 2000),
    ("t3", 50, 0, 2000), ("t3", 200, 0, 2000), ("t3", 1000, 0, 2000),
    ("gumbel", 500, 8, 30), ("negexp", 500, 9, 12), ("t3", 200, 0, 15),
]


class TestNelderMeadMatchesScipy:
    """The in-package simplex against scipy's, which serves as the oracle."""

    @staticmethod
    def _scipy(u, x0, max_iter):
        from scipy.optimize import minimize

        return minimize(evstats._gev_nll, x0=x0, args=(u,), method="Nelder-Mead",
                        options={"maxiter": max_iter, "xatol": 1e-9, "fatol": 1e-9})

    @pytest.mark.parametrize("name,n,seed,max_iter", _NM_CASES)
    def test_bit_identical(self, name, n, seed, max_iter):
        u = _SAMPLERS[name](np.random.default_rng(seed), n)
        alpha, mode = evstats._gumbel_mle(u)  # fit_gev's start
        x0 = np.array([alpha, mode, 0.0])
        res = self._scipy(u, x0, max_iter)
        x, converged = evstats._nelder_mead(lambda p: evstats._gev_nll(p, u), x0,
                                            max_iter, 1e-9)
        assert np.array_equal(x, res.x)
        assert converged == res.success
        assert converged == (max_iter == 2000)

    @pytest.mark.parametrize("name,n,seed,max_iter",
                             [c for c in _NM_CASES if c[3] < 2000])
    def test_failure_message_is_scipys(self, name, n, seed, max_iter, monkeypatch):
        u = _SAMPLERS[name](np.random.default_rng(seed), n)
        alpha, mode = evstats._gumbel_mle(u)
        res = self._scipy(u, np.array([alpha, mode, 0.0]), max_iter)
        monkeypatch.setattr(evstats, "_GEV_MAX_ITER", max_iter)
        with pytest.raises(FitConvergenceError) as info:
            fit_gev(u)
        assert str(info.value) == "GEV optimization failed: " + res.message
        assert (info.value.scale, info.value.mode) == (res.x[0], res.x[1])

    def test_fit_gev_uses_scipys_optimum(self):
        u = gumbel_samples(np.random.default_rng(31), 4000, 1.3, 0.2)
        alpha, mode = evstats._gumbel_mle(u)
        res = self._scipy(u, np.array([alpha, mode, 0.0]), 2000)
        fit = fit_gev(u)
        assert (fit.scale, fit.location, fit.shape) == (
            float(res.x[0]), float(res.x[1]), round(float(res.x[2]), 3))


class TestFitHyperbola:
    """means ~ 2 - kappa / (j + delta) by least squares on the in-package simplex."""

    @pytest.mark.parametrize("kappa,delta", [(5.0, 1.5), (8.2, 3.8), (1.0, -0.9)])
    def test_recovers_exact_data(self, kappa, delta):
        js = np.arange(1.0, 13.0)
        got = fit_hyperbola(js, 2.0 - kappa / (js + delta))
        assert got == pytest.approx((kappa, delta), rel=1e-5)

    def test_stays_right_of_the_pole(self):
        # exact data with delta = -1.2 put the pole between j = 1 and j = 2;
        # the penalty keeps the simplex where every j + delta > 0
        js = np.arange(1.0, 13.0)
        kappa, delta = fit_hyperbola(js, 2.0 - 0.5 / (js - 1.2))
        assert 1.0 + delta > 0.0

    def test_needs_two_points(self):
        with pytest.raises(ValueError, match="at least 2 points"):
            fit_hyperbola([1.0], [0.5])

    def test_unsettled_simplex_raises(self, monkeypatch):
        monkeypatch.setattr(evstats, "_HYPERBOLA_MAX_ITER", 5)
        js = np.arange(1.0, 13.0)
        with pytest.raises(FitConvergenceError, match="maximum number of iterations"):
            fit_hyperbola(js, 2.0 - 5.0 / (js + 1.5))


class TestKsStatistic:
    def test_singleton(self):
        d = ks_statistic([0.0], lambda x: np.full_like(np.asarray(x, float), 0.5))
        assert d == 0.5

    @pytest.mark.parametrize("cdf", [lambda x: 0.5, lambda x: np.full(x.size + 1, 0.5)],
                             ids=["scalar", "longer"])
    def test_cdf_of_wrong_shape_rejected(self, cdf):
        with pytest.raises(ValueError, match="shape"):
            ks_statistic([0.0, 1.0, 2.0], cdf)

    def test_perfectly_spaced_quantiles(self):
        n = 40
        xs = gumbel_ppf((np.arange(1, n + 1) - 0.5) / n, 1.0, 0.0)
        d = ks_statistic(xs, lambda x: gumbel_cdf(x, 1.0, 0.0))
        assert d == pytest.approx(0.5 / n, rel=1e-12)

    def test_exact_vs_bruteforce(self):
        rng = np.random.default_rng(99)
        for trial in range(100):
            n = int(rng.integers(1, 51))
            xs = np.sort(rng.normal(size=n))
            scale = float(rng.uniform(0.5, 2.0))

            def cdf(v, s=scale):
                return gumbel_cdf(v, s, 0.0)

            assert ks_statistic(xs, cdf) == ks_bruteforce(xs, cdf)


class TestDistributions:
    def test_cdf_ppf_inverse(self):
        for p in (0.01, 0.5, 0.99):
            x = gumbel_ppf(p, 0.9, -0.1)
            assert gumbel_cdf(np.array([x]), 0.9, -0.1)[0] == pytest.approx(p, rel=1e-12)

    def test_pdf_integrates_to_one(self):
        xs = np.linspace(-10, 25, 200001)
        ys = gumbel_pdf(xs, 1.3, 0.4)
        total = float(np.sum((ys[1:] + ys[:-1]) / 2 * np.diff(xs)))
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_gev_zero_shape_is_gumbel(self):
        xs = np.linspace(-3, 8, 50)
        a = gev_cdf(xs, 1.1, 0.2, 0.0)
        b = gumbel_cdf(xs, 1.1, 0.2)
        assert np.allclose(a, b, rtol=1e-12)

    def test_gev_off_support(self):
        # shape -0.5: support bounded above at location + scale/0.5
        top = 0.2 + 1.0 / 0.5
        vals = gev_cdf(np.array([top + 1.0]), 1.0, 0.2, -0.5)
        assert vals[0] == 1.0
        low = gev_cdf(np.array([0.2 - 3.0]), 1.0, 0.2, 0.5)
        assert low[0] == 0.0
