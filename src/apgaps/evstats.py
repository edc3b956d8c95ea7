"""Histograms, Gumbel and GEV maximum-likelihood fits, exact KS distances,
and the least-squares hyperbola of the record counts."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

# The Gumbel scale iteration: damped fixed-point steps before bisection takes
# over, and the relative step that counts as settled.
_GUMBEL_MAX_ITER = 200
_GUMBEL_REL_TOL = 1e-12
# Simplex iterations of the GEV fit before it reports failure.
_GEV_MAX_ITER = 2000
# Simplex iterations of the hyperbola fit before it reports failure.
_HYPERBOLA_MAX_ITER = 10000


class FitConvergenceError(RuntimeError):
    """Fit iteration failed to settle; carries the last iterate."""

    def __init__(self, message: str, scale: float | None = None, mode: float | None = None):
        super().__init__(message)
        self.scale = scale
        self.mode = mode


@dataclass(frozen=True)
class Histogram:
    bin_edges: np.ndarray  # length bins + 1
    counts: np.ndarray  # int64, length bins
    total: int


@dataclass(frozen=True)
class GumbelFit:
    scale: float  # alpha > 0
    mode: float  # mu
    ks: float
    sample_size: int


@dataclass(frozen=True)
class GevFit:
    scale: float
    location: float
    shape: float  # reported to 3 decimals
    ks: float


def gumbel_cdf(x, scale: float, mode: float):
    """exp(-exp(-(x - mode)/scale)); accepts scalars or arrays."""
    z = (np.asarray(x, dtype=np.float64) - mode) / scale
    out = np.exp(-np.exp(-z))
    return out if out.ndim else float(out)


def gumbel_pdf(x, scale: float, mode: float):
    z = (np.asarray(x, dtype=np.float64) - mode) / scale
    out = np.exp(-z - np.exp(-z)) / scale
    return out if out.ndim else float(out)


def gev_cdf(x, scale: float, location: float, shape: float):
    if abs(shape) < 1e-12:
        return gumbel_cdf(x, scale, location)
    z = (np.asarray(x, dtype=np.float64) - location) / scale
    w = np.atleast_1d(1.0 + shape * z)
    inside = w > 0.0
    out = np.empty_like(w)
    # off-support: below the lower endpoint (shape > 0) cdf is 0,
    # above the upper endpoint (shape < 0) cdf is 1
    out[~inside] = 0.0 if shape > 0 else 1.0
    out[inside] = np.exp(-(w[inside] ** (-1.0 / shape)))
    return out.reshape(z.shape) if z.ndim else float(out[0])


def _sample(values: Sequence[float], fewest: int = 1) -> np.ndarray:
    """values as a float64 array, checked before any work is done on them.

    A ValueError if they are fewer than fewest or one is not finite.
    """
    arr = np.asarray(values, dtype=np.float64)
    if arr.size < fewest:
        raise ValueError(f"need {fewest} or more samples, got {arr.size}")
    if not np.isfinite(arr).all():
        raise ValueError("sample holds a non-finite value")
    return arr


def build_histogram(samples: Sequence[float], bin_count: int) -> Histogram:
    """Equal-width histogram over [min, max].

    Interior boundary values fall into the lower bin; the maximum joins the
    last bin. A degenerate (single-value) range is widened symmetrically by
    1e-9 * max(1, |value|).
    """
    arr = _sample(samples)
    if bin_count < 1:
        raise ValueError("bin_count must be >= 1")
    lo = float(arr.min())
    hi = float(arr.max())
    if lo == hi:
        pad = 1e-9 * max(1.0, abs(lo))
        lo -= pad
        hi += pad
    edges = np.linspace(lo, hi, bin_count + 1)
    idx = np.searchsorted(edges, arr, side="left") - 1
    idx = np.clip(idx, 0, bin_count - 1)
    counts = np.bincount(idx, minlength=bin_count).astype(np.int64)
    return Histogram(bin_edges=edges, counts=counts, total=int(arr.size))


def ks_statistic(samples: Sequence[float],
                 cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """Exact Kolmogorov-Smirnov distance between the sample and a model cdf.

    D = max_i max(i/n - F(x_(i)), F(x_(i)) - (i-1)/n) over the sorted sample;
    no binning. cdf is called once, on the sorted sample, and must return an
    array of the same shape.
    """
    xs = np.sort(_sample(samples))
    n = xs.size
    f = np.asarray(cdf(xs), dtype=np.float64)
    if f.shape != xs.shape:
        raise ValueError(f"cdf returned shape {f.shape} for a sample of shape {xs.shape}")
    i = np.arange(1, n + 1, dtype=np.float64)
    return float(np.max(np.maximum(i / n - f, f - (i - 1.0) / n)))


def _gumbel_mle(u: np.ndarray) -> tuple[float, float]:
    mean = float(u.mean())
    alpha = float(u.std()) * math.sqrt(6.0) / math.pi  # moment seed
    if not alpha > 0.0:
        raise FitConvergenceError("degenerate sample: zero spread", scale=alpha)
    shift = float(u.min())

    def fixed_point(a: float) -> float:
        w = np.exp(-(u - shift) / a)  # shift cancels in the weighted mean
        return mean - float((u * w).sum() / w.sum())

    for _ in range(_GUMBEL_MAX_ITER):
        g = fixed_point(alpha)
        new = 0.5 * (alpha + g) if g > 0.0 else 0.5 * alpha
        done = abs(new - alpha) <= _GUMBEL_REL_TOL * abs(new)
        alpha = new
        if done:
            break
    else:
        # Heavy tails can trap the damped step in a 2-cycle. The score
        # fixed_point(a) - a falls strictly in a, from mean - min at 0+ to
        # below 0 at a = mean - min, so bisect it there (Coles 2001).
        lo, hi = 0.0, mean - shift
        alpha = 0.5 * hi
        while lo < alpha < hi and hi - lo > _GUMBEL_REL_TOL * hi:
            if fixed_point(alpha) > alpha:
                lo = alpha
            else:
                hi = alpha
            alpha = 0.5 * (lo + hi)
    return alpha, _gumbel_mode(u, alpha)


def _gumbel_mode(u: np.ndarray, alpha: float) -> float:
    # mu = -alpha log mean(exp(-u/alpha)), evaluated via a shifted log-sum-exp
    z = -u / alpha
    m = float(z.max())
    return -alpha * (m + math.log(float(np.exp(z - m).mean())))


def fit_gumbel(samples: Sequence[float]) -> GumbelFit:
    """Maximum-likelihood Gumbel fit.

    The scale solves alpha = mean(u) - sum(u_i e^{-u_i/alpha}) / sum(e^{-u_i/alpha})
    by damped fixed-point iteration seeded at the moment estimate
    stdev * sqrt(6) / pi, or by bisection of that equation when
    _GUMBEL_MAX_ITER steps do not settle; the mode follows in closed form.
    """
    u = _sample(samples, 10)
    alpha, mode = _gumbel_mle(u)
    ks = ks_statistic(u, lambda x: gumbel_cdf(x, alpha, mode))
    return GumbelFit(scale=alpha, mode=mode, ks=ks, sample_size=int(u.size))


def _gev_nll(params: np.ndarray, u: np.ndarray) -> float:
    sigma, mu, xi = params
    n = u.size
    if sigma <= 0.0:
        return 1e30 * (1.0 + abs(sigma))
    z = (u - mu) / sigma
    if abs(xi) < 1e-9:
        t = np.exp(-z)
        return n * math.log(sigma) + float(z.sum() + t.sum())
    w = 1.0 + xi * z
    wmin = float(w.min())
    if wmin <= 0.0:
        return 1e30 * (1.0 + abs(wmin))  # support violation, graded to guide the simplex
    logw = np.log(w)
    return n * math.log(sigma) + float((1.0 + 1.0 / xi) * logw.sum()
                                       + np.exp(-logw / xi).sum())


def _nelder_mead(f: Callable[[np.ndarray], float], x0: np.ndarray, max_iter: int,
                 tol: float) -> tuple[np.ndarray, bool]:
    """Minimize f from x0 by the Nelder-Mead simplex; returns (x, converged).

    A step-for-step copy of scipy.optimize.minimize(method="Nelder-Mead")
    with options maxiter=max_iter, xatol=fatol=tol: the same numpy
    operations in the same order, so the iterates match scipy's bit for bit.
    Coefficients are the non-adaptive reflect 1, expand 2, contract 0.5 and
    shrink 0.5; the initial simplex moves each coordinate by 5% (0.00025
    where it is 0). The iteration count starts at 1, and reaching max_iter
    before both tolerances hold means failure.
    """
    n = x0.size
    sim = np.empty((n + 1, n), dtype=np.float64)
    sim[0] = x0
    for k in range(n):
        y = x0.copy()
        y[k] = 1.05 * y[k] if y[k] != 0 else 0.00025
        sim[k + 1] = y
    fsim = np.array([f(v) for v in sim], dtype=np.float64)
    ind = np.argsort(fsim)
    sim = np.take(sim, ind, 0)
    fsim = np.take(fsim, ind, 0)
    iterations = 1
    while iterations < max_iter:
        if (np.max(np.ravel(np.abs(sim[1:] - sim[0]))) <= tol
                and np.max(np.abs(fsim[0] - fsim[1:])) <= tol):
            break
        xbar = np.add.reduce(sim[:-1], 0) / n
        xr = 2 * xbar - sim[-1]
        fxr = f(xr)
        if fxr < fsim[0]:
            xe = 3 * xbar - 2 * sim[-1]
            fxe = f(xe)
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
        else:
            if fxr < fsim[-1]:  # outside contraction
                xc = 1.5 * xbar - 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc <= fxr
            else:  # inside contraction
                xc = 0.5 * xbar + 0.5 * sim[-1]
                fxc = f(xc)
                shrink = not fxc < fsim[-1]
            if shrink:
                for j in range(1, n + 1):
                    sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                    fsim[j] = f(sim[j])
            else:
                sim[-1], fsim[-1] = xc, fxc
        iterations += 1
        ind = np.argsort(fsim)
        sim = np.take(sim, ind, 0)
        fsim = np.take(fsim, ind, 0)
    return sim[0], iterations < max_iter


def fit_gev(samples: Sequence[float]) -> GevFit:
    """Maximum-likelihood GEV fit, started from the Gumbel fit with shape 0.

    The likelihood is minimized by the in-package ``_nelder_mead``, which
    matches scipy's Nelder-Mead (maxiter = _GEV_MAX_ITER, xatol = fatol = 1e-9)
    bit for bit without importing scipy.optimize.
    """
    u = _sample(samples, 50)
    alpha, mode = _gumbel_mle(u)
    best, converged = _nelder_mead(lambda p: _gev_nll(p, u),
                                   np.array([alpha, mode, 0.0]), _GEV_MAX_ITER, 1e-9)
    if not converged:
        raise FitConvergenceError(
            "GEV optimization failed: Maximum number of iterations has been exceeded.",
            scale=float(best[0]), mode=float(best[1]))
    sigma, mu, xi = (float(v) for v in best)
    shape = round(xi, 3)
    ks = ks_statistic(u, lambda x: gev_cdf(x, sigma, mu, shape))
    return GevFit(scale=sigma, location=mu, shape=shape, ks=ks)


def fit_hyperbola(js: Sequence[float], means: Sequence[float]) -> tuple[float, float]:
    """Least-squares fit of means ~ 2 - kappa / (j + delta); returns (kappa, delta).

    The sum of squared residuals is minimized by ``_nelder_mead`` from
    (kappa, delta) = (3, 2), with xatol = fatol = 1e-12; where some
    j + delta <= 0 it is a large penalty, graded to guide the simplex back.
    Raises ValueError below two points or on a value that is not finite,
    and FitConvergenceError when the simplex does not settle.
    """
    j, y = _sample(js), _sample(means)
    if j.size < 2:
        raise ValueError(f"hyperbola fit needs at least 2 points, got {j.size}")

    def sse(params: np.ndarray) -> float:
        kappa, delta = params
        d = j + delta
        dmin = float(d.min())
        if dmin <= 0.0:
            return 1e30 * (1.0 + abs(dmin))
        r = 2.0 - kappa / d - y
        return float(r @ r)

    best, converged = _nelder_mead(sse, np.array([3.0, 2.0]), _HYPERBOLA_MAX_ITER, 1e-12)
    if not converged:
        raise FitConvergenceError("hyperbola fit: maximum number of iterations exceeded")
    return float(best[0]), float(best[1])

