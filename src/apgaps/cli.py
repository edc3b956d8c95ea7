"""Command line interface.

Subcommands: scan, fit, counts, brun, meanprod, predict, probe. Exit codes:
0 success, 2 invalid input, 3 sieve budget exceeded, 4 computation error.
Outputs are deterministic: same configuration and seed give byte-identical
files regardless of --threads. JSON numbers use Python float repr (shortest
round trip, at most 17 significant digits); CSV floats carry 10.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass, field
from decimal import Decimal, InvalidOperation
from fractions import Fraction
from typing import Optional

import numpy as np

from . import brun, evstats, gapscan, trend
from .gapscan import BudgetExceededError
from .sieve import ResidueClass

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_COMPUTE = 4

DEFAULT_BUDGET = 10**10  # numbers sieved per invocation


class UsageError(ValueError):
    """Invalid command input (maps to exit code 2)."""


@dataclass
class RunConfig:
    command: str
    q: int = 0
    r_set: list[int] | str = "all-coprime"
    x_max: int = 0
    output_dir: Optional[str] = None
    format: str = "csv"
    seed: int = 0  # reserved for sampling operations
    threads: int = 1
    budget: int = DEFAULT_BUDGET
    trend_overrides: dict = field(default_factory=dict)
    extras: dict = field(default_factory=dict)


def _parse_x(text: str) -> int:
    """Positive integer bound, exact: 1000000000000000001, 1e8 or 2.5e9."""
    try:
        val = Decimal(text)
        finite = math.isfinite(float(val))
    except (InvalidOperation, ValueError) as exc:
        raise UsageError(f"bad number {text!r}") from exc
    if not finite or val < 1 or val != val.to_integral_value():
        raise UsageError(f"bad bound {text!r}")
    return int(val)


def _parse_probe_x(text: str) -> float:
    """A probe point: finite and above 2, where the baseline trend lives."""
    try:
        val = float(text)
    except ValueError as exc:
        raise UsageError(f"bad number {text!r}") from exc
    if not (math.isfinite(val) and val > 2):
        raise UsageError(f"probe needs finite x > 2, got {text!r}")
    return val


def _parse_r_set(text: str, q: int) -> list[int] | str:
    """Residue argument: 'all' / 'all-coprime', or comma list with a..b ranges."""
    text = text.strip()
    if text in ("all", "all-coprime"):
        return "all-coprime"
    out: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ".." in part:
            a, _, b = part.partition("..")
            try:
                lo, hi = int(a), int(b)
            except ValueError as exc:
                raise UsageError(f"bad residue range {part!r}") from exc
            if lo > hi:
                raise UsageError(f"empty residue range {part!r}")
            out.update(range(lo, hi + 1))
        else:
            try:
                out.add(int(part))
            except ValueError as exc:
                raise UsageError(f"bad residue {part!r}") from exc
    if not out:
        raise UsageError("no residues given")
    return sorted(out)


def _resolve_classes(cfg: RunConfig) -> list[ResidueClass]:
    if cfg.r_set == "all-coprime":
        rs = [r for r in range(1, cfg.q) if math.gcd(r, cfg.q) == 1]
    else:
        rs = cfg.r_set
    try:
        return [ResidueClass(cfg.q, r) for r in rs]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _trend_params(cfg: RunConfig) -> trend.TrendParams:
    base = trend.default_params(cfg.q)
    if not cfg.trend_overrides:
        return base
    merged = {
        "b1": base.b1, "b2": base.b2, "c0": base.c0, "c1": base.c1,
        **cfg.trend_overrides,
    }
    return trend.TrendParams(source="user_supplied", extrapolated=False, **merged)


def _outdir(cfg: RunConfig) -> str:
    out = cfg.output_dir or "."
    os.makedirs(out, exist_ok=True)
    return out


def _dump_json(payload: dict, path: Optional[str]) -> None:
    text = json.dumps(payload, indent=1, allow_nan=False)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    print(text)


def _check_budget(cfg: RunConfig, numbers_to_sieve: int) -> None:
    if numbers_to_sieve > cfg.budget:
        raise BudgetExceededError(
            f"would sieve {numbers_to_sieve} numbers, budget is {cfg.budget}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_scan(cfg: RunConfig) -> int:
    classes = _resolve_classes(cfg)
    _check_budget(cfg, cfg.x_max)
    results = gapscan.scan_many(cfg.q, [c.r for c in classes], cfg.x_max,
                                threads=cfg.threads)
    out = _outdir(cfg)
    ext = cfg.format
    ordered = [results[c.r] for c in classes]
    for res in ordered:
        path = os.path.join(out, f"events_q{cfg.q}_r{res.cls.r}.{ext}")
        if ext == "csv":
            gapscan.write_events_csv(res, path)
        else:
            gapscan.write_events_json(res, path)
    merged = os.path.join(out, f"events_q{cfg.q}_merged.{ext}")
    if ext == "csv":
        gapscan.write_events_csv(ordered, merged)
    else:
        gapscan.write_events_json(ordered, merged)
    _write_trend_overlay(cfg, ordered, os.path.join(out, f"trend_q{cfg.q}.csv"))
    summary = {
        "q": cfg.q,
        "x_max": cfg.x_max,
        "classes": len(ordered),
        "events": sum(r.n_first_occurrence for r in ordered),
        "maximal": sum(r.n_maximal for r in ordered),
        "output_dir": out,
    }
    print(json.dumps(summary, indent=1))
    return EXIT_OK


def _write_trend_overlay(cfg: RunConfig, results, path: str) -> None:
    """T0, T_f and phi log^2 p sampled at event end primes (where defined)."""
    phi = trend.totient(cfg.q)
    ends = sorted({ev.end_prime for res in results for ev in res.events})
    with open(path, "w", newline="") as fh:
        fh.write("p,t0,tf,phi_log2\n")
        for p, t0, tf in trend.trend_points(cfg.q, ends, _trend_params(cfg)):
            fh.write(f"{p},{t0:.10g},{tf:.10g},{phi * math.log(p) ** 2:.10g}\n")


def _load_samples_csv(path: str) -> np.ndarray:
    vals = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith(("u", "#")):
                continue
            vals.append(float(line.split(",")[0]))
    return np.asarray(vals, dtype=np.float64)


def cmd_fit(cfg: RunConfig) -> int:
    window_lo, window_hi = cfg.extras["window"]
    out = _outdir(cfg)
    samples_csv = cfg.extras.get("samples_csv")
    if samples_csv:
        u = _load_samples_csv(samples_csv)
        maximal_u = None
    else:
        classes = _resolve_classes(cfg)
        x_max = cfg.x_max or window_hi
        _check_budget(cfg, x_max)
        params = _trend_params(cfg)
        results = gapscan.scan_many(cfg.q, [c.r for c in classes], x_max,
                                    threads=cfg.threads)
        # (r, end_prime, size, is_maximal), merged in residue order
        picked = sorted((c.r, ev.end_prime, ev.size, ev.is_maximal)
                        for c in classes for ev in results[c.r].events
                        if window_lo <= ev.end_prime <= window_hi)
        u = trend.rescale_many(cfg.q, [t[1] for t in picked],
                               [t[2] for t in picked], params)
        maximal_u = u[np.array([t[3] for t in picked], dtype=bool)]
    if u.size < 10:
        raise ValueError(f"only {u.size} rescaled events in window: too few to fit")
    gfit = evstats.fit_gumbel(u)
    ks_max = None
    if maximal_u is not None and maximal_u.size >= 10:
        ks_max = evstats.fit_gumbel(maximal_u).ks
    gev_shape = gev_error = None
    if u.size >= 50:
        try:
            gev_shape = evstats.fit_gev(u).shape
        except evstats.FitConvergenceError as exc:
            gev_error = str(exc)  # the Gumbel fit stands on its own
    report = {
        "alpha": gfit.scale,
        "mu": gfit.mode,
        "ks_all": gfit.ks,
        "ks_maximal_only": ks_max,
        "gev_shape": gev_shape,
        **({"gev_error": gev_error} if gev_error is not None else {}),
        "n_samples": int(u.size),
        "window": [window_lo, window_hi],
    }
    hist = evstats.build_histogram(u, cfg.extras.get("bins", 53))
    evstats.write_histogram_csv(hist, os.path.join(out, f"hist_q{cfg.q}.csv"))
    grid = np.linspace(hist.bin_edges[0], hist.bin_edges[-1], 513)
    evstats.write_pdf_csv(os.path.join(out, f"pdf_q{cfg.q}.csv"), grid,
                          lambda x: evstats.gumbel_pdf(x, gfit.scale, gfit.mode))
    _dump_json(report, os.path.join(out, f"fit_q{cfg.q}.json"))
    return EXIT_OK


def cmd_counts(cfg: RunConfig) -> int:
    j_max = cfg.extras["j_max"]
    table = gapscan.interval_record_table(cfg.q, j_max, threads=cfg.threads,
                                          budget=cfg.budget)
    out = _outdir(cfg)
    path = os.path.join(out, f"counts_q{cfg.q}.csv")
    with open(path, "w", newline="") as fh:
        fh.write("j,mean_fo_count,mean_max_count\n")
        for j, fo, mx in table:
            fh.write(f"{j},{fo:.10g},{mx:.10g}\n")
    summary = {"q": cfg.q, "j_max": j_max, "table": path}
    if cfg.extras.get("fit_hyperbola"):
        summary["hyperbola"] = _fit_hyperbola(table)
    print(json.dumps(summary, indent=1))
    return EXIT_OK


def _fit_hyperbola(table) -> dict:
    # mean maximal count per interval ~ 2 - kappa / (j + delta); reported, not asserted
    from scipy.optimize import curve_fit

    js = np.array([row[0] for row in table], dtype=float)
    means = np.array([row[2] for row in table], dtype=float)
    try:
        popt, _ = curve_fit(lambda j, kappa, delta: 2.0 - kappa / (j + delta),
                            js, means, p0=(3.0, 2.0), maxfev=10000)
        return {"kappa": float(popt[0]), "delta": float(popt[1])}
    except Exception as exc:  # noqa: BLE001 - diagnostic only
        return {"error": str(exc)}


def cmd_brun(cfg: RunConfig) -> int:
    d = cfg.extras["d"]
    r = cfg.r_set[0]
    if not 1 <= r < cfg.q:
        raise UsageError("brun needs 1 <= r < q")
    # coprimality is not required here: a non-coprime class just has an
    # (almost) empty progression and a trivial partial sum
    cls = (ResidueClass(cfg.q, r) if math.gcd(cfg.q, r) == 1
           else ResidueClass.unchecked(cfg.q, r))
    _check_budget(cfg, cfg.x_max)
    points = cfg.extras.get("points", 16)
    lo = max(100, d + 1)
    xs = sorted({int(round(v)) for v in np.geomspace(lo, cfg.x_max, points)} | {cfg.x_max})
    growth = brun.brun_growth(d, cls, xs, threads=cfg.threads)
    out = _outdir(cfg)
    path = os.path.join(out, f"brun_d{d}_q{cfg.q}_r{cls.r}.csv")
    with open(path, "w", newline="") as fh:
        fh.write("x,partial_sum,estimate\n")
        for bs in growth:
            est = brun.brun_estimate(d, cfg.q, bs.x)
            fh.write(f"{bs.x},{bs.partial_sum:.10g},{est:.10g}\n")
    final = growth[-1]
    _dump_json(
        {
            "d": d,
            "q": cfg.q,
            "r": cls.r,
            "x_max": cfg.x_max,
            "partial_sum": final.partial_sum,
            "pair_count": final.pair_count,
            "estimate_at_x_max": brun.brun_estimate(d, cfg.q, cfg.x_max),
            "estimate_limit": brun.brun_estimate(d, cfg.q),
            "curve": path,
        },
        None,
    )
    return EXIT_OK


def cmd_meanprod(cfg: RunConfig) -> int:
    r = cfg.extras["r"]
    if not 0 <= r < cfg.q:
        raise UsageError("meanprod needs 0 <= r < q")
    sm = brun.mean_singular_product(cfg.q, r)
    payload = {
        "q": cfg.q,
        "r": r,
        "multiplier": f"{sm.multiplier.numerator}/{sm.multiplier.denominator}",
        "value": sm.value,
    }
    n_emp = cfg.extras.get("empirical_n")
    if n_emp:
        emp = brun.empirical_singular_mean(cfg.q, r, n_emp)
        payload["empirical_mean"] = emp
        payload["empirical_n"] = n_emp
        payload["rel_diff"] = abs(emp - sm.value) / sm.value
    out = cfg.output_dir
    _dump_json(payload, os.path.join(_outdir(cfg), f"meanprod_q{cfg.q}_r{r}.json")
               if out else None)
    return EXIT_OK


def cmd_predict(cfg: RunConfig) -> int:
    d = cfg.extras["d"]
    p = trend.predict_first_occurrence(d, cfg.q)
    lo, hi = trend.first_occurrence_bounds(d, cfg.q)
    # past float range the predictor is inf, which JSON cannot hold
    p, lo, hi = (None if math.isinf(v) else v for v in (p, lo, hi))
    _dump_json({"q": cfg.q, "d": d, "location": p, "lower": lo, "upper": hi}, None)
    return EXIT_OK


def cmd_probe(cfg: RunConfig) -> int:
    xs = cfg.extras["x_values"]
    ratios = trend.inverse_limit_probe(cfg.q, xs)
    _dump_json(
        {"q": cfg.q, "x": xs, "ratio": ratios, "limit": math.exp(-0.5)},
        None,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parsing and dispatch

_COMMANDS = {
    "scan": cmd_scan,
    "fit": cmd_fit,
    "counts": cmd_counts,
    "brun": cmd_brun,
    "meanprod": cmd_meanprod,
    "predict": cmd_predict,
    "probe": cmd_probe,
}


def _add_common(sub: argparse.ArgumentParser, *, with_r: bool = True) -> None:
    sub.add_argument("--q", type=int, required=True, help="modulus of the progression")
    if with_r:
        sub.add_argument("--r", default="all",
                         help="residues: 'all', a comma list, or a..b ranges")
    sub.add_argument("--out", default=None, help="output directory")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    sub.add_argument("--seed", type=int, default=0,
                     help="seed reserved for sampling operations")
    sub.add_argument("--threads", type=int, default=1)
    sub.add_argument("--budget", default=str(DEFAULT_BUDGET),
                     help="max numbers sieved per run (default 1e10)")
    sub.add_argument("--b1", type=float, default=None)
    sub.add_argument("--b2", type=float, default=None)
    sub.add_argument("--c0", type=float, default=None)
    sub.add_argument("--c1", type=float, default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apgaps",
        description="Record gaps between primes in arithmetic progressions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("scan", help="enumerate gap events per residue class")
    _add_common(p)
    p.add_argument("--x-max", required=True, help="scan primes up to this bound")

    p = subs.add_parser("fit", help="rescale events and fit Gumbel / GEV")
    _add_common(p)
    p.add_argument("--x-max", default=None, help="scan bound (default: window top)")
    p.add_argument("--window", default="1e7:1e9",
                   help="end-prime window lo:hi entering the fit")
    p.add_argument("--bins", type=int, default=53)
    p.add_argument("--samples-csv", default=None,
                   help="fit these rescaled values instead of scanning")

    p = subs.add_parser("counts", help="mean record counts per interval (e^j, e^{j+1}]")
    _add_common(p, with_r=False)
    p.add_argument("--j-max", type=int, required=True)
    p.add_argument("--fit-hyperbola", action="store_true",
                   help="also report a 2 - kappa/(j+delta) least-squares fit")

    p = subs.add_parser("brun", help="generalized Brun partial sums and estimates")
    _add_common(p)
    p.add_argument("--d", type=int, required=True, help="gap size")
    p.add_argument("--x-max", required=True)
    p.add_argument("--points", type=int, default=16, help="checkpoints on the curve")

    p = subs.add_parser("meanprod", help="exact mean singular product over r + nq")
    _add_common(p, with_r=False)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--empirical-n", type=int, default=None,
                   help="also average the first N progression terms")

    p = subs.add_parser("predict", help="first-occurrence location heuristic")
    _add_common(p, with_r=False)
    p.add_argument("--d", type=int, required=True)

    p = subs.add_parser("probe", help="P(T0(q,x),q)/x ratios against e^{-1/2}")
    _add_common(p, with_r=False)
    p.add_argument("--x", default="1e6,1e9,1e12", help="comma list of x values")

    return parser


def _build_config(args: argparse.Namespace) -> RunConfig:
    if args.q < 2:
        raise UsageError("q must be at least 2")
    cfg = RunConfig(command=args.command, q=args.q)
    cfg.output_dir = args.out
    cfg.format = args.format
    cfg.seed = args.seed
    cfg.threads = max(1, args.threads)
    cfg.budget = _parse_x(str(args.budget))
    for key in ("b1", "b2", "c0", "c1"):
        val = getattr(args, key)
        if val is not None:
            cfg.trend_overrides[key] = val
    if hasattr(args, "r") and args.command != "meanprod":
        cfg.r_set = _parse_r_set(str(args.r), args.q)
    if getattr(args, "x_max", None) is not None:
        cfg.x_max = _parse_x(args.x_max)
    if args.command == "fit":
        lo, _, hi = args.window.partition(":")
        if not hi:
            raise UsageError("window must look like 1e7:1e9")
        cfg.extras["window"] = [_parse_x(lo), _parse_x(hi)]
        if cfg.extras["window"][0] > cfg.extras["window"][1]:
            raise UsageError("window lower bound exceeds upper bound")
        cfg.extras["bins"] = args.bins
        cfg.extras["samples_csv"] = args.samples_csv
        if not cfg.x_max:
            cfg.x_max = cfg.extras["window"][1]
    if args.command == "counts":
        if args.j_max < 1:
            raise UsageError("j-max must be >= 1")
        cfg.extras["j_max"] = args.j_max
        cfg.extras["fit_hyperbola"] = args.fit_hyperbola
    if args.command == "brun":
        if args.d < 1:
            raise UsageError("d must be positive")
        cfg.extras["d"] = args.d
        cfg.extras["points"] = args.points
        if isinstance(cfg.r_set, list) and len(cfg.r_set) != 1:
            raise UsageError("brun wants exactly one residue")
        if cfg.r_set == "all-coprime":
            raise UsageError("brun wants exactly one residue, e.g. --r 1")
    if args.command == "meanprod":
        cfg.extras["r"] = args.r
        cfg.extras["empirical_n"] = args.empirical_n
    if args.command == "predict":
        if args.d < 1:
            raise UsageError("d must be positive")
        cfg.extras["d"] = args.d
    if args.command == "probe":
        cfg.extras["x_values"] = [_parse_probe_x(s) for s in str(args.x).split(",")
                                  if s.strip()]
        if not cfg.extras["x_values"]:
            raise UsageError("probe needs at least one x")
    return cfg


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = _build_config(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        return _COMMANDS[cfg.command](cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ArithmeticError, LookupError,
            evstats.FitConvergenceError, OSError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
