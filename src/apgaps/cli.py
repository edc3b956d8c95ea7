"""Command line interface.

Each subcommand accepts only the options its cmd_x(args) reads and checks them
before any work; argparse parses --budget, and main checks every integer
option against its range in _RANGES before the subcommand runs. scan and
brun sieve to --x-max, fit to the top of --window and counts to
floor(e^(j-max + 1)); each bound is checked before sieving, first against
the sieve's 2^63 - 1 ceiling and then against --budget. Exit codes: 0
success, 2 invalid input, 3 sieve budget exceeded, 4 computation error. The
same arguments give byte-identical files whatever --threads is. JSON
numbers use Python float repr (shortest round trip); CSV floats carry 10
digits.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from decimal import Decimal, InvalidOperation
from typing import Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import brun, evstats, gapscan, trend
from .gapscan import MAX_CLASSES
from .numutil import totient
from .sieve import MAX_MODULUS, MAX_SIEVE_BOUND, ResidueClass

EXIT_OK = 0
EXIT_BAD_INPUT = 2
EXIT_BUDGET = 3
EXIT_COMPUTE = 4

DEFAULT_BUDGET = 10**10  # numbers sieved per invocation
MAX_ROWS = 10**6  # the most --bins of a fit histogram or --points of a Brun curve
# The most terms of meanprod --empirical-n: its factor sieve holds about 40
# bytes per term, so about 4 GB at the cap.
MAX_EMPIRICAL_N = 10**8

# The range [lo, hi] of each integer option: main checks every one that the
# subcommand has and that is set before the subcommand runs.
_RANGES = {"q": (2, MAX_MODULUS), "d": (1, math.inf), "j_max": (1, math.inf),
           "bins": (1, MAX_ROWS), "points": (0, MAX_ROWS), "empirical_n": (1, MAX_EMPIRICAL_N)}


class UsageError(argparse.ArgumentTypeError):
    """Invalid command input (exit code 2), also as the type error of --budget."""


class BudgetExceededError(RuntimeError):
    """Raised when a request would sieve more numbers than --budget allows (exit code 3)."""


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


def _parse_finite(text: str) -> float:
    """A finite float; nan and inf are bad input."""
    try:
        val = float(text)
    except ValueError as exc:
        raise UsageError(f"bad number {text!r}") from exc
    if not math.isfinite(val):
        raise UsageError(f"need a finite number, got {text!r}")
    return val


def _parse_probe_x(text: str) -> float:
    """A probe point: finite and above 2, where the baseline trend lives."""
    try:
        val = _parse_finite(text)
    except UsageError:
        val = math.nan  # refused below, with the probe's own message
    if not val > 2:
        raise UsageError(f"probe needs finite x > 2, got {text!r}")
    return val


def _is_all(text: str) -> bool:
    return text.strip() in ("all", "all-coprime")


def _check_classes(n: int) -> None:
    if n > MAX_CLASSES:
        raise UsageError(f"too many residue classes ({n} counted), the cap is {MAX_CLASSES}")


def _residues(text: str, q: int) -> list[int]:
    """'all' / 'all-coprime' (every r coprime to q), or a comma list with a..b ranges.

    More than MAX_CLASSES classes, counted before any list is built, are refused."""
    if _is_all(text):
        _check_classes(totient(q))
        return [r for r in range(1, q) if math.gcd(r, q) == 1]
    out: set[int] = set()
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        a, dots, b = part.partition("..")
        try:
            lo, hi = int(a), int(b if dots else a)
        except ValueError as exc:
            raise UsageError(f"bad residue {part!r}") from exc
        if lo > hi:
            raise UsageError(f"empty residue range {part!r}")
        _check_classes(len(out) + hi - lo + 1)
        out.update(range(lo, hi + 1))
    if not out:
        raise UsageError("no residues given")
    return sorted(out)


def _classes(q: int, rs: list[int]) -> list[ResidueClass]:
    try:
        return [ResidueClass(q, r) for r in rs]
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _trend_params(args: argparse.Namespace) -> trend.TrendParams:
    base = trend.default_params(args.q)
    overrides = {k: getattr(args, k) for k in ("c0", "c1") if getattr(args, k) is not None}
    if not overrides:
        return base
    return dataclasses.replace(base, source="user_supplied", extrapolated=False, **overrides)


def _outdir(args: argparse.Namespace) -> str:
    out = args.out or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# Output: every artifact goes through _write_csv or _write_json.


def _json(payload) -> str:
    return json.dumps(payload, indent=1, allow_nan=False)


def _write_json(files: Mapping[str, object]) -> list[str]:
    """Write each payload to its path and return their texts. Every payload is
    encoded before any file is opened, so a value JSON cannot hold raises
    ValueError and leaves no file of the set, whole or partial."""
    texts = [_json(payload) for payload in files.values()]
    for path, text in zip(files, texts):
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return texts


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """One line per row: a float with 10 significant digits, any other value by str()."""
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format(v, ".10g") if isinstance(v, float) else str(v)
                              for v in row) + "\n")


_EVENT_COLUMNS = ("q", "r", "kind", "n", "start_prime", "end_prime", "size", "csg")


def _event_rows(results: Sequence[gapscan.ScanResult]) -> Iterator[tuple]:
    """One row per event; n is the maximal index of a maximal event, else the fo index."""
    for res in results:
        q, r = res.cls.q, res.cls.r
        for ev in res.events:
            kind, n = (("maximal", ev.maximal_index) if ev.is_maximal
                       else ("first_occurrence", ev.fo_index))
            yield q, r, kind, n, ev.start_prime, ev.end_prime, ev.size, ev.csg


def _check_budget(args: argparse.Namespace, bound: int) -> None:
    """Refuse to sieve [1, bound]: bad input above the sieve's ceiling, else over budget."""
    if bound > MAX_SIEVE_BOUND:
        raise UsageError(f"bound {bound} exceeds the sieve ceiling 2^63 - 1")
    if bound > args.budget:
        raise BudgetExceededError(f"would sieve {bound} numbers, budget is {args.budget}")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_scan(args: argparse.Namespace) -> int:
    rs = _residues(args.r, args.q)
    x_max = _parse_x(args.x_max)
    classes = _classes(args.q, rs)
    params = _trend_params(args)
    _check_budget(args, x_max)
    results = gapscan.scan_many(args.q, rs, x_max, threads=args.threads)
    out = _outdir(args)
    ordered = [results[c.r] for c in classes]
    groups = {os.path.join(out, f"events_q{args.q}_{name}.{args.format}"): group
              for name, group in [(f"r{res.cls.r}", [res]) for res in ordered]
              + [("merged", ordered)]}
    if args.format == "csv":
        for path, group in groups.items():
            _write_csv(path, _EVENT_COLUMNS, _event_rows(group))
    else:
        _write_json({path: [dict(zip(_EVENT_COLUMNS, row)) for row in _event_rows(group)]
                     for path, group in groups.items()})
    # T0, T_f and phi log^2 p at the event end primes where the trends are defined
    phi = totient(args.q)
    ends = sorted({ev.end_prime for res in ordered for ev in res.events})
    _write_csv(os.path.join(out, f"trend_q{args.q}.csv"), ("p", "t0", "tf", "phi_log2"),
               ((p, t0, tf, phi * math.log(p) ** 2)
                for p, t0, tf in trend.trend_points(args.q, ends, params)))
    summary = {
        "q": args.q,
        "x_max": x_max,
        "classes": len(ordered),
        "events": sum(r.n_first_occurrence for r in ordered),
        "maximal": sum(r.n_maximal for r in ordered),
        "output_dir": out,
    }
    print(_json(summary))
    return EXIT_OK


def _load_samples_csv(path: str) -> np.ndarray:
    """First field of each line; blank lines, a 'u' header and '#' comments are skipped."""
    vals = []
    try:
        fh = open(path)
    except OSError as exc:
        raise UsageError(f"cannot read samples file {path}: {exc.strerror}") from None
    with fh:
        for num, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith(("u", "#")):
                continue
            field = line.split(",")[0]
            try:
                val = float(field)
            except ValueError:
                raise UsageError(f"{path} line {num}: bad sample {field!r}") from None
            if not math.isfinite(val):
                raise UsageError(f"{path} line {num}: sample {field!r} is not finite")
            vals.append(val)
    if len(vals) < 10:
        raise UsageError(f"{path} holds {len(vals)} samples: too few to fit")
    return np.asarray(vals, dtype=np.float64)


def cmd_fit(args: argparse.Namespace) -> int:
    rs = _residues(args.r, args.q)
    lo, _, hi = args.window.partition(":")
    if not hi:
        raise UsageError("window must look like 1e7:1e9")
    window_lo, window_hi = _parse_x(lo), _parse_x(hi)
    if window_lo > window_hi:
        raise UsageError("window lower bound exceeds upper bound")
    params = _trend_params(args)
    if args.samples_csv:
        u = _load_samples_csv(args.samples_csv)
        maximal_u = None
    else:
        _classes(args.q, rs)  # refuses an r not coprime to q
        _check_budget(args, window_hi)
        results = gapscan.scan_many(args.q, rs, window_hi, threads=args.threads)
        # merged in residue order (rs ascends), each class's events by end prime
        picked = [ev for r in rs for ev in results[r].events
                  if window_lo <= ev.end_prime <= window_hi]
        u = trend.rescale_many(args.q, [ev.end_prime for ev in picked],
                               [ev.size for ev in picked], params)
        maximal_u = u[np.array([ev.is_maximal for ev in picked], dtype=bool)]
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
    out = _outdir(args)
    hist = evstats.build_histogram(u, args.bins)
    edges = hist.bin_edges
    density = hist.counts / (hist.total * np.diff(edges))
    _write_csv(os.path.join(out, f"hist_q{args.q}.csv"), ("bin_lo", "bin_hi", "count", "density"),
               zip(edges[:-1], edges[1:], hist.counts.tolist(), density))
    # one grid point at a time, as before: numpy's array exp need not match its scalar bits
    grid = np.linspace(edges[0], edges[-1], 513)
    _write_csv(os.path.join(out, f"pdf_q{args.q}.csv"), ("x", "pdf"),
               ((x, evstats.gumbel_pdf(x, gfit.scale, gfit.mode)) for x in grid))
    print(_write_json({os.path.join(out, f"fit_q{args.q}.json"): report})[0])
    return EXIT_OK


def cmd_counts(args: argparse.Namespace) -> int:
    try:
        x_needed = math.floor(math.exp(args.j_max + 1))
    except OverflowError:  # past float range, so past the sieve ceiling
        raise UsageError(f"j-max {args.j_max} needs a bound above the sieve ceiling 2^63 - 1")
    _check_classes(totient(args.q))  # every class coprime to q
    _check_budget(args, x_needed)
    table = gapscan.interval_record_table(args.q, args.j_max, threads=args.threads)
    out = _outdir(args)
    path = os.path.join(out, f"counts_q{args.q}.csv")
    _write_csv(path, ("j", "mean_fo_count", "mean_max_count"), table)
    summary = {"q": args.q, "j_max": args.j_max, "table": path}
    if args.fit_hyperbola:
        # mean maximal count per interval ~ 2 - kappa / (j + delta); reported, not asserted
        try:
            kappa, delta = evstats.fit_hyperbola([row[0] for row in table],
                                                 [row[2] for row in table])
            summary["hyperbola"] = {"kappa": kappa, "delta": delta}
        except (ValueError, evstats.FitConvergenceError) as exc:
            summary["hyperbola"] = {"error": str(exc)}
    print(_json(summary))
    return EXIT_OK


def cmd_brun(args: argparse.Namespace) -> int:
    rs = [] if _is_all(args.r) else _residues(args.r, args.q)
    if len(rs) != 1:
        raise UsageError("brun wants exactly one residue, e.g. --r 1")
    x_max = _parse_x(args.x_max)
    if x_max < 2:  # no pair ends below 2, and the estimate needs x > 1
        raise UsageError("brun needs x-max >= 2")
    q, r, d = args.q, rs[0], args.d
    (cls,) = _classes(q, rs)
    _check_budget(args, x_max)
    lo = min(max(100, d + 1), x_max)
    # float rounding can carry a point above 2^53 past x_max: clamp it back
    xs = sorted({min(int(round(v)), x_max) for v in np.geomspace(lo, x_max, args.points)}
                | {x_max})
    growth = brun.brun_growth(d, cls, xs, threads=args.threads)
    out = _outdir(args)
    path = os.path.join(out, f"brun_d{d}_q{q}_r{r}.csv")
    _write_csv(path, ("x", "partial_sum", "estimate"),
               ((bs.x, bs.partial_sum, brun.brun_estimate(d, q, bs.x)) for bs in growth))
    final = growth[-1]
    print(_json({
        "d": d,
        "q": q,
        "r": r,
        "x_max": x_max,
        "partial_sum": final.partial_sum,
        "pair_count": final.pair_count,
        "estimate_at_x_max": brun.brun_estimate(d, q, x_max),
        "estimate_limit": brun.brun_estimate(d, q),
        "curve": path,
    }))
    return EXIT_OK


def cmd_meanprod(args: argparse.Namespace) -> int:
    q, r, n_emp = args.q, args.r, args.empirical_n
    if not 0 <= r < q:
        raise UsageError("meanprod needs 0 <= r < q")
    sm = brun.mean_singular_product(q, r)
    payload = {
        "q": q,
        "r": r,
        "multiplier": f"{sm.multiplier.numerator}/{sm.multiplier.denominator}",
        "value": sm.value,
    }
    if n_emp is not None:
        emp = brun.empirical_singular_mean(q, r, n_emp)
        payload["empirical_mean"] = emp
        payload["empirical_n"] = n_emp
        payload["rel_diff"] = abs(emp - sm.value) / sm.value
    print(_write_json({os.path.join(_outdir(args), f"meanprod_q{q}_r{r}.json"): payload})[0]
          if args.out else _json(payload))
    return EXIT_OK


def cmd_predict(args: argparse.Namespace) -> int:
    p = trend.predict_first_occurrence(args.d, args.q)
    lo, hi = trend.first_occurrence_bounds(args.d, args.q)
    # past float range the predictor is inf, which JSON cannot hold
    p, lo, hi = (None if math.isinf(v) else v for v in (p, lo, hi))
    print(_json({"q": args.q, "d": args.d, "location": p, "lower": lo, "upper": hi}))
    return EXIT_OK


def cmd_probe(args: argparse.Namespace) -> int:
    xs = [_parse_probe_x(s) for s in args.x.split(",") if s.strip()]
    if not xs:
        raise UsageError("probe needs at least one x")
    ratios = trend.inverse_limit_probe(args.q, xs)
    print(_json({"q": args.q, "x": xs, "ratio": ratios, "limit": math.exp(-0.5)}))
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parsing and dispatch


_SIEVING = ("--threads", "--budget")
_TREND = ("--c0", "--c1")
_SHARED = {
    "--r": dict(default="all", help="residues: 'all', a comma list, or a..b ranges"),
    "--out": dict(default=None, help="output directory"),
    "--format": dict(choices=("csv", "json"), default="csv"),
    "--threads": dict(type=int, default=1),  # below 1 the sieve runs serially
    "--budget": dict(type=_parse_x, default=DEFAULT_BUDGET,
                     help="max numbers sieved per run (default 1e10)"),
    **{opt: dict(type=_parse_finite, default=None) for opt in _TREND},
}


def _subcommand(subs, name: str, func, help: str, *shared: str) -> argparse.ArgumentParser:
    """Subparser `name` with --q and the shared options named, dispatching to func."""
    sub = subs.add_parser(name, help=help)
    sub.set_defaults(func=func)
    sub.add_argument("--q", type=int, required=True, help="modulus of the progression")
    for opt in shared:
        sub.add_argument(opt, **_SHARED[opt])
    return sub


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apgaps",
        description="Record gaps between primes in arithmetic progressions",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p = _subcommand(subs, "scan", cmd_scan, "enumerate gap events per residue class",
                    "--r", "--out", "--format", *_SIEVING, *_TREND)
    p.add_argument("--x-max", required=True, help="scan primes up to this bound")

    p = _subcommand(subs, "fit", cmd_fit, "rescale events and fit Gumbel / GEV",
                    "--r", "--out", *_SIEVING, *_TREND)
    p.add_argument("--window", default="1e7:1e9",
                   help="end-prime window lo:hi entering the fit; scans to hi")
    p.add_argument("--bins", type=int, default=53)
    p.add_argument("--samples-csv", default=None,
                   help="fit these rescaled values instead of scanning")

    p = _subcommand(subs, "counts", cmd_counts,
                    "mean record counts per interval (e^j, e^{j+1}]", "--out", *_SIEVING)
    p.add_argument("--j-max", type=int, required=True)
    p.add_argument("--fit-hyperbola", action="store_true",
                   help="also report a 2 - kappa/(j+delta) least-squares fit")

    p = _subcommand(subs, "brun", cmd_brun, "generalized Brun partial sums and estimates",
                    "--r", "--out", *_SIEVING)
    p.add_argument("--d", type=int, required=True, help="gap size")
    p.add_argument("--x-max", required=True)
    p.add_argument("--points", type=int, default=16, help="checkpoints on the curve")

    p = _subcommand(subs, "meanprod", cmd_meanprod,
                    "exact mean singular product over r + nq", "--out")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--empirical-n", type=int, default=None,
                   help="also average the first N progression terms")

    p = _subcommand(subs, "predict", cmd_predict, "first-occurrence location heuristic")
    p.add_argument("--d", type=int, required=True)

    p = _subcommand(subs, "probe", cmd_probe, "P(T0(q,x),q)/x ratios against e^{-1/2}")
    p.add_argument("--x", default="1e6,1e9,1e12", help="comma list of x values")

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        for name, (lo, hi) in _RANGES.items():
            val = getattr(args, name, None)
            if val is not None and not lo <= val <= hi:
                raise UsageError(f"{name.replace('_', '-')} must be at least {lo}"
                                 + (f" and at most {hi}" if hi < math.inf else ""))
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (ValueError, ArithmeticError, LookupError, MemoryError,
            evstats.FitConvergenceError, OSError) as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
