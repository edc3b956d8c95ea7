#!/usr/bin/env python3
"""Benchmark of the apgaps command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload fit-q211 --seed 1 --seconds 30 --trace 0

One run repeats whole rounds of CLI invocations while another round is
expected to end within --seconds. A round runs the workload's command once
at threads = nproc and once at threads = 1, each in a fresh interpreter;
with --trace 1 it adds a traced invocation at threads = nproc. Every
invocation is an operation: it fails when the command exits non-zero, when
its outputs disagree with references computed apart from the program, or
when its files differ from those of the threads = nproc invocation of the
same round.

The last line of standard output is one JSON object with the run's
accounting and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1. See README.md in this directory.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import reference
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

OP_TIMEOUT_S = 120

# CPU seconds of child._calibrate on the 2-vCPU VM that measured the
# reference figures, in a quiet phase of its host. The bounded timings are
# CPU seconds scaled to that speed, so that the host's slow swings in speed
# (2.4x in CPU time within minutes) cancel out.
CAL_REF_S = 0.2

# metric names and units, as BENCHMARK.json at the repository root lists them
UNITS = {kind: {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
         for kind in ("end_to_end", "per_layer")}


def _rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """One CLI command, the references it is checked against, and the checks."""

    x_max: int
    argv: list[str]

    def prepare(self, seed: int) -> dict:
        """References for the checks, computed before anything is timed."""
        raise NotImplementedError

    def capture(self, ref: dict):
        """What child.py should keep from inside the command, if anything."""
        return None

    def kept_primes(self, ref: dict) -> int:
        """Primes up to x_max in the classes the command asks for."""
        raise NotImplementedError

    def check(self, op: dict, ref: dict) -> list[str]:
        """Problems found in one invocation's outputs."""
        raise NotImplementedError


class FitQ211(Workload):
    """apgaps fit over all 210 classes mod 211: the paper's headline fit."""

    q = 211
    x_max = 5 * 10**7
    window = (10**7, x_max)
    argv = ["fit", "--q", "211", "--r", "all", "--window", "1e7:5e7"]
    n_classes = 4  # classes checked event by event
    n_rescaled = 12  # rescaled values recomputed with mpmath

    def prepare(self, seed: int) -> dict:
        rng = random.Random(seed)
        classes = sorted(rng.sample([r for r in range(1, self.q)
                                     if math.gcd(r, self.q) == 1], self.n_classes))
        return {
            "classes": classes,
            "events": {r: reference.record_events(reference.class_primes(self.q, r, self.x_max))
                       for r in classes},
            "fractions": [rng.random() for _ in range(self.n_rescaled)],
        }

    def capture(self, ref: dict) -> dict:
        return {"classes": ref["classes"], "window": list(self.window)}

    def kept_primes(self, ref: dict) -> int:
        return reference.PI[self.x_max] - 1  # every prime but 211 itself

    def check(self, op: dict, ref: dict) -> list[str]:
        from scipy import stats

        res, out = op["result"], op["dir"] / "out"
        bad = []
        for r in ref["classes"]:
            got = [tuple(e) for e in res["events"][str(r)]]
            if got != ref["events"][r]:
                bad.append(f"events of class {r} mod {self.q} differ from the reference")
        fit = json.loads((out / f"fit_q{self.q}.json").read_text())
        u = np.load(op["dir"] / "fit_sample_0.npy")
        maximal = np.load(op["dir"] / "fit_sample_1.npy")
        picked = res["in_window"]
        if not len(u) == len(picked) == fit["n_samples"]:
            bad.append(f"{len(u)} samples fitted, {len(picked)} events in window, "
                       f"n_samples {fit['n_samples']}")
        else:
            for i in (int(f * len(u)) for f in ref["fractions"]):
                r, end, size = picked[i]
                want = reference.rescaled_gap(self.q, end, size)
                if abs(u[i] - want) > 1e-9 * max(1.0, abs(want)):
                    bad.append(f"rescaled gap {size} at {end} (r={r}) is {u[i]!r}, "
                               f"mpmath gives {want!r}")
        loc, scale = stats.gumbel_r.fit(u)
        if _rel(fit["alpha"], scale) > 1e-9 or _rel(fit["mu"], loc) > 1e-9:
            bad.append(f"Gumbel fit ({fit['alpha']}, {fit['mu']}) vs scipy ({scale}, {loc})")
        ks = stats.kstest(u, "gumbel_r", args=(fit["mu"], fit["alpha"])).statistic
        if _rel(fit["ks_all"], ks) > 1e-9:
            bad.append(f"ks_all {fit['ks_all']} vs scipy {ks}")
        mloc, mscale = stats.gumbel_r.fit(maximal)
        mks = stats.kstest(maximal, "gumbel_r", args=(mloc, mscale)).statistic
        if _rel(fit["ks_maximal_only"], mks) > 1e-9:
            bad.append(f"ks_maximal_only {fit['ks_maximal_only']} vs scipy {mks}")
        hist = _read_csv(out / f"hist_q{self.q}.csv")
        if sum(int(row["count"]) for row in hist) != fit["n_samples"]:
            bad.append("histogram counts do not sum to n_samples")
        if not (0.7 <= fit["alpha"] <= 1.0 and fit["ks_all"] < 0.05):
            bad.append(f"alpha {fit['alpha']} or KS {fit['ks_all']} outside criterion 6")
        return bad


class ScanQ6(Workload):
    """apgaps scan of the single class 1 mod 6."""

    q, r = 6, 1
    x_max = 10**8
    argv = ["scan", "--q", "6", "--r", "1", "--x-max", "1e8"]

    def prepare(self, seed: int) -> dict:
        primes = reference.class_primes(self.q, self.r, self.x_max)
        return {"events": reference.record_events(primes), "class_primes": len(primes)}

    def kept_primes(self, ref: dict) -> int:
        return ref["class_primes"]

    def check(self, op: dict, ref: dict) -> list[str]:
        rows = _read_csv(op["dir"] / "out" / f"events_q{self.q}_r{self.r}.csv")
        got = []
        for i, row in enumerate(rows, 1):
            is_max = row["kind"] == "maximal"
            got.append((int(row["start_prime"]), int(row["end_prime"]), int(row["size"]),
                        is_max, int(row["n"]) if is_max else None,
                        i if is_max else int(row["n"])))
            csg = int(row["size"]) / (2 * math.log(int(row["end_prime"])) ** 2)
            if row["csg"] != format(csg, ".10g"):
                return [f"csg {row['csg']} of event {i}, expected {csg:.10g}"]
        # a maximal row carries its maximal index, so its fo index is its position
        if got != ref["events"]:
            return [f"{len(got)} events differ from the {len(ref['events'])} of the reference"]
        return []


class BrunTwin(Workload):
    """apgaps brun over twin primes: Brun's constant partial sum."""

    x_max = 10**8
    argv = ["brun", "--d", "2", "--q", "2", "--r", "1", "--x-max", "1e8"]

    def prepare(self, seed: int) -> dict:
        pi, lows = reference.twin_primes(self.x_max)
        return {"pi": pi, "pairs": len(lows), "sum": reference.brun_sum(lows)}

    def kept_primes(self, ref: dict) -> int:
        return ref["pi"] - 1  # every prime but 2

    def check(self, op: dict, ref: dict) -> list[str]:
        bad = []
        if ref["pi"] != reference.PI[self.x_max]:
            bad.append(f"reference sieve finds pi(x) = {ref['pi']}")
        report = json.loads((op["dir"] / "stdout.txt").read_text())
        if report["pair_count"] != ref["pairs"]:
            bad.append(f"pair_count {report['pair_count']}, reference {ref['pairs']}")
        if _rel(report["partial_sum"], ref["sum"]) > 1e-12:
            bad.append(f"partial_sum {report['partial_sum']!r}, fsum {ref['sum']!r}")
        sums = [float(row["partial_sum"]) for row in _read_csv(Path(report["curve"]))]
        if any(b < a for a, b in zip(sums, sums[1:])):
            bad.append("checkpoint sums are not monotone")
        return bad


WORKLOADS = {"fit-q211": FitQ211(), "scan-q6": ScanQ6(), "brun-twin": BrunTwin()}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def invoke(op_dir: Path, argv, *, trace=False, capture=None) -> dict:
    """Run child.py once; returns its report with the set-up time added."""
    op_dir.mkdir(parents=True)
    spec = {"argv": argv, "trace": trace, "capture": capture,
            "result": str(op_dir / "result.json"), "spans": str(op_dir / "spans.json")}
    (op_dir / "spec.json").write_text(json.dumps(spec))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(op_dir / "stdout.txt", "wb") as out, open(op_dir / "stderr.txt", "wb") as err:
        t_spawn = time.monotonic()
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), str(op_dir / "spec.json")],
                                stdout=out, stderr=err, env=env, cwd=op_dir)
        try:
            proc.wait(timeout=OP_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not (op_dir / "result.json").exists():
        return {"rc": proc.returncode, "crashed": True}
    res = json.loads((op_dir / "result.json").read_text())
    res["setup_s"] = res["t_ready"] - t_spawn
    if "cal_cpu_s" in res:  # absent from the set-up probe
        res["speed"] = CAL_REF_S / res["cal_cpu_s"]
    res["crashed"] = res.get("rc", 0) != 0
    return res


def same_files(a: Path, b: Path) -> list[str]:
    names_a = sorted(p.name for p in a.iterdir())
    names_b = sorted(p.name for p in b.iterdir())
    if names_a != names_b:
        return [f"file sets differ: {names_a} vs {names_b}"]
    return [f"{n} differs from the threads = nproc output" for n in names_a
            if (a / n).read_bytes() != (b / n).read_bytes()]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[workload]
    threads = nproc()
    work = WORK / workload
    shutil.rmtree(work, ignore_errors=True)
    ref = wl.prepare(seed)
    capture = wl.capture(ref)

    # an import-only interpreter first compiles bytecode and fills the file cache
    if invoke(work / "warmup", None)["crashed"]:
        raise RuntimeError(f"importing apgaps failed; see {work / 'warmup'}")
    plan = [(threads, False), (1, False)] + ([(threads, True)] if trace else [])
    ops = []
    start = time.monotonic()
    rnd = 0
    longest = 0.0
    # another round starts only if one as long as the longest so far still
    # ends within the run's seconds; the first round always runs
    while rnd == 0 or time.monotonic() - start + longest <= seconds:
        t_round = time.monotonic()
        round_ops = []
        for t, traced in plan:
            op_dir = work / f"r{rnd}-t{t}{'-traced' if traced else ''}"
            argv = wl.argv + ["--threads", str(t), "--out", str(op_dir / "out")]
            res = invoke(op_dir, argv, trace=traced, capture=capture)
            op = {"threads": t, "traced": traced, "dir": op_dir, "result": res,
                  "crashed": res["crashed"], "problems": []}
            if not op["crashed"]:
                try:
                    op["problems"] = wl.check(op, ref)
                except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                    op["problems"] = [f"unreadable output: {exc!r}"]
                if round_ops and not round_ops[0]["crashed"]:
                    op["problems"] += same_files(round_ops[0]["dir"] / "out", op_dir / "out")
            round_ops.append(op)
        ops += round_ops
        rnd += 1
        longest = max(longest, time.monotonic() - t_round)

    ok = [op for op in ops if not op["crashed"]]

    def median(key, threads_=None, traced=False, scaled=False):
        """Median of one result field over the ok operations of one kind;
        threads_ None takes both thread counts. scaled puts CPU seconds
        at the reference speed."""
        vals = [op["result"][key] * (op["result"]["speed"] if scaled else 1) for op in ok
                if threads_ in (None, op["threads"]) and op["traced"] == traced]
        return statistics.median(vals) if vals else math.nan

    if trace:
        kept = wl.kept_primes(ref)
        per_op = []
        for op in ok:
            if op["traced"]:
                records = json.loads((op["dir"] / "spans.json").read_text())
                m = spans.layer_metrics(records, kept)
                if m["sieve.primes"] != reference.PI[wl.x_max]:
                    op["problems"].append(f"traced sieve.primes {m['sieve.primes']}")
                per_op.append(m)
        values = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]} if per_op else {}
        values["trace.overhead_s"] = (median("cpu_s", threads, True, scaled=True)
                                      - median("cpu_s", threads, scaled=True))
        # wall times and raw CPU times swing with the host, so they carry no bound
        values["cli.wall_s"] = median("wall_s", threads)
        values["cli.wall_1t_s"] = median("wall_s", 1)
        values["cli.setup_wall_s"] = median("setup_s")
        values["calib.cpu_s"] = CAL_REF_S / median("speed")
        units = UNITS["per_layer"]
    else:
        # CPU time, not wall time: on a shared host the wall clock also counts
        # the time other tenants hold the CPU
        values = {
            "setup_s": median("setup_cpu_s", scaled=True),
            "cpu_s": median("cpu_s", threads, scaled=True),
            "cpu_1t_s": median("cpu_s", 1, scaled=True),
            "peak_rss_mb": median("peak_rss_mb", threads),
        }
        units = UNITS["end_to_end"]
    for op in ops:
        if op["crashed"] or op["problems"]:
            print(f"{workload} {op['dir'].name}: rc={op['result'].get('rc')} "
                  f"{'; '.join(op['problems'])}", file=sys.stderr)
    if any(math.isnan(values.get(k, math.nan)) for k in units):
        raise RuntimeError("no operation completed, so there is nothing to report")
    return {
        "correct": not any(op["problems"] for op in ops),
        "attempted": len(ops),
        "failed": sum(1 for op in ops if op["crashed"] or op["problems"]),
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in units.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "apgaps" / "cli.py").is_file():
        print(f"perfbench: no apgaps sources under {SRC}; run from a checkout of the "
              "repository", file=sys.stderr)
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for name, m in out["metrics"].items():
        print(f"{args.workload:10s} {name:22s} {m['value']:>16.10g} {m['unit']}")
    print(f"{args.workload:10s} operations attempted {out['attempted']}, failed {out['failed']}, "
          f"correct {out['correct']}")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
