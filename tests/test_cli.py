import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import apgaps
from apgaps import brun, evstats, gapscan, numutil, trend
from apgaps.brun import brun_partial_sum
from apgaps.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_COMPUTE,
    EXIT_OK,
    MAX_EMPIRICAL_N,
    main,
)
from apgaps.gapscan import interval_record_table, scan
from apgaps.sieve import ResidueClass

from _oracles import gumbel_samples


def run(*argv):
    return main(list(argv))


class TestScanCommand:
    def test_small_scan_outputs(self, tmp_path, capsys):
        rc = run("scan", "--q", "6", "--r", "5", "--x-max", "50",
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert summary["events"] == 2
        per_r = tmp_path / "events_q6_r5.csv"
        merged = tmp_path / "events_q6_merged.csv"
        trend_file = tmp_path / "trend_q6.csv"
        assert per_r.exists() and merged.exists() and trend_file.exists()
        rows = list(csv.DictReader(per_r.open()))
        assert [int(r["size"]) for r in rows] == [6, 12]

    def test_matches_library(self, tmp_path):
        rc = run("scan", "--q", "211", "--r", "1..20", "--x-max", "1e6",
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        for r in range(1, 21):
            if math.gcd(r, 211) != 1:
                continue
            res = scan(ResidueClass(211, r), 10**6)
            rows = list(csv.DictReader((tmp_path / f"events_q211_r{r}.csv").open()))
            assert len(rows) == len(res.events)
            for row, ev in zip(rows, res.events):
                assert int(row["start_prime"]) == ev.start_prime
                assert int(row["end_prime"]) == ev.end_prime
                assert int(row["size"]) == ev.size

    def test_merged_sorted_by_r_then_end(self, tmp_path):
        run("scan", "--q", "6", "--r", "all", "--x-max", "1e4",
            "--out", str(tmp_path))
        rows = list(csv.DictReader((tmp_path / "events_q6_merged.csv").open()))
        keys = [(int(r["r"]), int(r["end_prime"])) for r in rows]
        assert keys == sorted(keys)

    def test_json_format(self, tmp_path):
        rc = run("scan", "--q", "6", "--r", "5", "--x-max", "50",
                 "--format", "json", "--out", str(tmp_path))
        assert rc == EXIT_OK
        data = json.loads((tmp_path / "events_q6_r5.json").read_text())
        assert data[0]["size"] == 6

    def test_gcd_violation_exit_2(self):
        assert run("scan", "--q", "4", "--r", "2", "--x-max", "100") == EXIT_BAD_INPUT

    def test_budget_exit_3(self):
        assert run("scan", "--q", "6", "--r", "1", "--x-max", "1e11") == EXIT_BUDGET

    def test_csv_round_trip_precision(self, tmp_path):
        run("scan", "--q", "2", "--r", "1", "--x-max", "1e5", "--out", str(tmp_path))
        res = scan(ResidueClass(2, 1), 10**5)
        rows = list(csv.DictReader((tmp_path / "events_q2_r1.csv").open()))
        for row, ev in zip(rows, res.events):
            assert float(row["csg"]) == pytest.approx(ev.csg, rel=1e-9)

    def test_trend_overrides_change_only_tf(self, tmp_path):
        base, over = tmp_path / "base", tmp_path / "over"
        argv = ("scan", "--q", "6", "--r", "1", "--x-max", "1e4")
        assert run(*argv, "--out", str(base)) == EXIT_OK
        assert run(*argv, "--out", str(over), "--c0", "3", "--c1", "1") == EXIT_OK
        for name in ("events_q6_r1.csv", "events_q6_merged.csv"):
            assert (over / name).read_bytes() == (base / name).read_bytes()
        params = dataclasses.replace(trend.default_params(6), c0=3.0, c1=1.0)
        rows = list(csv.DictReader((over / "trend_q6.csv").open()))
        assert rows
        assert [r["tf"] for r in rows] == [
            format(trend.fo_trend(6, int(r["p"]), params), ".10g") for r in rows]
        base_rows = list(csv.DictReader((base / "trend_q6.csv").open()))
        assert [(r["p"], r["t0"]) for r in rows] == [(r["p"], r["t0"]) for r in base_rows]
        assert [r["tf"] for r in rows] != [r["tf"] for r in base_rows]


class TestExports:
    """The events files of scan against the library's events, field by field."""

    @pytest.fixture()
    def res(self):
        return scan(ResidueClass(6, 5), 10**4)

    def test_csv_round_trip(self, res, tmp_path):
        assert run("scan", "--q", "6", "--r", "5", "--x-max", "1e4",
                   "--out", str(tmp_path)) == EXIT_OK
        with open(tmp_path / "events_q6_r5.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == len(res.events)
        by_size = {e.size: e for e in res.events}
        for row in rows:
            ev = by_size[int(row["size"])]
            assert int(row["q"]) == 6 and int(row["r"]) == 5
            assert int(row["start_prime"]) == ev.start_prime
            assert int(row["end_prime"]) == ev.end_prime
            expected_kind = "maximal" if ev.is_maximal else "first_occurrence"
            assert row["kind"] == expected_kind
            n = ev.maximal_index if ev.is_maximal else ev.fo_index
            assert int(row["n"]) == n
            assert float(row["csg"]) == pytest.approx(ev.csg, rel=1e-9)

    def test_json_round_trip(self, res, tmp_path):
        assert run("scan", "--q", "6", "--r", "5", "--x-max", "1e4", "--format", "json",
                   "--out", str(tmp_path)) == EXIT_OK
        data = json.loads((tmp_path / "events_q6_r5.json").read_text())
        assert len(data) == len(res.events)
        for item, ev in zip(data, res.events):
            assert item["size"] == ev.size
            assert item["csg"] == ev.csg  # full precision in JSON

    def test_json_refuses_non_finite(self, res, tmp_path, monkeypatch, capsys):
        bad = dataclasses.replace(res, events=[res.events[0]._replace(csg=math.inf)])
        monkeypatch.setattr(gapscan, "scan_many", lambda *args, **kwargs: {5: bad})
        rc = run("scan", "--q", "6", "--r", "5", "--x-max", "1e4", "--format", "json",
                 "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert rc == EXIT_COMPUTE
        assert captured.out == "" and "JSON" in captured.err
        assert not list(tmp_path.glob("events_*"))

    def test_json_refusal_in_one_class_writes_no_class(self, res, tmp_path, monkeypatch,
                                                         capsys):
        good = scan(ResidueClass(6, 1), 10**4)
        bad = dataclasses.replace(res, events=[res.events[0]._replace(csg=math.inf)])
        monkeypatch.setattr(gapscan, "scan_many", lambda *args, **kwargs: {1: good, 5: bad})
        rc = run("scan", "--q", "6", "--r", "all", "--x-max", "1e4", "--format", "json",
                 "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert rc == EXIT_COMPUTE
        assert captured.out == "" and "JSON" in captured.err
        assert not list(tmp_path.glob("events_*"))


class TestFitCommand:
    def test_synthetic_injection(self, tmp_path, capsys):
        u = gumbel_samples(np.random.default_rng(42), 20000, 0.9, 0.3)
        path = tmp_path / "u.csv"
        path.write_text("u\n" + "\n".join(repr(float(v)) for v in u) + "\n")
        rc = run("fit", "--q", "2", "--samples-csv", str(path),
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        report = json.loads((tmp_path / "fit_q2.json").read_text())
        assert report["alpha"] == pytest.approx(0.9, abs=0.02)
        assert report["mu"] == pytest.approx(0.3, abs=0.02)
        assert report["n_samples"] == 20000
        assert abs(report["gev_shape"]) <= 0.05
        assert (tmp_path / "hist_q2.csv").exists()
        assert (tmp_path / "pdf_q2.csv").exists()

    def test_gev_failure_keeps_gumbel_fit(self, tmp_path, monkeypatch):
        u = gumbel_samples(np.random.default_rng(7), 500, 1.0, 0.0)
        path = tmp_path / "u.csv"
        path.write_text("u\n" + "\n".join(repr(float(v)) for v in u) + "\n")
        args = ("fit", "--q", "2", "--samples-csv", str(path), "--out", str(tmp_path))
        assert run(*args) == EXIT_OK
        ok = json.loads((tmp_path / "fit_q2.json").read_text())
        assert "gev_error" not in ok

        def fail(samples, *a, **kw):
            raise evstats.FitConvergenceError("GEV optimization failed: test")

        monkeypatch.setattr(evstats, "fit_gev", fail)
        assert run(*args) == EXIT_OK
        report = json.loads((tmp_path / "fit_q2.json").read_text())
        assert report["gev_shape"] is None
        assert report["gev_error"] == "GEV optimization failed: test"
        assert (report["alpha"], report["mu"]) == (ok["alpha"], ok["mu"])

    def test_scanned_fit_matches_library(self, tmp_path, capsys):
        rc = run("fit", "--q", "6", "--r", "all", "--window", "1e3:1e6",
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        results = {c: scan(ResidueClass(6, c), 10**6) for c in (1, 5)}
        want = np.array([trend.rescale(ev, results[c].cls)
                         for c in (1, 5) for ev in results[c].events
                         if 10**3 <= ev.end_prime <= 10**6])
        got = json.loads((tmp_path / "fit_q6.json").read_text())
        fit = evstats.fit_gumbel(want)
        assert (got["alpha"], got["mu"], got["n_samples"]) == (fit.scale, fit.mode, want.size)

    def test_too_few_events_exit_4(self, tmp_path):
        rc = run("fit", "--q", "6", "--r", "5", "--window", "1:50", "--out", str(tmp_path))
        assert rc == EXIT_COMPUTE

    def test_too_few_samples_exit_2(self, tmp_path, capsys):
        path = tmp_path / "u.csv"
        path.write_text("u\n0.5\n1.0\n1.5\n")
        rc = run("fit", "--q", "2", "--samples-csv", str(path),
                 "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert rc == EXIT_BAD_INPUT
        assert captured.out == "" and f"{path} holds 3 samples" in captured.err
        assert not (tmp_path / "out").exists()

    def test_missing_samples_file_exit_2(self, tmp_path, capsys):
        path = tmp_path / "missing.csv"
        rc = run("fit", "--q", "2", "--samples-csv", str(path),
                 "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert rc == EXIT_BAD_INPUT
        assert captured.out == "" and f"cannot read samples file {path}" in captured.err
        assert not (tmp_path / "out").exists()

    def test_histogram_density_consistent(self, tmp_path):
        u = gumbel_samples(np.random.default_rng(1), 5000, 1.0, 0.0)
        path = tmp_path / "u.csv"
        path.write_text("u\n" + "\n".join(repr(float(v)) for v in u) + "\n")
        run("fit", "--q", "2", "--samples-csv", str(path), "--bins", "20",
            "--out", str(tmp_path))
        rows = list(csv.DictReader((tmp_path / "hist_q2.csv").open()))
        assert len(rows) == 20
        total = sum(int(r["count"]) for r in rows)
        assert total == 5000
        for r in rows:
            width = float(r["bin_hi"]) - float(r["bin_lo"])
            want = int(r["count"]) / (5000 * width)
            assert float(r["density"]) == pytest.approx(want, rel=1e-6)

    @pytest.mark.parametrize("bad", ["abc", "nan", "inf"])
    def test_bad_sample_exit_2(self, bad, tmp_path, capsys):
        path = tmp_path / "u.csv"
        path.write_text("u\n0.5\n" + bad + "\n1.5\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = run("fit", "--q", "2", "--samples-csv", str(path),
                     "--out", str(tmp_path / "out"))
        captured = capsys.readouterr()
        assert rc == EXIT_BAD_INPUT
        assert captured.out == "" and "line 3" in captured.err
        assert not (tmp_path / "out").exists()


class TestCountsCommand:
    def test_ten_rows(self, tmp_path, capsys):
        rc = run("counts", "--q", "6", "--j-max", "10", "--out", str(tmp_path))
        assert rc == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "counts_q6.csv").open()))
        assert len(rows) == 10
        assert [int(r["j"]) for r in rows] == list(range(1, 11))

    def test_budget_exit_3(self, tmp_path):
        rc = run("counts", "--q", "6", "--j-max", "25", "--budget", "1e6",
                 "--out", str(tmp_path))
        assert rc == EXIT_BUDGET

    def test_hyperbola_report(self, tmp_path, capsys):
        # the in-package fit fits no worse than scipy's curve_fit, the reference
        from scipy.optimize import curve_fit

        def model(j, kappa, delta):
            return 2.0 - kappa / (j + delta)

        for q, j_max in ((2, 13), (6, 12), (30, 12)):
            rc = run("counts", "--q", str(q), "--j-max", str(j_max), "--fit-hyperbola",
                     "--out", str(tmp_path))
            assert rc == EXIT_OK
            fit = json.loads(capsys.readouterr().out)["hyperbola"]
            table = interval_record_table(q, j_max)
            js = np.array([row[0] for row in table], dtype=float)
            means = np.array([row[2] for row in table], dtype=float)
            ref, _ = curve_fit(model, js, means, p0=(3.0, 2.0), maxfev=10000)

            def sse(kappa, delta):
                r = model(js, kappa, delta) - means
                return float(r @ r)

            assert sse(fit["kappa"], fit["delta"]) <= sse(*ref) * (1 + 1e-12)
            assert fit["kappa"] == pytest.approx(ref[0], rel=1e-3)
            assert fit["delta"] == pytest.approx(ref[1], rel=1e-3)

    def test_non_finite_hyperbola_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(evstats, "fit_hyperbola", lambda js, means: (math.nan, 2.0))
        rc = run("counts", "--q", "6", "--j-max", "8", "--fit-hyperbola",
                 "--out", str(tmp_path))
        captured = capsys.readouterr()
        assert rc == EXIT_COMPUTE
        assert captured.out == "" and "JSON" in captured.err

    def test_too_few_points_for_the_hyperbola(self, tmp_path, capsys):
        assert run("counts", "--q", "6", "--j-max", "1", "--fit-hyperbola",
                   "--out", str(tmp_path)) == EXIT_OK
        assert "2 points" in json.loads(capsys.readouterr().out)["hyperbola"]["error"]


class TestSmallCommands:
    def test_meanprod_case_d(self, capsys):
        assert run("meanprod", "--q", "30", "--r", "3") == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["multiplier"] == "45/32"

    def test_meanprod_empirical(self, capsys):
        rc = run("meanprod", "--q", "3", "--r", "1", "--empirical-n", "10000")
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["rel_diff"] < 0.01

    def test_meanprod_out_of_memory_exit_4(self, monkeypatch, capsys):
        def exhaust(*args):
            raise MemoryError("Unable to allocate 7.45 GiB")

        monkeypatch.setattr(brun, "empirical_singular_mean", exhaust)
        # the cap itself passes the check; above it the run exits 2 before any work
        rc = run("meanprod", "--q", "3", "--r", "1", "--empirical-n", str(MAX_EMPIRICAL_N))
        captured = capsys.readouterr()
        assert rc == EXIT_COMPUTE
        assert captured.out == "" and "computation error" in captured.err

    def test_meanprod_bad_r(self):
        assert run("meanprod", "--q", "10", "--r", "10") == EXIT_BAD_INPUT

    def test_predict(self, capsys):
        assert run("predict", "--q", "2", "--d", "100") == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["location"] == pytest.approx(10 * math.exp(10), rel=1e-9)

    def test_predict_overflow_is_valid_json(self, capsys):
        assert run("predict", "--q", "2", "--d", "10000000") == EXIT_OK

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert out["location"] is None and out["upper"] is None

    def test_predict_past_float_range_prints_nulls(self, capsys):
        # d / phi(q) overflows a float; the location is inf, printed as null
        assert run("predict", "--q", "2", "--d", str(10**310)) == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["d"] == 10**310
        assert (out["location"], out["lower"], out["upper"]) == (None, None, None)

    def test_probe_names_x_where_t0_is_below_one(self, capsys):
        assert run("probe", "--q", "2", "--x", "1e6,2.5") == EXIT_COMPUTE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "T0(2, 2.5) = 0.159111" in captured.err and "d must be" not in captured.err

    def test_probe(self, capsys):
        rc = run("probe", "--q", "2", "--x", "1e6,1e9,1e12")
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        r = out["ratio"]
        assert r[0] < r[1] < r[2] < out["limit"]

    def test_brun_curve(self, tmp_path, capsys):
        rc = run("brun", "--q", "2", "--r", "1", "--d", "2", "--x-max", "1e5",
                 "--points", "4", "--out", str(tmp_path))
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["pair_count"] == 1224  # twin pairs below 1e5
        rows = list(csv.DictReader((tmp_path / "brun_d2_q2_r1.csv").open()))
        sums = [float(r["partial_sum"]) for r in rows]
        assert sums == sorted(sums)

    def test_brun_inadmissible_gap_estimates_zero(self, tmp_path, capsys):
        # no gap in a class mod 4 has size 2: no pair and no estimate
        rc = run("brun", "--q", "4", "--r", "1", "--d", "2", "--x-max", "1e4",
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert (out["pair_count"], out["partial_sum"]) == (0, 0.0)
        assert (out["estimate_at_x_max"], out["estimate_limit"]) == (0.0, 0.0)
        rows = list(csv.DictReader((tmp_path / "brun_d2_q4_r1.csv").open()))
        assert rows and {r["estimate"] for r in rows} == {"0"}

    def test_brun_factors_q_once(self, monkeypatch, tmp_path, capsys):
        # every checkpoint's estimate takes phi(q); the totient cache factors once
        calls = []
        factors = numutil._prime_factors
        monkeypatch.setattr(numutil, "_prime_factors", lambda n: calls.append(n) or factors(n))
        numutil.totient.cache_clear()
        rc = run("brun", "--q", "1000003", "--r", "1", "--d", "2000006", "--x-max", "1e7",
                 "--points", "50", "--out", str(tmp_path))
        assert rc == EXIT_OK
        rows = list(csv.DictReader((tmp_path / "brun_d2000006_q1000003_r1.csv").open()))
        assert len(rows) == 50 and calls == [1000003]

    @pytest.mark.parametrize("x_max", [3, 50, 99])
    def test_brun_stops_at_small_x_max(self, x_max, tmp_path, capsys):
        rc = run("brun", "--q", "2", "--r", "1", "--d", "2", "--x-max", str(x_max),
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        want = brun_partial_sum(2, ResidueClass(2, 1), x_max)
        assert (out["partial_sum"], out["pair_count"]) == (want.partial_sum, want.pair_count)
        rows = list(csv.DictReader((tmp_path / "brun_d2_q2_r1.csv").open()))
        assert rows and max(int(r["x"]) for r in rows) == x_max

    @pytest.mark.parametrize("x_max", [2**63 - 1, 2**53 + 3])
    def test_brun_checkpoints_end_at_x_max(self, x_max, monkeypatch, tmp_path, capsys):
        # geomspace points above 2^53 round through float; none may pass x_max
        seen = []

        def no_sieve(d, cls, xs, *, threads=1):
            seen.extend(xs)
            return [brun.BrunSum(d=d, cls=cls, x=x, partial_sum=0.0, pair_count=0)
                    for x in xs]

        monkeypatch.setattr(brun, "brun_growth", no_sieve)
        rc = run("brun", "--q", "2", "--r", "1", "--d", "2", "--x-max", str(x_max),
                 "--budget", "1e19", "--out", str(tmp_path))
        assert rc == EXIT_OK
        assert seen and all(x <= x_max for x in seen) and seen[-1] == x_max
        assert json.loads(capsys.readouterr().out)["x_max"] == x_max
        rows = list(csv.DictReader((tmp_path / "brun_d2_q2_r1.csv").open()))
        assert int(rows[-1]["x"]) == x_max

    @pytest.mark.parametrize("argv,option", [
        (("fit", "--q", "6", "--window", "1e3:1e5", "--bins", "0"), "bins"),
        (("brun", "--q", "2", "--r", "1", "--d", "2", "--x-max", "1e4", "--points", "-1"),
         "points"),
        (("meanprod", "--q", "3", "--r", "1", "--empirical-n", "-5"), "empirical-n"),
        (("meanprod", "--q", "3", "--r", "1", "--empirical-n", "0"), "empirical-n"),
        # the removed trend options: argparse names them as unrecognized
        (("scan", "--q", "6", "--r", "1", "--x-max", "1000", "--b2", "0"), "b2"),
        (("fit", "--q", "6", "--window", "1e3:1e5", "--b1", "-1"), "b1"),
        (("brun", "--q", "2", "--r", "1", "--d", "2", "--x-max", "1"), "x-max"),
        (("brun", "--q", "6", "--r", "3", "--d", "6", "--x-max", "1000"), "gcd(6, 3)"),
        (("scan", "--q", "6", "--r", "1", "--x-max", "1000", "--c0", "nan"), "--c0"),
        (("fit", "--q", "6", "--window", "1e3:1e6", "--c1", "inf"), "--c1"),
        (("fit", "--q", "6", "--window", "1e3:1e6", "--c0", "-inf"), "--c0"),
    ])
    def test_bad_numeric_option_exit_2(self, argv, option, tmp_path, capsys):
        assert run(*argv, "--out", str(tmp_path / "out")) == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and option in captured.err
        assert not (tmp_path / "out").exists()  # rejected before any work

    def test_bad_trend_override_writes_no_scan_output(self, tmp_path, capsys):
        assert run("scan", "--q", "6", "--r", "1", "--x-max", "1000", "--b2", "0",
                   "--out", str(tmp_path)) == EXIT_BAD_INPUT
        assert not list(tmp_path.glob("events_*")) and not list(tmp_path.glob("trend_*"))

    @pytest.mark.parametrize("x", ["inf", "nan", "0", "2"])
    def test_probe_rejects_bad_x(self, x, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("probe", "--q", "2", "--x", f"1e6,{x}") == EXIT_BAD_INPUT
        captured = capsys.readouterr()
        assert captured.out == "" and "x > 2" in captured.err

    def test_q_too_small(self):
        assert run("probe", "--q", "1") == EXIT_BAD_INPUT

    def test_bad_window(self):
        assert run("fit", "--q", "6", "--window", "10") == EXIT_BAD_INPUT


class TestBounds:
    def test_x_max_parsed_exactly(self, capsys):
        rc = run("scan", "--q", "6", "--r", "1", "--x-max", "1000000000000000001")
        assert rc == EXIT_BUDGET
        assert "1000000000000000001 numbers" in capsys.readouterr().err

    def test_budget_parsed_exactly(self, tmp_path):
        args = ("scan", "--q", "6", "--r", "1", "--x-max", "100", "--out", str(tmp_path))
        assert run(*args, "--budget", "99") == EXIT_BUDGET
        assert run(*args, "--budget", "1e2") == EXIT_OK
        assert run(*args, "--budget", "100.000000000000000001") == EXIT_BAD_INPUT

    @pytest.mark.parametrize("text", ["1.5", "2.5e-1", "0", "-7", "nan", "inf", "1e400", "x"])
    def test_non_integral_bounds_exit_2(self, text):
        assert run("scan", "--q", "6", "--r", "1", "--x-max", text) == EXIT_BAD_INPUT
        assert run("scan", "--q", "6", "--r", "1", "--x-max", "10",
                   "--budget", text) == EXIT_BAD_INPUT


class TestDeterminism:
    def test_threads_do_not_change_bytes(self, tmp_path):
        a, b = tmp_path / "t1", tmp_path / "t8"
        for threads, out in (("1", a), ("8", b)):
            rc = run("scan", "--q", "211", "--r", "1,2,3", "--x-max", "1e6",
                     "--threads", threads, "--out", str(out))
            assert rc == EXIT_OK
        for name in ("events_q211_r1.csv", "events_q211_r2.csv",
                     "events_q211_r3.csv", "events_q211_merged.csv",
                     "trend_q211.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_trend_overlay_matches_scalar_trends(self, tmp_path):
        assert run("scan", "--q", "211", "--r", "1..4", "--x-max", "1e6",
                   "--out", str(tmp_path)) == EXIT_OK
        ends = sorted({ev.end_prime for r in range(1, 5)
                       for ev in scan(ResidueClass(211, r), 10**6).events})
        want = ["p,t0,tf,phi_log2"]
        for p in ends:
            try:
                t0, tf = trend.baseline_trend(211, p), trend.fo_trend(211, p)
            except ValueError:
                continue
            want.append(f"{p},{t0:.10g},{tf:.10g},{210 * math.log(p) ** 2:.10g}")
        assert 1 < len(want) < len(ends) + 1
        assert (tmp_path / "trend_q211.csv").read_text().splitlines() == want

    def test_repeat_run_identical(self, tmp_path):
        a, b = tmp_path / "first", tmp_path / "second"
        for out in (a, b):
            run("counts", "--q", "6", "--j-max", "8", "--out", str(out))
        assert (a / "counts_q6.csv").read_bytes() == (b / "counts_q6.csv").read_bytes()


_IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys

    # modules that none of scan, fit and brun use
    UNUSED = ("scipy", "numpy.polynomial", "concurrent.futures", "logging", "fractions",
              "csv")

    def unused_modules():
        return sorted(m for m in sys.modules
                      if any(m == u or m.startswith(u + ".") for u in UNUSED))

    import apgaps, apgaps.cli
    after_import = unused_modules()
    apgaps.sieve.DEFAULT_SEGMENT_LENGTH = 1 << 15  # several segments: the helper runs
    out = sys.argv[1]
    runs = [
        ["scan", "--q", "6", "--r", "1", "--x-max", "1e5"],
        ["brun", "--d", "2", "--q", "2", "--r", "1", "--x-max", "1e5"],
        ["fit", "--q", "211", "--r", "all", "--window", "1e5:1e6"],
    ]
    codes = []
    for threads in ("1", "2"):
        for argv in runs:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(apgaps.cli.main(argv + ["--threads", threads, "--out", out]))
    fit = json.loads(buf.getvalue())
    print(json.dumps({"codes": codes, "after_import": after_import,
                      "after_runs": unused_modules(), "n_samples": fit["n_samples"],
                      "gev_shape": fit["gev_shape"]}))
""")


_NUMPY_ONLY_PROBE = textwrap.dedent("""
    import contextlib, io, json, sys

    sys.modules["scipy"] = None  # every import of scipy now raises ImportError
    import apgaps.cli

    out = sys.argv[1]
    runs = [
        ["scan", "--q", "6", "--r", "1", "--x-max", "1e5", "--out", out],
        ["fit", "--q", "211", "--r", "all", "--window", "1e5:1e6", "--out", out],
        ["counts", "--q", "6", "--j-max", "8", "--fit-hyperbola", "--out", out],
        ["brun", "--d", "2", "--q", "2", "--r", "1", "--x-max", "1e5", "--out", out],
        ["meanprod", "--q", "3", "--r", "1", "--empirical-n", "1000"],
        ["predict", "--q", "6", "--d", "100"],
        ["probe", "--q", "2", "--x", "1e6"],
    ]
    report = {}
    for argv in runs:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = apgaps.cli.main(argv)
        report[argv[0]] = {"code": code, "out": json.loads(buf.getvalue() or "null")}
    print(json.dumps(report))
""")


def _probe(script: str, out_dir: Path) -> dict:
    """The JSON report that script prints from a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run([sys.executable, "-c", script, str(out_dir)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


@pytest.fixture(scope="module")
def import_probe(tmp_path_factory):
    """_IMPORT_PROBE's report from a fresh interpreter."""
    return _probe(_IMPORT_PROBE, tmp_path_factory.mktemp("probe"))


class TestImports:
    def test_pipeline_commands_load_no_scipy(self, import_probe):
        # scan, brun and a fit that reaches fit_gev, at threads 1 and 2
        assert import_probe["codes"] == [EXIT_OK] * 6
        assert import_probe["n_samples"] >= 50 and import_probe["gev_shape"] is not None
        assert [m for m in import_probe["after_import"] if m.startswith("scipy")] == []
        assert [m for m in import_probe["after_runs"] if m.startswith("scipy")] == []

    def test_every_command_runs_without_scipy(self, tmp_path):
        report = _probe(_NUMPY_ONLY_PROBE, tmp_path)
        assert sorted(report) == sorted(
            ["scan", "fit", "counts", "brun", "meanprod", "predict", "probe"])
        assert {cmd: got["code"] for cmd, got in report.items()} == dict.fromkeys(
            report, EXIT_OK)
        assert sorted(report["counts"]["out"]["hyperbola"]) == ["delta", "kappa"]
        assert report["fit"]["out"]["gev_shape"] is not None
        assert "empirical_mean" in report["meanprod"]["out"]

    def test_import_and_pipeline_runs_load_nothing_unused(self, import_probe):
        # nor numpy.polynomial, concurrent.futures, logging or fractions
        assert import_probe["after_import"] == []
        assert import_probe["after_runs"] == []

    def test_public_names(self):
        assert sorted(apgaps.__all__) == [
            "BrunSum", "BudgetExceededError", "FitConvergenceError", "GapEvent", "GevFit",
            "GumbelFit", "Histogram", "ResidueClass", "ScanResult", "SingularMean",
            "TrendParams", "avg_gap", "baseline_trend", "brun_estimate", "brun_growth",
            "brun_partial_sum", "build_histogram", "default_params",
            "empirical_singular_mean", "fit_gev", "fit_gumbel", "fo_trend",
            "gap_size_counts", "gumbel_cdf", "interval_record_table",
            "inverse_limit_probe", "iter_prime_segments", "ks_statistic", "log_integral",
            "log_integral_many", "maximal_trend", "mean_singular_product",
            "predict_first_occurrence", "rescale", "rescale_many", "scan", "scan_many",
            "singular_product", "tau", "tau_estimate", "totient", "twin_prime_constant",
        ]
        for name in apgaps.__all__:
            assert getattr(apgaps, name) is not None
