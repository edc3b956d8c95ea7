import csv
import json
import math
import warnings

import numpy as np
import pytest

from apgaps import evstats, trend
from apgaps.cli import (
    EXIT_BAD_INPUT,
    EXIT_BUDGET,
    EXIT_COMPUTE,
    EXIT_OK,
    main,
)
from apgaps.gapscan import scan
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
        rc = run("fit", "--q", "6", "--r", "5", "--x-max", "50",
                 "--window", "1:50", "--out", str(tmp_path))
        assert rc == EXIT_COMPUTE

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
        rc = run("counts", "--q", "6", "--j-max", "10", "--fit-hyperbola",
                 "--out", str(tmp_path))
        assert rc == EXIT_OK
        summary = json.loads(capsys.readouterr().out)
        assert "kappa" in summary["hyperbola"]


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
