"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Criterion 5 is expected to fail: the probe ratio's approach to e^{-1/2} is
O((log log x)^2 / log x), so at x = 1e12 the ratios sit near 0.451 (q = 2)
and 0.225 (q = 211), nowhere near within 0.05 of 0.60653. The assertion is
kept verbatim and red rather than weakened; x would have to reach roughly
1e180 before the stated tolerance could hold.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import apgaps
from apgaps import brun, evstats, gapscan, trend
from apgaps.cli import main as cli_main
from apgaps.sieve import ResidueClass

from _oracles import gumbel_samples, ks_bruteforce, naive_events


def _check(cid: int, name: str, ok: bool, detail: str = "") -> None:
    line = f"[criterion {cid:2d}] {'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f" :: {detail}"
    print(line)
    assert ok, line


def test_criterion_01_exact_multipliers():
    cases = {
        (3, 0): Fraction(3, 2),
        (3, 1): Fraction(3, 4),
        (4, 1): Fraction(1),
        (4, 3): Fraction(1),
        (15, 1): Fraction(45, 64),
        (15, 0): Fraction(15, 8),
        (30, 3): Fraction(45, 32),
    }
    t0 = time.perf_counter()
    bad = {k: brun.mean_singular_product(*k).multiplier
           for k, v in cases.items()
           if brun.mean_singular_product(*k).multiplier != v}
    dt = time.perf_counter() - t0
    _check(1, "exact singular-mean multipliers", not bad and dt < 1.0,
           f"mismatches={bad or 'none'}, {dt:.3f}s")


def test_criterion_02_empirical_convergence():
    t0 = time.perf_counter()
    worst = 0.0
    for q, r in ((3, 0), (3, 1), (4, 1), (15, 1), (15, 0), (30, 3)):
        closed = brun.mean_singular_product(q, r).value
        emp = brun.empirical_singular_mean(q, r, 10**6)
        worst = max(worst, abs(emp - closed) / closed)
    dt = time.perf_counter() - t0
    _check(2, "empirical means within 1% at N=1e6", worst < 0.01 and dt < 30,
           f"worst rel err {worst:.2e}, {dt:.1f}s")


def test_criterion_03_rational_identities():
    t0 = time.perf_counter()
    ok = True
    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47):
        lhs = (Fraction(1, p) * brun.mean_singular_product(p, 0).multiplier
               + Fraction(p - 1, p) * brun.mean_singular_product(p, 1).multiplier)
        ok = ok and lhs == 1
    for q in range(1, 101):
        total = sum(brun.mean_singular_product(q, r).multiplier for r in range(q))
        ok = ok and total == q
    dt = time.perf_counter() - t0
    _check(3, "weighted-average and partition identities", ok and dt < 10,
           f"odd primes to 47 and all q<=100 exact, {dt:.2f}s")


def test_criterion_04_scanner_oracle_equivalence():
    t0 = time.perf_counter()
    mismatch = None
    for q, r in ((2, 1), (6, 5), (6, 1), (211, 1)):
        res = gapscan.scan(ResidueClass(q, r), 10**6)
        want = naive_events(q, r, 10**6)
        if len(res.events) != len(want):
            mismatch = f"({q},{r}) event count {len(res.events)} vs {len(want)}"
            break
        for got, exp in zip(res.events, want):
            if (got.start_prime, got.end_prime, got.size, got.is_maximal,
                    got.maximal_index, got.fo_index) != (
                    exp["start_prime"], exp["end_prime"], exp["size"],
                    exp["is_maximal"], exp["maximal_index"], exp["fo_index"]):
                mismatch = f"({q},{r}) first differing event size {exp['size']}"
                break
        if mismatch:
            break
    dt = time.perf_counter() - t0
    _check(4, "scan equals trial-division oracle at 1e6",
           mismatch is None and dt < 10, f"{mismatch or '4 classes equal'}, {dt:.1f}s")


def test_criterion_05_inverse_trend_limit():
    limit = math.exp(-0.5)
    t0 = time.perf_counter()
    details = []
    ok = True
    for q in (2, 211):
        r1, r2, r3 = trend.inverse_limit_probe(q, [1e6, 1e9, 1e12])
        monotone = abs(r2 - limit) < abs(r1 - limit) and abs(r3 - limit) < abs(r2 - limit)
        close = abs(r3 - 0.60653) < 0.05
        ok = ok and monotone and close
        details.append(f"q={q}: ratios ({r1:.5f}, {r2:.5f}, {r3:.5f}), "
                       f"monotone={monotone}, |r(1e12)-0.60653|="
                       f"{abs(r3 - 0.60653):.5f}")
    dt = time.perf_counter() - t0
    _check(5, "probe ratios within 0.05 of e^-1/2 at 1e12", ok and dt < 5,
           "; ".join(details))


@pytest.mark.slow
def test_criterion_06_gumbel_pipeline_desk_scale(threads):
    t0 = time.perf_counter()
    results = apgaps.scan_many(211, list(range(1, 211)), 10**9, threads=threads)
    params = trend.default_params(211)
    u_all = []
    for r in range(1, 211):
        res = results[r]
        for ev in res.events:
            if 10**7 <= ev.end_prime <= 10**9:
                u_all.append(trend.rescale(ev, res.cls, params))
    fit = evstats.fit_gumbel(np.asarray(u_all))
    dt = time.perf_counter() - t0
    ok = 0.7 <= fit.scale <= 1.0 and fit.ks < 0.05 and dt < 900
    _check(6, "desk-scale Gumbel fit q=211",
           ok, f"alpha={fit.scale:.5f}, mu={fit.mode:.5f}, KS={fit.ks:.5f}, "
               f"n={fit.sample_size}, {dt:.0f}s")


def test_criterion_07_synthetic_fit_recovery():
    t0 = time.perf_counter()
    samples = gumbel_samples(np.random.default_rng(20260816), 10**5, 1.0, 0.0)
    gum = evstats.fit_gumbel(samples)
    gev = evstats.fit_gev(samples)
    dt = time.perf_counter() - t0
    ok = (abs(gum.scale - 1.0) <= 0.02 and abs(gum.mode) <= 0.02
          and abs(gev.shape) <= 0.05 and dt < 5)
    _check(7, "synthetic Gumbel/GEV recovery",
           ok, f"alpha={gum.scale:.4f}, mu={gum.mode:.4f}, "
               f"gev shape={gev.shape}, {dt:.1f}s")


def test_criterion_08_ks_exactness():
    rng = np.random.default_rng(88)
    t0 = time.perf_counter()
    exact = True
    for _ in range(100):
        n = int(rng.integers(1, 51))
        xs = np.sort(rng.normal(loc=rng.uniform(-1, 1), size=n))
        scale = float(rng.uniform(0.5, 2.0))

        def cdf(v, s=scale):
            return evstats.gumbel_cdf(v, s, 0.0)

        if evstats.ks_statistic(xs, cdf) != ks_bruteforce(xs, cdf):
            exact = False
            break
    dt = time.perf_counter() - t0
    _check(8, "KS equals O(n^2) oracle exactly", exact and dt < 10,
           f"100 instances, float-equal={exact}, {dt:.1f}s")


def test_criterion_09_tau_estimate_quality():
    t0 = time.perf_counter()
    worst = 0.0
    for r in (1, 5):
        cls = ResidueClass(6, r)
        counts = gapscan.gap_size_counts(cls, 10**8)
        for d in (6, 12, 18):
            est = brun.tau_estimate(d, cls, 10**8)
            rel = abs(est - counts[d]) / counts[d]
            worst = max(worst, rel)
    dt = time.perf_counter() - t0
    _check(9, "tau estimate within 30% at 1e8", worst < 0.30 and dt < 120,
           f"worst rel err {worst:.3f}, {dt:.0f}s")


def test_criterion_10_brun_sums(threads):
    t0 = time.perf_counter()
    cls = ResidueClass(2, 1)
    growth = brun.brun_growth(2, cls, [10**5, 10**6, 10**7, 10**8],
                              threads=threads)
    sums = [g.partial_sum for g in growth]
    b2_ok = 1.7 < sums[-1] < 1.90216
    monotone = all(a <= b for a, b in zip(sums, sums[1:]))
    b4 = brun.brun_partial_sum(4, cls, 23)
    want_b4 = (1 / 7 + 1 / 11) + (1 / 13 + 1 / 17) + (1 / 19 + 1 / 23)
    excl_ok = b4.pair_count == 3 and abs(b4.partial_sum - want_b4) < 1e-12
    dt = time.perf_counter() - t0
    _check(10, "Brun partial sums", b2_ok and monotone and excl_ok and dt < 120,
           f"B2(1e8)={sums[-1]:.6f}, monotone={monotone}, "
           f"(3,7) excluded={excl_ok}, {dt:.0f}s")


def test_criterion_11_record_bound_conjectures(threads):
    t0 = time.perf_counter()
    sampled = {2: [1], 6: [1, 5], 30: [1, 7, 11, 29],
               210: [1, 11, 107, 209], 1009: [1, 2, 504, 1008]}
    violations = []
    for q, rs in sampled.items():
        results = apgaps.scan_many(q, rs, 10**8, threads=threads)
        for r in rs:
            violations.extend((q, r, v)
                              for v in gapscan.check_record_bounds(results[r]))
    dt = time.perf_counter() - t0
    _check(11, "record-size bound conjectures hold at 1e8",
           not violations and dt < 600,
           f"violations={violations or 'none'}, {dt:.0f}s")


def test_criterion_12_counting_growth(threads):
    t0 = time.perf_counter()
    q = 1009
    rs = list(range(1, q))
    results = apgaps.scan_many(q, rs, 10**8, threads=threads)
    t0_trend = trend.baseline_trend(q, 10**8)
    denom = t0_trend / (2 * q)  # lcm(2, 1009) = 2018
    mean_ratio = float(np.mean([results[r].n_first_occurrence / denom for r in rs]))
    table = gapscan.interval_record_table(q, 17, threads=threads)
    max_means = [row[2] for row in table]
    bounded = max(max_means) <= 2.5
    last5 = max_means[-5:]
    slope = float(np.polyfit(np.arange(5.0), last5, 1)[0])
    dt = time.perf_counter() - t0
    ok = 0.5 <= mean_ratio <= 1.5 and bounded and slope >= 0 and dt < 900
    _check(12, "counting growth at q=1009",
           ok, f"mean N'/(T0/lcm)={mean_ratio:.4f}, max mean count="
               f"{max(max_means):.3f}, last-5 slope={slope:+.4f}, {dt:.0f}s")


@pytest.mark.slow
def test_criterion_13_determinism(tmp_path):
    t0 = time.perf_counter()
    identical = True
    detail = []
    # criterion 4's scan configurations
    for q, r in ((2, 1), (6, 5), (6, 1), (211, 1)):
        dirs = []
        for threads in ("1", "8"):
            out = tmp_path / f"scan_q{q}_r{r}_t{threads}"
            rc = cli_main(["scan", "--q", str(q), "--r", str(r),
                           "--x-max", "1e6", "--threads", threads,
                           "--out", str(out)])
            assert rc == 0
            dirs.append(out)
        for name in (f"events_q{q}_r{r}.csv", f"events_q{q}_merged.csv",
                     f"trend_q{q}.csv"):
            if (dirs[0] / name).read_bytes() != (dirs[1] / name).read_bytes():
                identical = False
                detail.append(f"scan({q},{r})/{name} differs")
    # criterion 6's fit configuration
    fit_dirs = []
    for threads in ("1", "8"):
        out = tmp_path / f"fit_t{threads}"
        rc = cli_main(["fit", "--q", "211", "--r", "all",
                       "--window", "1e7:1e9", "--threads", threads,
                       "--out", str(out)])
        assert rc == 0
        fit_dirs.append(out)
    for name in ("fit_q211.json", "hist_q211.csv", "pdf_q211.csv"):
        if (fit_dirs[0] / name).read_bytes() != (fit_dirs[1] / name).read_bytes():
            identical = False
            detail.append(f"fit/{name} differs")
    report = json.loads((fit_dirs[0] / "fit_q211.json").read_text())
    dt = time.perf_counter() - t0
    _check(13, "byte-identical outputs across thread counts",
           identical, f"{'; '.join(detail) or 'all files identical'}, "
                      f"fit alpha={report['alpha']:.5f}, {dt:.0f}s")
