"""Byte pins: output files and stdout of 13 fast CLI runs, by sha256.

The digests in golden_sha256.json were recorded from the code as it was
before record detection moved to a table of seen gap sizes (the runs
scan-q8, scan-q7-r2 and brun-d4-q4 from the code before the class-pair
stream yielded gaps in place of start primes, and brun-d3-q3 from the
code before every pair was keyed by gap // q, and scan-q211-t2-1e7 and
counts-q6 from the code before the threaded sieve split striking from
readout, and scan-q6-json and meanprod-q30 from the code before every
output file was written by cli.py), so any change to an
artifact's bytes, however small, fails here. brun-d3-q3 was re-recorded
when brun_estimate took up the one rule for admissible gap sizes
(numutil.gap_admissible): no recurring gap in a class mod 3 has the odd
size 3, so its estimates, the estimate column of its curve and the
estimate_at_x_max and estimate_limit it prints, are now 0; its partial sum
0.7 and pair count 1, from the one gap 2 -> 5, are unchanged. Each run goes into its
own directory with a relative ``--out``, so the paths printed on stdout do
not depend on where the tests run. To print the digests of the current code:

    PYTHONPATH=src python tests/test_golden_bytes.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from apgaps import cli

GOLDEN = Path(__file__).with_name("golden_sha256.json")

RUNS = {
    "scan-q3": ["scan", "--q", "3", "--r", "all", "--x-max", "1e6"],
    "scan-q211-t1": ["scan", "--q", "211", "--r", "all", "--x-max", "1e6", "--threads", "1"],
    "scan-q211-t2": ["scan", "--q", "211", "--r", "all", "--x-max", "1e6", "--threads", "2"],
    "fit-q211": ["fit", "--q", "211", "--r", "all", "--window", "1e5:1e7"],
    "brun-twin": ["brun", "--d", "2", "--q", "2", "--r", "1", "--x-max", "1e6"],
    "scan-q8": ["scan", "--q", "8", "--r", "all", "--x-max", "1e6"],
    "scan-q7-r2": ["scan", "--q", "7", "--r", "2", "--x-max", "1e6"],
    "brun-d4-q4": ["brun", "--d", "4", "--q", "4", "--r", "3", "--x-max", "1e6"],
    # the odd gap 2 -> 5 runs through brun's carried sum
    "brun-d3-q3": ["brun", "--d", "3", "--q", "3", "--r", "2", "--x-max", "1e6"],
    # five segments, so the threaded sieve hands readouts to its helper
    "scan-q211-t2-1e7": ["scan", "--q", "211", "--r", "all", "--x-max", "1e7", "--threads", "2"],
    "counts-q6": ["counts", "--q", "6", "--j-max", "12"],
    "scan-q6-json": ["scan", "--q", "6", "--r", "all", "--x-max", "1e6", "--format", "json"],
    "meanprod-q30": ["meanprod", "--q", "30", "--r", "3", "--empirical-n", "1000"],
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_digests(argv: list[str], workdir: Path) -> dict:
    """Run the CLI in workdir with --out out; digests of stdout and every file."""
    workdir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    buf = io.StringIO()
    try:
        os.chdir(workdir)
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv + ["--out", "out"])
    finally:
        os.chdir(cwd)
    out = workdir / "out"
    return {
        "exit": code,
        "stdout": _sha(buf.getvalue().encode()),
        "files": {p.name: _sha(p.read_bytes()) for p in sorted(out.iterdir())},
    }


@pytest.mark.parametrize("name", sorted(RUNS))
def test_outputs_byte_identical(name, tmp_path):
    want = json.loads(GOLDEN.read_text())[name]
    got = run_digests(RUNS[name], tmp_path)
    assert got["exit"] == want["exit"] == 0
    assert got["stdout"] == want["stdout"], "stdout differs"
    assert sorted(got["files"]) == sorted(want["files"])
    changed = [f for f in want["files"] if got["files"][f] != want["files"][f]]
    assert not changed, f"files differ: {changed}"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: run_digests(argv, Path(tmp) / name) for name, argv in RUNS.items()}
    json.dump(golden, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
