"""The CLI contract: every --help text, and the exit code of each bad input.

cli_help.json holds the help of the top-level parser and of all seven
subcommands at COLUMNS=80. EXITS pairs an argv with its exit code and with
whether stdout stayed empty. Both were recorded from the code before the
subcommands read argparse's namespace directly; the help texts were
re-recorded when each subcommand kept only the options it reads. The rows
that changed on purpose since then carry the old exit code in a comment:
numeric options that used to fail inside the computation (exit 4) or be
ignored are now rejected up front, and so are a missing samples file and a
bound above the sieve's 2^63 - 1 ceiling (exit 4 before; for counts, also a
j-max whose bound is past float range, exit 3 before), a non-finite --c0 or
--c1, a brun class with gcd(q, r) > 1, and a fit --bins or brun --points
above cli.MAX_ROWS (10^6), which used to run out of memory or run the
whole scan first, and more residue classes than gapscan.MAX_CLASSES
(10^5), which used to build the whole list first, and a meanprod
--empirical-n above cli.MAX_EMPIRICAL_N (10^8), which exited 4 only where
numpy could not allocate the terms, and a meanprod progression whose top
r + n q is above brun.MAX_EMPIRICAL_TOP (10^16), which exited 4 past 2^63
and could run for minutes below it. A predict --d whose d / phi(q) is past
float range exited 4 and now prints null locations. The class cap counts
distinct residues as they are read, so overlapping --r ranges that name at
most 10^5 classes between them pass it where they used to be refused as
the sum of their lengths (exit 2 before). The unused --seed
option is gone, and the help texts were re-recorded without it; they were
re-recorded again when scan and fit lost the trend options --b1 and --b2.
fit sieves exactly to the top of its window, which the two --budget rows of
the window 1e3:1e5 pin. The rows under "accepted edges" run each integer
option at an accepted end of its range in cli._RANGES. Each argv runs in
its own directory, which holds u.csv, a sample of 20 rescaled values. To
print the help texts of the current code:

    PYTHONPATH=src python tests/test_cli_contract.py
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from apgaps import cli

HELP = Path(__file__).with_name("cli_help.json")
COMMANDS = ("", "scan", "fit", "counts", "brun", "meanprod", "predict", "probe")

EXITS = [
    # parser: unknown command, missing or mistyped options
    ("", 2, True),
    ("bogus", 2, True),
    ("scan", 2, True),
    ("scan --q 6", 2, True),
    ("scan --q x --x-max 100", 2, True),
    ("scan --q 6 --x-max 100 --format xml", 2, True),
    ("scan --q 6 --x-max 100 --threads x", 2, True),
    # q
    ("scan --q 1 --x-max 100", 2, True),
    ("scan --q 0 --x-max 100", 2, True),
    ("scan --q -6 --x-max 100", 2, True),
    ("fit --q 1", 2, True),
    ("counts --q 1 --j-max 3", 2, True),
    ("brun --q 1 --r 1 --d 2 --x-max 100", 2, True),
    ("meanprod --q 1 --r 0", 2, True),
    ("predict --q 1 --d 2", 2, True),
    ("probe --q 1", 2, True),
    ("predict --q 9223372036854775783 --d 10", 2, True),  # ran for minutes
    # r, and the residue count of brun
    ("scan --q 6 --r 2 --x-max 100", 2, True),
    ("scan --q 6 --r 0 --x-max 100", 2, True),
    ("scan --q 6 --r 6 --x-max 100", 2, True),
    ("scan --q 6 --r -1 --x-max 100", 2, True),
    ("scan --q 6 --r 5..1 --x-max 100", 2, True),
    ("scan --q 6 --r a..b --x-max 100", 2, True),
    ("scan --q 6 --r x --x-max 100", 2, True),
    ("scan --q 6 --r , --x-max 100", 2, True),
    ("scan --q 6 --r 1..5 --x-max 100", 2, True),
    ("scan --q 6 --r 1,,5 --x-max 100", 0, False),
    ("fit --q 6 --r 2 --window 1e3:1e5", 2, True),
    ("fit --q 6 --r x --window 1e3:1e5", 2, True),
    ("fit --q 6 --r 2 --samples-csv u.csv", 0, False),
    ("fit --q 6 --r x --samples-csv u.csv", 2, True),
    ("brun --q 2 --r all --d 2 --x-max 100", 2, True),
    ("brun --q 6 --r 1,5 --d 6 --x-max 100", 2, True),
    ("brun --q 6 --r 1..5 --d 6 --x-max 100", 2, True),
    ("brun --q 6 --r 0 --d 6 --x-max 100", 2, True),
    ("brun --q 6 --r 6 --d 6 --x-max 100", 2, True),
    ("brun --q 6 --r x --d 6 --x-max 100", 2, True),
    ("brun --q 6 --r 3 --d 6 --x-max 1000", 2, True),  # was 0
    # more residue classes than gapscan.MAX_CLASSES, refused as soon as the
    # distinct residues read pass the cap
    ("scan --q 999999999989 --r all --x-max 1e3", 2, True),  # looped 10^12 times
    ("scan --q 6 --r 1..100000000000 --x-max 1e3", 2, True),  # looped 10^11 times
    ("brun --q 999999999989 --r 1..1000000000 --d 2 --x-max 1e3", 2, True),  # looped 10^9 times
    ("counts --q 999999999989 --j-max 2", 2, True),  # looped 10^12 times
    ("fit --q 999999999989 --samples-csv u.csv", 2, True),  # looped 10^12 times
    ("fit --q 999999999989 --r 1 --samples-csv u.csv", 0, False),
    # the cap counts distinct residues: 60000 named twice pass it and stop at the budget
    ("scan --q 100003 --r 1..60000,1..60000 --x-max 1e11", 3, True),  # was 2
    ("scan --q 100003 --r 1..50000,50001..100001 --x-max 1e11", 2, True),
    ("meanprod --q 10 --r 10", 2, True),
    ("meanprod --q 10 --r -1", 2, True),
    ("meanprod --q 10 --r x", 2, True),
    ("meanprod --q 30 --r 0", 0, False),
    # bounds and budget
    ("scan --q 6 --r 1 --x-max 0", 2, True),
    ("scan --q 6 --r 1 --x-max 1.5", 2, True),
    ("scan --q 6 --r 1 --x-max -7", 2, True),
    ("scan --q 6 --r 1 --x-max nan", 2, True),
    ("scan --q 6 --r 1 --x-max inf", 2, True),
    ("scan --q 6 --r 1 --x-max 1e400", 2, True),
    ("scan --q 6 --r 1 --x-max x", 2, True),
    ("scan --q 6 --r 1 --x-max 1e2", 0, False),
    ("brun --q 2 --r 1 --d 2 --x-max 0", 2, True),
    ("brun --q 2 --r 1 --d 2 --x-max 1", 2, True),  # was 4
    ("fit --q 6 --window 1e3:1e5 --x-max 1.5", 2, True),
    ("scan --q 6 --r 1 --x-max 1e19 --budget 1e20", 2, True),  # was 4
    ("scan --q 6 --r 1 --x-max 9223372036854775808 --budget 1e20", 2, True),  # was 4
    ("fit --q 6 --window 1e3:1e19 --budget 1e20", 2, True),  # was 4
    ("brun --q 2 --r 1 --d 2 --x-max 1e19 --budget 1e20", 2, True),  # was 4
    ("scan --q 6 --r 1 --x-max 100 --budget 1.5", 2, True),
    ("scan --q 6 --r 1 --x-max 100 --budget 0", 2, True),
    ("probe --q 2 --budget x", 2, True),
    ("meanprod --q 3 --r 1 --budget nan", 2, True),
    # window
    ("fit --q 6 --window 10", 2, True),
    ("fit --q 6 --window 1e9:1e7", 2, True),
    ("fit --q 6 --window a:b", 2, True),
    ("fit --q 6 --window 1e7:", 2, True),
    ("fit --q 6 --window :1e5", 2, True),
    ("fit --q 6 --window 0:10", 2, True),
    ("fit --q 6 --r 5 --x-max 50 --window 1:50", 2, True),  # was 4
    ("fit --q 6 --r 5 --window 1:50", 4, True),
    # samples file
    ("fit --q 2 --samples-csv missing.csv", 2, True),  # was 4
    # j-max
    ("counts --q 6 --j-max 0", 2, True),
    ("counts --q 6 --j-max -1", 2, True),
    ("counts --q 6 --j-max x", 2, True),
    # d
    ("brun --q 2 --r 1 --d 0 --x-max 100", 2, True),
    ("brun --q 2 --r 1 --d -2 --x-max 100", 2, True),
    ("predict --q 2 --d 0", 2, True),
    ("predict --q 2 --d -3", 2, True),
    ("predict --q 2 --d 1", 0, False),
    ("predict --q 2 --d 1" + "0" * 310, 0, False),  # was 4: d / phi(q) past float range
    # budget overruns
    ("scan --q 6 --r 1 --x-max 1e11", 3, True),
    ("scan --q 6 --r 1 --x-max 1000000000000000001", 3, True),
    ("scan --q 6 --r 1 --x-max 100 --budget 99", 3, True),
    ("fit --q 6 --window 1e7:1e11", 3, True),
    ("fit --q 6 --window 1e3:1e5 --x-max 1e11", 2, True),  # was 3
    ("fit --q 6 --window 1e3:1e5 --budget 1e5", 0, False),
    ("fit --q 6 --window 1e3:1e5 --budget 99999", 3, True),
    ("brun --q 2 --r 1 --d 2 --x-max 1e11", 3, True),
    ("counts --q 6 --j-max 25 --budget 1e6", 3, True),
    ("counts --q 6 --j-max 30", 3, True),
    ("counts --q 6 --j-max 43 --budget 1e20", 2, True),  # was 4
    ("counts --q 6 --j-max 800", 2, True),  # was 3
    # probe x
    ("probe --q 2 --x inf", 2, True),
    ("probe --q 2 --x nan", 2, True),
    ("probe --q 2 --x 0", 2, True),
    ("probe --q 2 --x 2", 2, True),
    ("probe --q 2 --x -1", 2, True),
    ("probe --q 2 --x abc", 2, True),
    ("probe --q 2 --x ,", 2, True),
    ("probe --q 2 --x 1e6", 0, False),
    ("probe --q 2 --x 2.5", 4, True),  # T0(2, 2.5) < 1: no gap to predict from
    # threads floor
    ("scan --q 6 --r 1 --x-max 100 --threads 0", 0, False),
    ("scan --q 6 --r 1 --x-max 100 --threads -4", 0, False),
    # numeric options that reach the computation
    ("fit --q 6 --window 1e3:1e5 --bins 0", 2, True),  # was 4
    ("fit --q 6 --window 1e3:1e5 --bins -3", 2, True),  # was 4
    ("fit --q 6 --window 1e3:1e5 --bins 1000001", 2, True),  # was 0
    ("fit --q 2 --samples-csv u.csv --bins 1000000000", 2, True),  # was killed, out of memory
    ("fit --q 6 --window 1e7:1e11 --bins 1000001", 2, True),  # was 3
    ("brun --q 2 --r 1 --d 2 --x-max 1e4 --points -1", 2, True),  # was 4
    ("brun --q 2 --r 1 --d 2 --x-max 1e4 --points 0", 0, False),
    ("brun --q 2 --r 1 --d 2 --x-max 1e4 --points 1000000", 0, False),
    ("brun --q 2 --r 1 --d 2 --x-max 1e4 --points 1000001", 2, True),  # was 0
    ("brun --q 2 --r 1 --d 2 --x-max 1e11 --points 1000000000", 2, True),  # was 3
    ("meanprod --q 3 --r 1 --empirical-n -5", 2, True),  # was 4
    ("meanprod --q 3 --r 1 --empirical-n 0", 2, True),  # was 0, stdout not empty
    ("meanprod --q 3 --r 1 --empirical-n 100000000000", 2, True),  # was 4: 745 GiB refused
    # a progression top r + n q above brun.MAX_EMPIRICAL_TOP
    ("meanprod --q 1000000000000 --r 1 --empirical-n 100000000", 2, True),  # was 4
    ("meanprod --q 999999999989 --r 1 --empirical-n 100000", 2, True),  # was 0
    # --b1 and --b2, which changed no output, are gone: argparse rejects them
    ("scan --q 6 --r 1 --x-max 100 --b2 0", 2, True),  # was 4, then 2 as a bad b2
    ("fit --q 6 --window 1e3:1e5 --b1 -1", 2, True),  # was 2 as a bad b1
    # trend constants must be finite
    ("scan --q 6 --r 1 --x-max 1000 --c0 nan", 2, True),  # was 0, nan in every tf cell
    ("fit --q 6 --window 1e3:1e6 --c1 inf", 2, True),  # was 4 after the scan
    # options a subcommand does not read
    ("fit --q 2 --samples-csv u.csv --format json", 2, True),  # was 0
    ("counts --q 6 --j-max 3 --b1 1", 2, True),  # was 0
    ("brun --q 2 --r 1 --d 2 --x-max 100 --format json", 2, True),  # was 0
    ("meanprod --q 30 --r 3 --seed 1", 2, True),  # was 0
    ("predict --q 2 --d 5 --threads 2", 2, True),  # was 0
    ("probe --q 2 --x 1e6 --out o", 2, True),  # was 0
    # the unused --seed, removed
    ("scan --q 6 --r 1 --x-max 100 --seed 1", 2, True),  # was 0
    ("fit --q 2 --samples-csv u.csv --seed 1", 2, True),  # was 0
    ("counts --q 6 --j-max 3 --seed 1", 2, True),  # was 0
    ("brun --q 2 --r 1 --d 2 --x-max 100 --seed 1", 2, True),  # was 0
    # accepted edges of the option ranges
    ("predict --q 1000000000000 --d 1", 0, False),
    ("counts --q 6 --j-max 1", 0, False),
    ("meanprod --q 3 --r 1 --empirical-n 1", 0, False),
    ("meanprod --q 2 --r 0 --empirical-n 1", 0, False),  # was 4: S(2) taken as inf
    ("fit --q 2 --samples-csv u.csv --bins 1", 0, False),
    ("brun --q 2 --r 1 --d 1 --x-max 100", 0, False),
    # no gap of size 2 mod 4, but the budget is checked before that
    ("brun --q 4 --r 1 --d 2 --x-max 1e11", 3, True),
]


def help_texts() -> dict:
    texts = {}
    for cmd in COMMANDS:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([cmd, "--help"] if cmd else ["--help"])
        assert code == 0
        texts[cmd] = buf.getvalue()
    return texts


def test_help_texts_unchanged(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    want = json.loads(HELP.read_text())
    got = help_texts()
    assert sorted(got) == sorted(want)
    for cmd in COMMANDS:
        assert got[cmd] == want[cmd], f"help of {cmd or 'apgaps'!r} differs"


@pytest.mark.parametrize("argv,code,quiet", EXITS, ids=[row[0] or "<none>" for row in EXITS])
def test_exit_code(argv, code, quiet, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "u.csv").write_text("u\n" + "\n".join(str(0.1 * k) for k in range(20)) + "\n")
    got = cli.main(argv.split())
    out = capsys.readouterr().out
    assert (got, out == "") == (code, quiet)


if __name__ == "__main__":
    import os

    os.environ["COLUMNS"] = "80"
    json.dump(help_texts(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
