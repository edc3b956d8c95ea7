"""One apgaps CLI invocation in a fresh interpreter, timed from the inside.

Usage: python3 child.py SPEC.json

The parent notes the clock just before it starts this process, so the
moment the imports finish gives the set-up wall time; the CPU time spent
by then gives the set-up CPU time. ``_calibrate`` then times a fixed piece
of work, by which the parent scales the CPU times to a reference speed.
The command then runs through ``apgaps.cli.main``. With ``trace`` set, the layer modules are
wrapped by ``spans.Tracer`` first; with ``capture`` set, the scan results and
the samples handed to ``evstats.fit_gumbel`` are kept for the parent's
checks. Everything is written out after the command has returned.
"""

import json
import os
import resource
import sys
import time


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _peak_rss_mb() -> float:
    """High-water resident set of this process image.

    ru_maxrss is not used: Linux carries the spawning parent's peak over
    into it across exec.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM line in /proc/self/status")


def _calibrate(np) -> float:
    """CPU seconds of a fixed piece of work like the program's own.

    A strided sieve over a 4 MB bool segment, prime extraction and gap
    differences, then an interpreted loop. It does not use apgaps.
    """
    cpu0 = _cpu_s()
    n = 1 << 22
    total = 0
    for lo in range(10**8, 10**8 + 3 * n, n):
        mask = np.ones(n, dtype=bool)
        for p in range(3, 10**4, 2):
            mask[(-lo) % p :: p] = False
        gaps = np.diff(np.flatnonzero(mask))
        np.unique(gaps)
        for g in gaps[:200_000].tolist():
            total += g
    return _cpu_s() - cpu0


def main() -> int:
    with open(sys.argv[1]) as fh:
        spec = json.load(fh)
    import numpy as np
    import scipy  # noqa: F401  (apgaps pulls in scipy.optimize as well)

    import apgaps
    from apgaps import cli, evstats, gapscan

    t_ready = time.monotonic()
    out = {"t_ready": t_ready, "setup_cpu_s": _cpu_s(), "apgaps_file": apgaps.__file__}
    if spec["argv"] is None:  # set-up probe
        _dump(spec["result"], out)
        return 0

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        tracer.install()
    scans, fits = [], []
    if spec["capture"]:
        scan_many, fit_gumbel = gapscan.scan_many, evstats.fit_gumbel

        def capture_scan(*args, **kwargs):
            scans.append(scan_many(*args, **kwargs))
            return scans[-1]

        def capture_fit(samples, *args, **kwargs):
            fits.append(samples)
            return fit_gumbel(samples, *args, **kwargs)

        gapscan.scan_many, evstats.fit_gumbel = capture_scan, capture_fit

    cal0 = _calibrate(np)
    cpu0 = _cpu_s()
    t0 = time.monotonic()
    if tracer is None:
        rc = cli.main(spec["argv"])
    else:
        rc = tracer.call("cli.main", cli.main, (spec["argv"],), {})
    t1 = time.monotonic()
    out.update(rc=rc, wall_s=t1 - t0, cpu_s=_cpu_s() - cpu0, peak_rss_mb=_peak_rss_mb(),
               cal_cpu_s=cal0)

    cap = spec["capture"]
    if cap and scans:
        lo, hi = cap["window"]
        res = scans[0]
        out["events"] = {
            str(r): [[e.start_prime, e.end_prime, e.size, e.is_maximal,
                      e.maximal_index, e.fo_index] for e in res[r].events]
            for r in cap["classes"]}
        # events entering the fit, in the order cli.fit hands them over
        out["in_window"] = [[r, e.end_prime, e.size] for r in sorted(res)
                            for e in res[r].events if lo <= e.end_prime <= hi]
    for i, sample in enumerate(fits):
        np.save(os.path.join(os.path.dirname(spec["result"]), f"fit_sample_{i}.npy"),
                np.asarray(sample, dtype=np.float64))
    out["fit_samples"] = len(fits)
    if tracer is not None:
        _dump(spec["spans"], tracer.records())
    _dump(spec["result"], out)
    return 0


def _dump(path: str, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh)


if __name__ == "__main__":
    sys.exit(main())
