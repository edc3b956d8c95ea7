"""Span tracing of apgaps from outside the package, and per-layer metrics.

Every call between apgaps layers goes through a module attribute
(``sieve.iter_prime_segments``, ``gapscan.scan_many``, ``trend.rescale``,
...), so replacing the public functions of a module with timing wrappers
traces the whole call tree without touching the package. Spans are kept in
memory and written out once, after the command has returned.

A span is (id, name, start, end, parent, thread, extra). ``parent`` is the
enclosing span on the same thread; spans opened on sieve worker threads have
no parent. ``extra`` holds counts read from the call's arguments and result.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import os
import threading
import time

LAYERS = ("sieve", "gapscan", "trend", "evstats", "brun")


_COUNTED = ("sieve.sieve_interval", "gapscan.scan_many", "evstats.fit_gumbel",
            "evstats.fit_gev", "brun.brun_growth")


def _is_writer(name: str) -> bool:
    return name.split(".")[1].startswith("write_")


def _counts(name: str, args: dict, result) -> dict:
    """Work counts recorded at a layer boundary (exact, so they repeat)."""
    if name == "sieve.sieve_interval":
        return {"numbers": args["hi"] - args["lo"] + 1, "primes": len(result)}
    if name == "gapscan.scan_many":
        return {"events": sum(res.n_first_occurrence for res in result.values())}
    if name in ("evstats.fit_gumbel", "evstats.fit_gev"):
        return {"samples": len(args["samples"])}
    if name == "brun.brun_growth":
        return {"pairs": result[-1].pair_count}
    if _is_writer(name):
        return {"bytes": os.path.getsize(args["path"]), "files": 1}
    return {}


class Tracer:
    """Collects spans from any thread; call ``install`` to hook the package."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs, *, wait: bool = False, sig=None):
        """Run fn(*args, **kwargs) inside a span called name.

        sig, the signature of fn, is given for calls whose work is counted.
        """
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        extra = {"wait": 1} if wait else {}
        if sig is not None:
            extra = _counts(name, sig.bind(*args, **kwargs).arguments, result)
        # list.append is atomic, so worker threads may record concurrently
        self.spans.append((sid, name, start, end, parent, threading.get_ident(), extra))
        return result

    def wrap(self, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                # one span per next(): the time the consumer is blocked
                gen = fn(*args, **kwargs)
                try:
                    while True:
                        try:
                            item = self.call(name, next, (gen,), {}, wait=True)
                        except StopIteration:
                            return
                        yield item
                finally:
                    gen.close()
            return gen_wrapper

        sig = inspect.signature(fn) if name in _COUNTED or _is_writer(name) else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, sig=sig)
        return wrapper

    def install(self) -> None:
        """Wrap every public function defined in each layer module."""
        import importlib

        for layer in LAYERS:
            mod = importlib.import_module(f"apgaps.{layer}")
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                setattr(mod, attr, self.wrap(f"{layer}.{attr}", obj))

    def records(self) -> list[dict]:
        keys = ("id", "name", "start", "end", "parent", "thread", "extra")
        return [dict(zip(keys, s)) for s in self.spans]


# ---------------------------------------------------------------------------
# Per-layer metrics from recorded spans


def _covered(lo: float, hi: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [lo, hi] covered by the union of the intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_metrics(records: list[dict], kept_primes: int) -> dict[str, float]:
    """Per-layer metrics of one traced command.

    kept_primes is the number of primes in the classes the command asked
    for; divided by the primes sieved it gives sieve.kept_ratio.
    """
    by_id = {s["id"]: s for s in records}
    children: dict[int, list[dict]] = {}
    for s in records:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def self_time(s):
        kids = [(c["start"], c["end"]) for c in children.get(s["id"], [])]
        return dur(s) - _covered(s["start"], s["end"], kids)

    def layer(s):
        return s["name"].split(".")[0]

    def is_writer(s):
        return _is_writer(s["name"])

    def outermost(s, same):
        p = s["parent"]
        while p is not None:
            if same(by_id[p]):
                return False
            p = by_id[p]["parent"]
        return True

    def total(spans, key):
        return sum(s["extra"].get(key, 0) for s in spans)

    def pick(name=None, lay=None, top=False):
        """Spans by name, or the non-writer spans of a layer."""
        out = []
        for s in records:
            if name is not None and s["name"] != name:
                continue
            if lay is not None and (layer(s) != lay or is_writer(s)):
                continue
            # a layer's own time: not nested in the same layer or in a writer
            if top and not outermost(s, lambda p, s=s: layer(p) == layer(s)
                                     or is_writer(p)):
                continue
            out.append(s)
        return out

    intervals = pick("sieve.sieve_interval")
    waits = [s for s in records if s["extra"].get("wait")
             and outermost(s, lambda p: p["extra"].get("wait"))]
    writers = [s for s in records if is_writer(s)
               and outermost(s, is_writer)]
    trend_top = pick(lay="trend", top=True)
    numbers = total(intervals, "numbers")
    primes = total(intervals, "primes")
    busy = sum(dur(s) for s in intervals)
    gap_self = sum(self_time(s) for s in pick(lay="gapscan"))
    return {
        "sieve.numbers": numbers,
        "sieve.segments": len(intervals),
        "sieve.primes": primes,
        "sieve.kept_ratio": kept_primes / primes if primes else 0.0,
        "sieve.busy_s": busy,
        "sieve.ns_per_number": 1e9 * busy / numbers if numbers else 0.0,
        "sieve.wait_s": sum(dur(s) for s in waits),
        "sieve.base_primes_s": sum(dur(s) for s in pick("sieve.base_primes")),
        "gapscan.self_s": gap_self,
        "gapscan.ns_per_prime": 1e9 * gap_self / primes if primes else 0.0,
        "gapscan.events": total(pick("gapscan.scan_many", top=True), "events"),
        "trend.s": sum(dur(s) for s in trend_top),
        "trend.calls": len(trend_top),
        "evstats.s": sum(dur(s) for s in pick(lay="evstats", top=True)),
        "evstats.samples": total(pick(lay="evstats", top=True), "samples"),
        "brun.self_s": sum(self_time(s) for s in pick(lay="brun")),
        "brun.pairs": total(pick("brun.brun_growth", top=True), "pairs"),
        "writers.s": sum(dur(s) for s in writers),
        "writers.bytes": total(writers, "bytes"),
        "writers.files": total(writers, "files"),
        "cli.self_s": sum(self_time(s) for s in pick("cli.main")),
    }
