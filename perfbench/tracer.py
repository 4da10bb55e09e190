"""Spans and counters around wproj's layer boundaries, installed from the
benchmark's side.

The program itself has no tracing.  ``install`` replaces each traced
function with a wrapper: module functions in every wproj module that binds
them (names imported with ``from .x import f`` are separate bindings, so a
single replacement would let calls slip past), methods on their class.
Spans (name, start, end, parent) are kept in memory in flat arrays;
``summary`` turns them into per-layer calls and self times, where a span's
self time is its duration minus the time its direct child spans cover.
"""

from __future__ import annotations

import sys
import time
from array import array

# Span name -> (module, attribute): a module function, or "Class.method".
SPANS = {
    "exactnum.factor": ("wproj.exactnum", "factor"),
    "exactnum.of_log": ("wproj.exactnum", "FormalLog.of_log"),
    "exactnum.sign": ("wproj.exactnum", "FormalLog.sign"),
    "exactnum.decimal": ("wproj.exactnum", "FormalLog.decimal"),
    "wpoint.WPoint": ("wproj.wpoint", "WPoint.__init__"),
    "wpoint.canonicalize": ("wproj.wpoint", "canonicalize"),
    "wpoint.wgcd_tuple": ("wproj.wpoint", "wgcd_tuple"),
    "wheight.lwh": ("wproj.wheight", "lwh"),
    "wheight.support_primes": ("wproj.wheight", "_support_primes"),
    "wheight.local_height": ("wproj.wheight", "local_height"),
    "wheight.split_height_S": ("wproj.wheight", "split_height_S"),
    "wheight.log_hwgcd_point": ("wproj.wheight", "log_hwgcd_point"),
    "wpoly.eval": ("wproj.wpoly", "WPoly.eval"),
    "search.phase1": ("wproj.search", "_scan_box"),
    "search.phase2": ("wproj.search", "_phase2_candidates"),
    "search.collect": ("wproj.search", "_collect"),
    "vojtalab.sample": ("wproj.vojtalab", "_sample_tuples"),
    "vojtalab.records": ("wproj.vojtalab", "_make_record"),
    # scan() is sampling, record building and the cell aggregation loop;
    # with the first two as child spans its self time is the aggregation.
    "vojtalab.cells": ("wproj.vojtalab", "scan"),
    "vojtalab.to_json": ("wproj.vojtalab", "ScanReport.to_json"),
    "vojtalab.exceptional": ("wproj.vojtalab", "exceptional_candidates"),
    "cli.emit": ("wproj.cli", "_emit"),
}

ROOT = "run"


class Tracer:
    """In-memory span store plus the counters taken at the same boundaries."""

    def __init__(self) -> None:
        self.names = [ROOT] + list(SPANS)
        self._ids = {n: i for i, n in enumerate(self.names)}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts = {
            "factor.repeats": 0,
            "sign.base": 0,
            "sign.first_prec": 0,
            "sign.max_prec_bits": 0,
            "phase1.candidates": 0,
            "phase1.flagged": 0,
            "phase1.confirmed": 0,
            "phase2.candidates": 0,
            "phase2.profiles": 0,
            "collect.inputs": 0,
            "collect.hits": 0,
            "sample.attempts": 0,
            "sample.accepted": 0,
        }
        self._factored: set[int] = set()
        self._active: set[str] = set()
        self._intervals = 0

    # -- spans --------------------------------------------------------------

    def wrap(self, name: str, fn, before=None, after=None):
        """A wrapper recording one span per call, with optional counter hooks."""
        nid = self._ids[name]
        name_ids, starts, ends, parents = self.name_id, self.start, self.end, self.parent
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if before is not None:
                before(args)
            idx = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def root(self, fn):
        return self.wrap(ROOT, fn)

    # -- hooks for the counters ---------------------------------------------

    def _factor_before(self, args) -> None:
        n = args[0]
        if n in self._factored:
            self.counts["factor.repeats"] += 1
        else:
            self._factored.add(n)

    def _sign(self, fn):
        """sign() with the precision it settled at, read from _interval calls."""
        span = self.wrap("exactnum.sign", fn)

        def traced(flog):
            if not flog.coeffs:
                return span(flog)
            self.counts["sign.base"] += 1
            self._intervals = 0
            self._active.add("sign")
            try:
                return span(flog)
            finally:
                self._active.discard("sign")
                if self._intervals == 1:
                    self.counts["sign.first_prec"] += 1

        return traced

    def _interval(self, fn):
        def counted(flog, prec):
            if "sign" in self._active:
                self._intervals += 1
                c = self.counts
                c["sign.max_prec_bits"] = max(c["sign.max_prec_bits"], prec)
            return fn(flog, prec)

        return counted

    def _phase1(self, fn):
        """_scan_box outside phase 2 is the phase-1 box scan."""
        span = self.wrap("search.phase1", fn)

        def traced(*args, **kwargs):
            if "phase2" in self._active:
                return fn(*args, **kwargs)
            self._active.add("phase1")
            try:
                sols, count = span(*args, **kwargs)
            finally:
                self._active.discard("phase1")
            self.counts["phase1.candidates"] += count
            return sols, count

        return traced

    def _eval_terms(self, fn):
        """Exact confirmations of the tuples the phase-1 prefilter flagged."""
        def counted(terms, point):
            value = fn(terms, point)
            if "phase1" in self._active:
                self.counts["phase1.flagged"] += 1
                if value == 0:
                    self.counts["phase1.confirmed"] += 1
            return value

        return counted

    def _phase2(self, fn):
        span = self.wrap("search.phase2", fn)

        def traced(*args, **kwargs):
            self._active.add("phase2")
            try:
                out, count = span(*args, **kwargs)
            finally:
                self._active.discard("phase2")
            self.counts["phase2.candidates"] += count
            return out, count

        return traced

    def _profiles(self, fn):
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.counts["phase2.profiles"] += 1
                yield item

        return counted

    def _collect_after(self, args, result) -> None:
        self.counts["collect.inputs"] += len(args[1])
        self.counts["collect.hits"] += len(result)

    def _sample(self, fn):
        span = self.wrap("vojtalab.sample", fn)

        def traced(config):
            self._active.add("sample")
            try:
                out = span(config)
            finally:
                self._active.discard("sample")
            self.counts["sample.accepted"] += len(out)
            return out

        return traced

    def _wgcd_before(self, args) -> None:
        # every sampler draw but the all-zero tuple reaches the wgcd test
        if "sample" in self._active:
            self.counts["sample.attempts"] += 1

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        import wproj.cli  # noqa: F401  (loads every module that binds a target)

        exactnum = sys.modules["wproj.exactnum"]
        # not ``import wproj.search``: the package's ``search`` is the function
        search = sys.modules["wproj.search"]

        for name, (modname, attr) in SPANS.items():
            owner = sys.modules[modname]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[meth]
                is_cm = isinstance(raw, classmethod)
                fn = raw.__func__ if is_cm else raw
                new = self._make(name, fn)
                setattr(cls, meth, classmethod(new) if is_cm else new)
            else:
                fn = getattr(owner, attr)
                _rebind(fn, self._make(name, fn))
        interval = exactnum.FormalLog._interval
        exactnum.FormalLog._interval = self._interval(interval)
        _rebind(search._eval_terms, self._eval_terms(search._eval_terms))
        _rebind(search._deflation_profiles, self._profiles(search._deflation_profiles))

    def _make(self, name: str, fn):
        if name == "exactnum.factor":
            return self.wrap(name, fn, before=self._factor_before)
        if name == "exactnum.sign":
            return self._sign(fn)
        if name == "wpoint.wgcd_tuple":
            return self.wrap(name, fn, before=self._wgcd_before)
        if name == "search.phase1":
            return self._phase1(fn)
        if name == "search.phase2":
            return self._phase2(fn)
        if name == "search.collect":
            return self.wrap(name, fn, after=self._collect_after)
        if name == "vojtalab.sample":
            return self._sample(fn)
        return self.wrap(name, fn)

    # -- results ------------------------------------------------------------

    def arrays(self):
        import numpy as np

        return (
            np.frombuffer(self.name_id, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
            np.frombuffer(self.parent, dtype=np.int32),
        )

    def summary(self) -> dict:
        """Per span name: calls and self seconds; plus the raw counters."""
        import numpy as np

        name_id, start, end, parent = self.arrays()
        dur = end - start
        covered = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_s = dur - covered
        calls = np.bincount(name_id, minlength=len(self.names))
        selfs = np.bincount(name_id, weights=self_s, minlength=len(self.names))
        spans = {
            n: {"calls": int(calls[i]), "self_s": float(selfs[i])}
            for i, n in enumerate(self.names)
        }
        return {"spans": spans, "counts": dict(self.counts), "span_count": len(dur)}

    def write(self, path: str) -> None:
        import numpy as np

        name_id, start, end, parent = self.arrays()
        np.savez_compressed(
            path, names=np.array(self.names), name_id=name_id,
            start=start, end=end, parent=parent,
        )


def _rebind(old, new) -> None:
    """Replace every binding of ``old`` in the loaded wproj modules."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "wproj" or modname.startswith("wproj.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is old:
                setattr(mod, key, new)
