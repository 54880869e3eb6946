"""Layer spans recorded from outside the program.

The tracer wraps public functions of each ``liebau`` layer by replacing
every module attribute bound to the function object (so ``from .numerics
import solve_cyclic_tridiagonal`` in ``liebau.solve`` is caught as well as
``liebau.numerics.solve_cyclic_tridiagonal``).  A function that no longer
exists is reported as absent and its metrics read zero, so the benchmark
keeps measuring after later changes delete or rename layers.

Each wrapped call records a span (id, parent id, name, start, end).  Spans
opened in a worker thread with no open span of their own (the certificate
search's thread pool) take the main thread's innermost open span as their
parent.  A span's self time is its duration minus the union of its
children's intervals.  ``PeriodicFunction.__call__`` runs far too often for
spans, so it only counts calls and evaluation points.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

import numpy as np


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


# (span name, module, attribute, hook adding work counts from the call)
SPANS = (
    ("numerics.solve_cyclic_tridiagonal", "numerics", "solve_cyclic_tridiagonal",
     lambda c, a, k, r: c.update({"numerics.solve_cyclic_tridiagonal.unknowns": len(_arg(a, k, 1, "diag"))})),
    ("numerics.spectral_derivatives", "numerics", "spectral_derivatives", None),
    ("numerics.trig_interpolate", "numerics", "trig_interpolate", None),
    ("numerics.simpson_segmented", "numerics", "simpson_segmented", None),
    ("solve.solve_periodic", "solve", "solve_periodic",
     lambda c, a, k, r: c.update({"solve.solve_periodic.iterations": int(r.iterations)})),
    ("solve.picard_iterate", "solve", "picard_iterate", None),
    ("funcspec.extrema", "funcspec", "PeriodicFunction.extrema", None),
    ("funcspec.positive_part", "funcspec", "PeriodicFunction.positive_part", None),
    ("greens.build", "greens", "build", None),
    ("greens.apply_kernel", "greens", "apply_kernel",
     lambda c, a, k, r: c.update({"greens.apply_kernel.points": len(_arg(a, k, 2, "t_values"))})),
    ("greens.verify_properties", "greens", "verify_properties", None),
    ("certify.search_certificate", "certify", "search_certificate", None),
    ("certify.check_positive_forcing", "certify", "check_positive_forcing",
     lambda c, a, k, r: c.update({"certify.check_positive_forcing.passed": int(bool(r.passed))})),
    ("certify.check_sign_changing", "certify", "check_sign_changing", None),
    ("certify.check_general", "certify", "check_general", None),
    ("pump.pump_report", "pump", "pump_report", None),
    ("problem.regularize", "problem", "regularize", None),
    ("cli.run", "cli", "run", None),
)
EVAL_TARGET = ("funcspec", "PeriodicFunction.__call__")


def _resolve(module: str, attr: str):
    """(owner, name, object) for ``liebau.<module>.<attr>``, or None if absent."""
    try:
        owner = importlib.import_module(f"liebau.{module}")
    except ImportError:
        return None
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    obj = getattr(owner, name, None)
    return None if obj is None else (owner, name, obj)


class Tracer:
    """Installs span wrappers on the layers; collects spans and counts."""

    def __init__(self):
        self.spans: list[tuple[int, int | None, str, float, float]] = []
        self.absent: list[str] = []
        self.hook_errors = 0
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._counters: list[Counter] = []
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self._main_stack: list[int] = []

    # -- per-thread state ---------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _counter(self) -> Counter:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = Counter()
            with self._lock:
                self._counters.append(counter)
            self._local.counter = counter
        return counter

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                try:
                    parent = tracer._main_stack[-1]
                except IndexError:
                    parent = None
            sid = next(tracer._ids)
            stack.append(sid)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, parent, name, t0, t1))
            if hook is not None:
                try:
                    hook(tracer._counter(), args, kwargs, result)
                except Exception:
                    tracer.hook_errors += 1
            return result

        return wrapper

    def _eval_wrapper(self, fn):
        tracer = self

        @functools.wraps(fn)
        def __call__(self_, t):
            counter = tracer._counter()
            counter["funcspec.eval.calls"] += 1
            counter["funcspec.eval.points"] += int(np.size(t))
            return fn(self_, t)

        return __call__

    def _patch(self, owner, name, orig, wrapper) -> None:
        if isinstance(owner, type):
            self._patches.append((owner, name, orig))
            setattr(owner, name, wrapper)
            return
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == "liebau" or mod_name.startswith("liebau.")):
                continue
            for key, value in list(vars(module).items()):
                if value is orig:
                    self._patches.append((module, key, orig))
                    setattr(module, key, wrapper)

    def install(self) -> "Tracer":
        """Wrap every layer function that exists; remember the absent ones.

        Call it from the main thread: spans opened in worker threads with no
        open span of their own take the main thread's innermost span as parent.
        """
        self._local.stack = self._main_stack
        for name, module, attr, hook in SPANS:
            found = _resolve(module, attr)
            if found is None:
                self.absent.append(name)
                continue
            owner, key, orig = found
            self._patch(owner, key, orig, self._span_wrapper(name, orig, hook))
        found = _resolve(*EVAL_TARGET)
        if found is None:
            self.absent.append("funcspec.eval")
        else:
            owner, key, orig = found
            self._patch(owner, key, orig, self._eval_wrapper(orig))
        return self

    def uninstall(self) -> None:
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span calls and self time plus the merged work counts."""
        return summarize(self.spans, self.counts(), self.absent, self.hook_errors)

    def counts(self) -> Counter:
        total = Counter()
        with self._lock:
            for counter in self._counters:
                total.update(counter)
        return total


def _union_length(intervals, lo: float, hi: float) -> float:
    covered = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered


def summarize(spans, counts, absent, hook_errors) -> dict:
    children = defaultdict(list)
    by_id = {}
    for sid, parent, name, t0, t1 in spans:
        children[parent].append((t0, t1))
        by_id[sid] = (parent, name)
    per_span: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
    fallback = 0
    for sid, parent, name, t0, t1 in spans:
        entry = per_span[name]
        entry["calls"] += 1
        entry["self_ms"] += 1e3 * ((t1 - t0) - _union_length(children[sid], t0, t1))
        if name == "solve.picard_iterate":
            up = parent
            while up is not None and up in by_id:
                up, up_name = by_id[up]
                if up_name == "solve.solve_periodic":
                    fallback += 1
                    break
    counts = Counter(counts)
    counts["solve.picard_fallback.calls"] += fallback
    return {
        "spans": dict(per_span),
        "counts": dict(counts),
        "absent": list(absent),
        "hook_errors": hook_errors,
    }


def merge(summaries) -> dict:
    """Sum several summaries (one per traced child process)."""
    spans: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ms": 0.0})
    counts = Counter()
    absent: set[str] = set()
    hook_errors = 0
    for s in summaries:
        for name, entry in s["spans"].items():
            spans[name]["calls"] += entry["calls"]
            spans[name]["self_ms"] += entry["self_ms"]
        counts.update(s["counts"])
        absent.update(s["absent"])
        hook_errors += s["hook_errors"]
    return {"spans": dict(spans), "counts": dict(counts), "absent": sorted(absent),
            "hook_errors": hook_errors}
