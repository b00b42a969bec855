"""Span recorder for the traced run.

`install` wraps every public function of the condlab modules named in
MODULES, plus `TorusOperator.eigensystem`, at every module-level name a
caller binds it under (so `condlab.experiments.resolvent_solve` and
`condlab.cli.simulate_vsrw` are wrapped as well as the definitions).  Each
call records one span: name, start, end and the index of its parent span.
Spans stay in memory; `Recorder.dump` writes them out at the end.

A span's self time is its duration minus the durations of its direct
children.  Calls are synchronous and single-threaded, so children never
overlap and the self times of a tree sum to its root's duration.
"""

import functools
import importlib
import inspect
import json
import os
import sys
import time

MODULES = ("environment", "functionals", "operators", "spectral", "walker", "experiments", "cli")


class Recorder:
    """In-memory spans and counters."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent]
        self.counts = {}
        self._stack = []

    def begin(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        return index

    def end(self, index):
        self.spans[index][2] = time.perf_counter()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {self.spans[index][0]!r} closed out of order")

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def span_stats(spans):
    """Per-name inclusive time, self time and call count, and the smallest self time.

    Inclusive time counts a span only when no ancestor has the same name, so
    a recursive call is not counted twice.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    stats = {}
    min_self = float("inf")
    for i, (name, start, end, parent) in enumerate(spans):
        entry = stats.setdefault(name, {"incl": 0.0, "self": 0.0, "calls": 0})
        dur = end - start
        own = dur - child_time[i]
        min_self = min(min_self, own)
        entry["self"] += own
        entry["calls"] += 1
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        if p < 0:
            entry["incl"] += dur
    return stats, min_self


def _wrap(rec, name, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = rec.begin(name)
        try:
            out = fn(*args, **kwargs)
        finally:
            rec.end(index)
        if after is not None:
            after(rec, args, out)
        return out

    return wrapper


def _count_report_bytes(rec, args, paths):
    rec.add("experiments.write_report.bytes", sum(os.path.getsize(p) for p in paths))


def _count_ensemble(rec, args, curve):
    rec.add("walker.walks", curve.walks_total)


def _count_walk(rec, args, traj):
    rec.add("walker.walks", 1)
    rec.add("walker.jumps", traj.jump_count)


_AFTER = {
    "experiments.write_report": _count_report_bytes,
    "walker.msd_estimate": _count_ensemble,
    "walker.simulate_vsrw": _count_walk,
    "walker.simulate_srw": _count_walk,
}


def _wrap_eigensystem(rec, method):
    @functools.wraps(method)
    def eigensystem(self):
        # a cached eigensystem costs nothing; count N^3 only when one is computed
        computed = getattr(self, "_eig", None) is None
        index = rec.begin("operators.eigensystem")
        try:
            out = method(self)
        finally:
            rec.end(index)
        if computed:
            rec.add("operators.eigensystem.n3_computed", float(self.lattice.n_sites) ** 3)
        return out

    return eigensystem


def rebind(replacements):
    """Point every condlab module-level name bound to a function at its replacement.

    `replacements` maps id(function) -> (function, replacement).  Returns a
    callable that restores the original bindings.
    """
    undo = []
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "condlab" or modname.startswith("condlab.")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = replacements.get(id(val))
            if hit is not None and hit[0] is val:
                setattr(mod, attr, hit[1])
                undo.append((mod, attr, val))

    def restore():
        for owner, attr, val in reversed(undo):
            setattr(owner, attr, val)

    return restore


def install(rec):
    """Wrap the public functions; returns a callable that undoes it."""
    wrappers = {}
    for short in MODULES:
        mod = importlib.import_module(f"condlab.{short}")
        for attr in getattr(mod, "__all__", ()):
            fn = getattr(mod, attr)
            if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                name = f"{short}.{attr}"
                wrappers[id(fn)] = (fn, _wrap(rec, name, fn, _AFTER.get(name)))
    restore = rebind(wrappers)
    from condlab.operators import TorusOperator

    method = TorusOperator.eigensystem
    TorusOperator.eigensystem = _wrap_eigensystem(rec, method)

    def uninstall():
        TorusOperator.eigensystem = method
        restore()

    return uninstall
