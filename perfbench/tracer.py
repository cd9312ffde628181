"""In-memory span tracing of maxentmil's public functions, from outside.

A Tracer wraps functions and methods of the package, records one span per
call (name, start, end, parent) in memory, and aggregates calls, self
time and measured quantities per span name. Nothing inside the package is
edited: `patched` swaps the wrappers into every package namespace that
holds the original (a function imported by name into another module has
one binding there too) and puts the originals back on exit.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

PACKAGE = "maxentmil"


def resolve(path: str):
    """(owner, attribute) for "module.attr" or "module.Class.attr" under
    the package, e.g. "maxent.BasisGrid.moments"."""
    parts = path.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{parts[0]}")
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


def _bindings(owner, attr):
    """Every (namespace, attribute) that holds the same object as
    owner.attr: the owner itself plus, for a module-level function, every
    package module that imported it by name."""
    original = getattr(owner, attr)
    found = [(owner, attr)]
    if isinstance(owner, type):
        return original, found
    for mod_name, mod in list(sys.modules.items()):
        if mod is owner or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for name, value in vars(mod).items():
            if value is original:
                found.append((mod, name))
    return original, found


@contextlib.contextmanager
def patched(targets, make_wrapper):
    """Replace each target function with make_wrapper(span_name, original,
    measure) in every namespace that binds it; restore all on exit.

    targets is a sequence of (span_name, "module[.Class].attr", measure).
    """
    saved = []
    try:
        for span_name, path, measure in targets:
            original, found = _bindings(*resolve(path))
            wrapper = make_wrapper(span_name, original, measure)
            for namespace, attr in found:
                saved.append((namespace, attr, vars(namespace)[attr]))
                setattr(namespace, attr, wrapper)
        yield
    finally:
        for namespace, attr, original in reversed(saved):
            setattr(namespace, attr, original)


class Tracer:
    """Span recorder. Spans are kept as parallel lists; a span's parent is
    the index of the span that was open when it started (-1 at top level).
    `measure(args, kwargs, result)` hooks return counts added to the span
    name's counters (rows, columns, bytes, solver steps...)."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.counters: dict[str, Counter] = defaultdict(Counter)
        self._stack: list[int] = []

    def wrap(self, name, fn, measure=None):
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack,
        )
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if measure is not None:
                self.counters[name].update(measure(args, kwargs, result))
            return result

        return traced

    def record(self, name, start, end, parent=-1) -> int:
        """Append a finished span directly (used by tests)."""
        self.names.append(name)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(parent)
        return len(self.names) - 1

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its children.
        Spans nest strictly (one thread; a call returns before its
        caller), so the children cover disjoint parts of the interval."""
        out = [e - s for s, e in zip(self.starts, self.ends)]
        for s, e, p in zip(self.starts, self.ends, self.parents):
            if p >= 0:
                out[p] -= e - s
        return out

    def inside(self, ancestor: str) -> list[bool]:
        """Per span: whether it or an enclosing span is named `ancestor`.
        Parents always precede their children, so one pass suffices."""
        flags = []
        for name, p in zip(self.names, self.parents):
            flags.append(name == ancestor or (p >= 0 and flags[p]))
        return flags

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, plus the
        counters its measure hooks returned."""
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for name, s, e, own in zip(self.names, self.starts, self.ends, self.self_times()):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += e - s
            row["self_s"] += own
        for name, counts in self.counters.items():
            out[name].update(counts)
        return dict(out)

    def write(self, path):
        """One JSON object per span: name, start, end, parent."""
        with open(path, "w") as fh:
            for rec in zip(self.names, self.starts, self.ends, self.parents):
                fh.write(json.dumps(dict(zip(("name", "start", "end", "parent"), rec))))
                fh.write("\n")
