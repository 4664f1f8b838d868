"""Traced runs: wrap the public functions and methods of lexmv's nine modules.

Every name a module defines is wrapped once, and the wrapper is bound in
every lexmv namespace that imported the original (cli, for example, holds
its own ``axiom_report``).  Each call records its self time against the
module that defines it.  Calls into groups and algebra, and the
index-level methods of FiniteMv, are leaf arithmetic: they are aggregated
per request as (calls, self time) instead of being recorded as spans, so
memory stays bounded.  All other calls become spans
(name, start, end, parent span, request id) kept in memory.

The self time of a call is its duration minus the durations of the
wrapped calls it made, so per-module self times partition the time spent
inside lexmv and their sum cannot exceed the traced wall time.  Like the
request times, each request's self times are normalized to the host's
speed (``normalize``), so the two can be compared.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import defaultdict

LEAF_MODULES = ("groups", "algebra")
LEAF_CLASSES = ("FiniteMv",)


class Tracer:
    def __init__(self, L, modules):
        self.L = L
        self.modules = modules
        self.self_s = defaultdict(float)  # raw seconds
        self.norm_self_s = defaultdict(float)  # seconds at reference speed
        self.calls = defaultdict(int)
        self.leaf = defaultdict(lambda: [0, 0.0])  # (request, name) -> [calls, self s]
        self.spans = []  # (name, start, end, parent index or -1, request)
        self._acc = []  # child-time accumulator of each open call
        self._open = []  # indices of open spans
        self._rid = -1
        self._requests = 0
        self._pending = []  # raw self seconds per module of each request not yet normalized
        self._undo = []

    # -- wrapping -----------------------------------------------------------

    def _wrap(self, fn, module: str, name: str, leaf: bool):
        acc, opened, spans = self._acc, self._open, self.spans
        self_s, calls, agg = self.self_s, self.calls, self.leaf
        perf = time.perf_counter
        tracer = self

        if leaf:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                acc.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    d = perf() - t0
                    own = d - acc.pop()
                    if acc:
                        acc[-1] += d
                    self_s[module] += own
                    calls[module] += 1
                    cell = agg[(tracer._rid, name)]
                    cell[0] += 1
                    cell[1] += own
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                idx = len(spans)
                spans.append(None)
                parent = opened[-1] if opened else -1
                opened.append(idx)
                acc.append(0.0)
                t0 = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    t1 = perf()
                    d = t1 - t0
                    own = d - acc.pop()
                    opened.pop()
                    if acc:
                        acc[-1] += d
                    self_s[module] += own
                    calls[module] += 1
                    spans[idx] = (name, t0, t1, parent, tracer._rid)
        return wrapper

    def install(self) -> None:
        """Wrap every public function and method; rebind in all namespaces."""
        swapped = {}
        for mod_name in self.modules:
            mod = getattr(self.L, mod_name)
            leaf_mod = mod_name in LEAF_MODULES
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    swapped[id(obj)] = (obj, self._wrap(obj, mod_name, f"{mod_name}.{name}", leaf_mod))
                elif isinstance(obj, type):
                    self._wrap_class(obj, mod_name, leaf_mod or name in LEAF_CLASSES)
        for mod in [m for n, m in sys.modules.items() if n == "lexmv" or n.startswith("lexmv.")]:
            for name, obj in list(vars(mod).items()):
                hit = swapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
                    self._undo.append((mod, name, obj))

    def _wrap_class(self, cls, mod_name: str, leaf: bool) -> None:
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            label = f"{mod_name}.{cls.__name__}.{attr}"
            if isinstance(val, types.FunctionType):
                new = self._wrap(val, mod_name, label, leaf)
            elif isinstance(val, property) and val.fget is not None:
                new = property(self._wrap(val.fget, mod_name, label, leaf), val.fset, val.fdel, val.__doc__)
            elif isinstance(val, (classmethod, staticmethod)):
                new = type(val)(self._wrap(val.__func__, mod_name, label, leaf))
            else:
                continue
            setattr(cls, attr, new)
            self._undo.append((cls, attr, val))

    def uninstall(self) -> None:
        for owner, name, orig in reversed(self._undo):
            setattr(owner, name, orig)
        self._undo.clear()

    # -- requests -----------------------------------------------------------

    def request(self, family: str, call):
        """Run one request under a root span owned by the benchmark."""
        self._rid = rid = self._requests
        self._requests += 1
        idx = len(self.spans)
        self.spans.append(None)
        self._open.append(idx)
        self._acc.append(0.0)
        before = dict(self.self_s)
        t0 = time.perf_counter()
        try:
            return call()
        finally:
            t1 = time.perf_counter()
            self._acc.pop()
            self._open.pop()
            self.spans[idx] = (f"request.{family}", t0, t1, -1, rid)
            self._rid = -1
            self._pending.append({m: v - before.get(m, 0.0) for m, v in self.self_s.items()})

    def normalize(self, scale) -> None:
        """Add the pending requests' self times to norm_self_s, request i's
        raw seconds scaled by scale[i] (reference seconds per raw ns)."""
        for own, k in zip(self._pending, scale, strict=True):
            for mod, sec in own.items():
                self.norm_self_s[mod] += sec * 1e9 * k
        self._pending.clear()

    def leaf_calls(self, name: str) -> int:
        return sum(c for (_, n), (c, _) in self.leaf.items() if n == name)

    def write(self, path) -> None:
        """Spans, then per-request leaf aggregates, as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as fh:
            for name, t0, t1, parent, rid in self.spans:
                fh.write(json.dumps({"name": name, "start": t0, "end": t1,
                                     "parent": parent, "request": rid}) + "\n")
            for (rid, name), (count, own) in sorted(self.leaf.items()):
                fh.write(json.dumps({"leaf": name, "request": rid, "calls": count,
                                     "self_s": own}) + "\n")
