"""Spans around the public functions of `stellar`, recorded from outside.

`Tracer.install()` replaces every public function of the traced modules by a
wrapper in every namespace that binds it (the modules import each other's
functions by name, and `principal` keeps its routes in a dict).  A wrapper
records one span per call: operation id, name, start, end and the index of
the span that called it.  A layer's self time is its span's duration minus
the time its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import threading
import time
import weakref

MODULES = ("spin_rep", "majorana", "grassmann", "decomp", "principal", "multicon", "cli")


def public_functions(module) -> dict:
    """Public functions (plain or lru-cached) defined in the module itself."""
    out = {}
    for attr, obj in vars(module).items():
        if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
            continue
        if getattr(obj, "__module__", None) == module.__name__:
            out[attr] = obj
    return out


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.spans: list = []
        self.roots = 0
        self.bd_calls = 0
        self.bd_hits = 0
        self._seen_bases: dict = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        """Forget spans and counts; bases already returned stay known."""
        self.spans = []
        self.roots = 0
        self.bd_calls = 0
        self.bd_hits = 0

    def install(self) -> None:
        package = importlib.import_module("stellar")
        modules = [package] + [importlib.import_module(f"stellar.{m}") for m in MODULES]
        for short, mod in zip(MODULES, modules[1:]):
            for attr, fn in public_functions(mod).items():
                wrapper = self._wrap(f"{short}.{attr}", fn)
                for other in modules:
                    space = vars(other)
                    for key, val in list(space.items()):
                        if val is fn:
                            space[key] = wrapper
                        elif isinstance(val, dict):
                            for dk, dv in list(val.items()):
                                if dv is fn:
                                    val[dk] = wrapper

    def _wrap(self, name: str, fn):
        counted = name in ("majorana.poly_roots", "decomp.bd_basis")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(self._local, "stack", None)
            if stack is None:
                stack = self._local.stack = []
            parent = stack[-1][0] if stack else -1
            with self._lock:
                entry = [len(self.spans), 0.0]
                self.spans.append(None)
            stack.append(entry)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                self.spans[entry[0]] = (self.op, name, start, end, parent, entry[1])
            if counted:
                self._count(name, out)
            return out

        return wrapper

    def _count(self, name: str, out) -> None:
        with self._lock:
            if name == "majorana.poly_roots":
                self.roots += len(out)
                return
            self.bd_calls += 1
            ref = self._seen_bases.get(id(out))
            if ref is not None and ref() is out:
                self.bd_hits += 1
            else:
                self._seen_bases[id(out)] = weakref.ref(out)

    def summary(self) -> dict:
        """Calls and self seconds per span name, plus the layer counts."""
        layers: dict = {}
        for _, name, start, end, _, child in self.spans:
            calls, self_s = layers.get(name, (0, 0.0))
            layers[name] = (calls + 1, self_s + (end - start) - child)
        return {
            "layers": {k: {"calls": c, "self_s": s} for k, (c, s) in layers.items()},
            "roots": self.roots,
            "bd_calls": self.bd_calls,
            "bd_hits": self.bd_hits,
        }

    def write(self, path: str) -> None:
        """Spans as JSON lines: [op, name, start_s, end_s, parent, child_s]."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def merge(summaries) -> dict:
    """Sum the summaries of several processes."""
    out = {"layers": {}, "roots": 0, "bd_calls": 0, "bd_hits": 0}
    for s in summaries:
        for name, v in s["layers"].items():
            acc = out["layers"].setdefault(name, {"calls": 0, "self_s": 0.0})
            acc["calls"] += v["calls"]
            acc["self_s"] += v["self_s"]
        for key in ("roots", "bd_calls", "bd_hits"):
            out[key] += s[key]
    return out
