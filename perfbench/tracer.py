"""Spans around the calls into opineq's layers, recorded from outside.

Each public function of a layer module is wrapped, and the wrapper is
patched into every ``opineq`` module namespace that binds the function,
because ``from .linalg import eigh`` gives ``sampler`` and ``maps`` their
own reference: a wrapper only on ``opineq.linalg.eigh`` would miss those
calls.  Calls a module makes to its own functions go through its globals,
so they are seen too.  Methods of classes are not wrapped; their time is
self time of the wrapped function that called them.

Spans stay in memory while the traced code runs.  Self time is found
afterwards by subtraction: a span's duration minus the durations of its
direct children.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

PACKAGE = "opineq"
LAYERS = ("linalg", "means", "maps", "sampler", "constants", "verifier", "suite", "io", "cli")


def _layer_functions():
    """(layer, attribute, function) for each public function of a layer."""
    for layer in LAYERS:
        mod = sys.modules[f"{PACKAGE}.{layer}"]
        for attr, obj in vars(mod).items():
            if not attr.startswith("_") and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                yield layer, attr, obj


class Tracer:
    """Records one span per wrapped call while installed.

    A span is ``(name, start, end, parent, error)`` with times from
    ``time.perf_counter_ns``; ``parent`` is the index of the enclosing span
    or -1, and ``error`` the name of the exception the call raised or None.
    Only the thread that runs opineq's code may call into it while installed
    (the stack is not shared between threads).
    """

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patches: list = []
        self.bindings: list[str] = []

    def _wrap(self, name: str, fn):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            error = None
            start = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, error)

        return wrapper

    def install(self) -> None:
        wrappers = {
            id(fn): (fn, self._wrap(f"{layer}.{attr}", fn))
            for layer, attr, fn in _layer_functions()
        }
        namespaces = [
            mod for mod_name, mod in list(sys.modules.items())
            if mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")
        ]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
                    self._patches.append((mod, attr, obj))
        self.bindings = sorted(f"{mod.__name__}.{attr}" for mod, attr, _ in self._patches)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def table(self) -> dict[str, dict]:
        """Per-function calls, total and self seconds, and raised exceptions."""
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "errors": {}}
        )
        for i, (name, start, end, parent, error) in enumerate(self.spans):
            row = out[name]
            row["calls"] += 1
            row["total_s"] += (end - start) / 1e9
            row["self_s"] += (end - start - child[i]) / 1e9
            if error is not None:
                row["errors"][error] = row["errors"].get(error, 0) + 1
        return dict(out)
