"""Outside-in span tracer for the package's layers.

It wraps every public function of each layer module, and the methods of
``protocol.Engine``, by replacing the module or class attribute.  Calls
inside a module resolve names through the module dictionary, so calls
between functions of one module are seen as well.  Nothing in the package
itself changes.

Spans (name, parent, start, end) are kept in flat arrays in memory while
the workload runs; aggregation and writing happen after it ends.  A span's
self time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array

import numpy as np

LAYERS = ("qop", "layout", "models", "tfd", "protocol", "analysis", "cli")


def _apply_flop(args, kwargs):
    """Real flops of apply_matrix_on_sites(state, n_qubits, op, first, n_block):
    a complex (mid x mid) matrix on 2**n_qubits / mid vectors of length mid."""
    n_qubits = kwargs.get("n_qubits", args[1] if len(args) > 1 else None)
    op = kwargs.get("op", args[2] if len(args) > 2 else None)
    mid = np.shape(op)[0]
    return 8.0 * mid * 2 ** n_qubits


FLOP_MODELS = {"qop.apply_matrix_on_sites": _apply_flop}


def public_callables(package):
    """(qualified name, owner, attribute) for every wrapped target."""
    targets = []
    for layer in LAYERS:
        module = getattr(package, layer)
        for attr, obj in sorted(vars(module).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj) or hasattr(obj, "cache_info"):
                targets.append((f"{layer}.{attr}", module, attr))
    engine = package.protocol.Engine
    for attr, obj in sorted(vars(engine).items()):
        if inspect.isfunction(obj) and (attr == "__init__" or not attr.startswith("_")):
            targets.append((f"protocol.Engine.{attr}", engine, attr))
    return targets


class Tracer:
    """Records one span per call of every wrapped function."""

    def __init__(self, package):
        self.names = []
        self.flops = {}
        self._originals = []
        self._targets = public_callables(package)
        self._name = array("i")
        self._parent = array("q")
        self._start = array("d")
        self._end = array("d")
        self._stack = []

    def _wrap(self, index, name, fn):
        name_a, parent_a, start_a, end_a = self._name, self._parent, self._start, self._end
        stack = self._stack
        clock = time.perf_counter
        flop_model = FLOP_MODELS.get(name)
        flops = self.flops

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start_a)
            name_a.append(index)
            parent_a.append(stack[-1] if stack else -1)
            end_a.append(0.0)
            stack.append(span)
            if flop_model is not None:
                flops[name] = flops.get(name, 0.0) + flop_model(args, kwargs)
            start_a.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end_a[span] = clock()
                stack.pop()

        return traced

    def install(self):
        for index, (name, owner, attr) in enumerate(self._targets):
            original = vars(owner)[attr]
            self.names.append(name)
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(index, name, original))
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def _arrays(self):
        return (np.frombuffer(self._name, dtype=np.int32),
                np.frombuffer(self._parent, dtype=np.int64),
                np.frombuffer(self._start, dtype=np.float64),
                np.frombuffer(self._end, dtype=np.float64))

    def summary(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}} over every wrapped function."""
        name, parent, start, end = self._arrays()
        dur = end - start
        nested = parent >= 0
        child = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        self_s = np.bincount(name, weights=dur - child, minlength=n)
        return {self.names[i]: {"calls": int(calls[i]), "total_s": float(total[i]),
                                "self_s": float(self_s[i])} for i in range(n)}

    @property
    def n_spans(self) -> int:
        return len(self._start)

    def save(self, path):
        """Write every span: name index, parent span (-1 at top), start, end."""
        name, parent, start, end = self._arrays()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 start=start, end=end)
