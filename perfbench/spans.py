"""Span recording around calls into the tustin layers, from outside.

:func:`install` replaces each public function of each layer module with a
recorder, in every ``tustin`` namespace that imported the name (for example
``tustin.cli.process``, ``tustin.analysis.generate_chirp`` and
``tustin.discretize.taylor_shift``), and :func:`uninstall` puts the
originals back.  A span is one call: name, start, end, parent span and the
id of the operation it belongs to, kept in preallocated arrays so that
recording allocates nothing per call.  :func:`derive` turns the arrays
into per-name totals, with self time = duration minus the time its child
spans cover.

Nothing in tustin queues, waits or retries, so there are no wait or retry
spans to record.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from functools import wraps

import numpy as np

# Layer modules whose public functions are wrapped.  catalog is left out:
# its constructors take microseconds and count towards design time.
LAYERS = ("tfparse", "polynomial", "discretize", "runtime", "signals", "analysis")

# Calls whose result length is recorded with the span as the work done:
# samples for the batch kernel and the generators, points for the curves.
COUNTED = ("runtime.process", "signals.generate_chirp", "signals.generate_sine",
           "analysis.bode_continuous", "analysis.bode_digital")

NO_PARENT = -1


class Recorder:
    """Fixed-capacity span store; once full, further calls go unrecorded."""

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self.start = array("q", bytes(8 * capacity))
        self.end = array("q", bytes(8 * capacity))
        self.name = array("i", bytes(4 * capacity))
        self.parent = array("i", bytes(4 * capacity))
        self.op = array("i", bytes(4 * capacity))
        self.amount = array("q", bytes(8 * capacity))
        self.n = 0
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._stack: list[int] = []
        self.op_id = 0
        self.dropped = 0

    @property
    def full(self) -> bool:
        """True once nine tenths are used; the rest is headroom for the
        operation in flight and the checks that follow."""
        return self.n >= self.capacity - self.capacity // 10

    def name_id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, name_id: int) -> int:
        i = self.n
        if i >= self.capacity:
            self.dropped += 1
            return NO_PARENT
        self.n = i + 1
        stack = self._stack
        self.name[i] = name_id
        self.parent[i] = stack[-1] if stack else NO_PARENT
        self.op[i] = self.op_id
        self.amount[i] = 0
        stack.append(i)
        self.start[i] = time.perf_counter_ns()
        return i

    def finish(self, i: int) -> None:
        if i == NO_PARENT:
            return
        self.end[i] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn):
        """A recorder for fn: same call, one span named ``name``."""
        nid = self.name_id(name)
        counted = name in COUNTED
        begin = self.begin
        finish = self.finish

        @wraps(fn)
        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                finish(i)
            if counted and i != NO_PARENT:
                self.amount[i] = len(out)
            return out

        return traced

    def arrays(self) -> dict[str, np.ndarray]:
        n = self.n
        return {
            "start": np.frombuffer(self.start, dtype=np.int64, count=n).copy(),
            "end": np.frombuffer(self.end, dtype=np.int64, count=n).copy(),
            "name": np.frombuffer(self.name, dtype=np.int32, count=n).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32, count=n).copy(),
            "op": np.frombuffer(self.op, dtype=np.int32, count=n).copy(),
            "amount": np.frombuffer(self.amount, dtype=np.int64, count=n).copy(),
        }

    def save(self, path: str) -> None:
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())


def _public_functions(module) -> dict[str, object]:
    return {
        name: obj for name, obj in vars(module).items()
        if inspect.isfunction(obj) and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


def install(recorder: Recorder) -> list[tuple[object, str, object]]:
    """Patch every tustin namespace; returns what :func:`uninstall` needs."""
    originals = {}
    for layer in LAYERS:
        module = sys.modules[f"tustin.{layer}"]
        for name, fn in _public_functions(module).items():
            originals[id(fn)] = recorder.wrap(f"{layer}.{name}", fn)
    patched = []
    for modname, module in list(sys.modules.items()):
        if modname != "tustin" and not modname.startswith("tustin."):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and inspect.isfunction(value):
                patched.append((module, attr, value))
                setattr(module, attr, wrapper)
    return patched


def uninstall(patched: list[tuple[object, str, object]]) -> None:
    for module, attr, value in patched:
        setattr(module, attr, value)


def derive(arrays: dict[str, np.ndarray], names: list[str]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy (s), self (s), amount and outer busy (s).

    self = duration - time covered by direct children.  ``outer_busy_s``
    counts only spans whose parent has a different layer prefix, so a layer
    total does not count its own nested calls twice.
    """
    n = arrays["start"].size
    dur = (arrays["end"] - arrays["start"]).astype(np.float64)
    parent = arrays["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    layer_of = np.array([nm.split(".")[0] for nm in names] or [""])
    name = arrays["name"]
    parent_layer = np.where(has_parent, layer_of[name[np.where(has_parent, parent, 0)]], "")
    outer = parent_layer != layer_of[name]
    out = {}
    for nid, nm in enumerate(names):
        sel = name == nid
        if not sel.any():
            continue
        out[nm] = {
            "calls": int(sel.sum()),
            "busy_s": float(dur[sel].sum()) * 1e-9,
            "self_s": float(self_t[sel].sum()) * 1e-9,
            "outer_busy_s": float(dur[sel & outer].sum()) * 1e-9,
            "amount": int(arrays["amount"][sel].sum()),
        }
    return out


def self_under(arrays: dict[str, np.ndarray], names: list[str], root_name: str) -> tuple[float, float]:
    """(sum of root durations, sum of non-root self time beneath them), seconds.

    Roots are spans named ``root_name``; the second figure is the time the
    layer spans account for inside those operations.
    """
    n = arrays["start"].size
    if n == 0 or root_name not in names:
        return 0.0, 0.0
    dur = (arrays["end"] - arrays["start"]).astype(np.float64)
    parent = arrays["parent"]
    has_parent = parent >= 0
    child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)
    self_t = dur - child
    rid = names.index(root_name)
    is_root = (arrays["name"] == rid) & ~has_parent
    root_ops = np.unique(arrays["op"][is_root])
    inside = np.isin(arrays["op"], root_ops) & has_parent
    return float(dur[is_root].sum()) * 1e-9, float(self_t[inside].sum()) * 1e-9
