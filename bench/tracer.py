"""Span tracer that instruments mfgrow from outside the package.

``Tracer.install`` rebinds every public module-level function and every
public method defined in an mfgrow module to a wrapper that records a span
(name, start, end, parent) and an optional measured value. Functions are
rebound in every mfgrow namespace that holds them, so call sites that
resolve a name at call time (``cli`` calling ``load_checkpoint``, ``net.train``
calling ``backward_batch`` or ``opt.apply``) go through the wrapper.
Spans are kept in flat arrays in memory and written out once, at the end.
Call sites inside a function body that were bound to a local name are not
seen; spans inside ``net.py`` (per weight) need hooks in the program itself.
"""

from __future__ import annotations

import functools
import inspect
import math
import time
from array import array
from contextlib import contextmanager

import numpy as np

_NAN = math.nan


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.value = array("d")
        self.enabled = False
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _intern(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _begin(self, nid: int) -> int:
        sid = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(_NAN)
        self.value.append(_NAN)
        self._stack.append(sid)
        self.start.append(time.perf_counter())
        return sid

    def _finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (a pass, an operation)."""
        if not self.enabled:
            yield
            return
        sid = self._begin(self._intern(name))
        try:
            yield
        finally:
            self._finish(sid)

    @contextmanager
    def paused(self):
        """Run program code without recording it (output checks)."""
        was, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = was

    def wrap(self, name: str, fn, measure=None):
        nid = self._intern(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            sid = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._finish(sid)
            if measure is not None:
                self.value[sid] = measure(args, kwargs, result)
            return result

        return traced

    # -- installation -----------------------------------------------------

    def install(self, package, measures: dict | None = None) -> None:
        """Wrap the public functions and methods of every module in ``package``."""
        measures = measures or {}
        modules = [m for m in vars(package).values()
                   if inspect.ismodule(m) and m.__name__.startswith(package.__name__ + ".")]
        replaced: dict[int, object] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    name = f"{short}.{attr}"
                    replaced[id(obj)] = self.wrap(name, obj, measures.get(name))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._install_methods(short, obj, measures)
        for mod in [package, *modules]:
            for attr, obj in list(vars(mod).items()):
                wrapper = replaced.get(id(obj))
                if wrapper is not None:
                    self._undo.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def _install_methods(self, short: str, cls, measures: dict) -> None:
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                new = self.wrap(name, obj, measures.get(name))
            elif isinstance(obj, classmethod):
                new = classmethod(self.wrap(name, obj.__func__, measures.get(name)))
            else:
                continue
            self._undo.append((cls, attr, obj))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    # -- output -----------------------------------------------------------

    def write(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name_id=np.frombuffer(self.name_id, np.int32),
            parent=np.frombuffer(self.parent, np.int64), start=np.frombuffer(self.start),
            end=np.frombuffer(self.end), value=np.frombuffer(self.value),
        )


class Spans:
    """Read-only view of recorded spans with the derived quantities the
    per-layer metrics need: durations, self times, and for every span the
    benchmark operation and training step it ran under."""

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, np.int32).copy()
        self.parent = np.frombuffer(tracer.parent, np.int64).copy()
        self.value = np.frombuffer(tracer.value).copy()
        self.dur = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        n = len(self.dur)
        has_parent = self.parent >= 0
        child_time = np.bincount(self.parent[has_parent], weights=self.dur[has_parent], minlength=n)
        self.self_time = self.dur - child_time
        self.module = np.array([nm.split(".", 1)[0] for nm in self.names])[self.name_id] \
            if n else np.array([], dtype=str)

        # Parents are always recorded before their children, so one pass in
        # index order resolves each span's enclosing operation and step.
        op_ids = {i for i, nm in enumerate(self.names) if nm.startswith("op.")}
        step_ids = {self.names.index(nm) for nm in ("net.backward_batch", "net.OptimizerState.apply")
                    if nm in self.names}
        op = [-1] * n
        step = [-1] * n
        for i, (p, nid) in enumerate(zip(self.parent.tolist(), self.name_id.tolist())):
            if nid in op_ids:
                op[i] = i
            elif p >= 0:
                op[i] = op[p]
            if p >= 0 and step[p] >= 0:
                step[i] = step[p]
            elif nid in step_ids:
                step[i] = i
        self.op = np.array(op, dtype=np.int64)
        self.step = np.array(step, dtype=np.int64)

    def of(self, name: str) -> np.ndarray:
        """Indices of all spans with this name."""
        if name not in self.names:
            return np.array([], dtype=np.int64)
        return np.flatnonzero(self.name_id == self.names.index(name))

    def under_op(self, idx: np.ndarray, op_name: str) -> np.ndarray:
        """The subset of ``idx`` recorded inside an operation named ``op_name``."""
        if op_name not in self.names:
            return idx[:0]
        op_nid = self.names.index(op_name)
        ops = self.op[idx]
        keep = ops >= 0
        keep[keep] = self.name_id[ops[keep]] == op_nid
        return idx[keep]
