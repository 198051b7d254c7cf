"""In-memory span recorder that wraps pavelab functions from outside the package.

Each target is a public function or method named by module and qualified
name.  A function is wrapped in every ``pavelab`` module namespace that binds
it (``paving`` imports ``op_norm`` by name, for example); a method is wrapped
on its class.  A target that no longer exists is recorded in ``absent`` and
reports zeros, so a refactor of the package does not break tracing.

Spans hold (target, op, start, end, parent) and stay in memory until `save`.
Self time is a span's duration minus the durations of the wrapped spans it
directly contains; calls run on one thread, so children never overlap.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

_MISSING = object()
BYTES_READ = "serialize.bytes_read"


class _CountingReader:
    """File handle proxy that adds the length of everything read to a counter."""

    def __init__(self, handle, add):
        self._handle = handle
        self._add = add

    def read(self, *args):
        data = self._handle.read(*args)
        self._add(len(data))
        return data

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._handle.close()

    def __getattr__(self, name):
        return getattr(self._handle, name)


class Tracer:
    """Wraps `targets` while installed and aggregates calls and self time per op.

    `targets` is a list of (metric name, module name, qualified name).
    `read_modules` are the modules whose `open` calls count towards the
    BYTES_READ counter.
    """

    def __init__(self, targets, read_modules=()):
        self.names = [t[0] for t in targets]
        self.absent = []
        self.op = -1
        self.spans = []
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.counters = defaultdict(float)
        self._stack = []
        self._patches = []
        self._installed = False
        for idx, (metric, module_name, qualname) in enumerate(targets):
            self._plan(idx, metric, importlib.import_module(module_name), qualname)
        for module_name in read_modules:
            module = importlib.import_module(module_name)
            self._patches.append((module, "open", vars(module).get("open", _MISSING),
                                  self._counting_open()))

    def _plan(self, idx, metric, module, qualname):
        owner_path, _, attr = qualname.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part, None)
        original = vars(owner).get(attr) if owner is not None else None
        if not callable(original):
            self.absent.append(metric)
            return
        wrapper = self._wrap(idx, original)
        if owner is not module:
            self._patches.append((owner, attr, original, wrapper))
            return
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("pavelab"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, name, original, wrapper))

    def _wrap(self, idx, fn):
        spans, stack = self.spans, self._stack
        calls, self_s = self.calls, self.self_s
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                op = self.op
                spans[sid] = (idx, op, start, end, parent)
                calls[op, idx] += 1
                self_s[op, idx] += duration - frame[1]

        return wrapper

    def _counting_open(self):
        real_open = builtins.open

        def add(n):
            self.counters[self.op, BYTES_READ] += n

        def counting_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if "r" in mode and "+" not in mode:
                return _CountingReader(handle, add)
            return handle

        return counting_open

    def install(self):
        if not self._installed:
            for owner, attr, _, wrapper in self._patches:
                setattr(owner, attr, wrapper)
            self._installed = True

    def uninstall(self):
        if self._installed:
            for owner, attr, original, _ in reversed(self._patches):
                if original is _MISSING:
                    delattr(owner, attr)
                else:
                    setattr(owner, attr, original)
            self._installed = False

    def count(self, op: int, name: str, value: float):
        self.counters[op, name] += value

    def calls_per_op(self, metric: str, ops) -> float:
        if metric in self.absent:
            return 0.0
        idx = self.names.index(metric)
        return statistics.fmean(self.calls[op, idx] for op in ops)

    def self_s_per_op(self, metric: str, ops) -> float:
        if metric in self.absent:
            return 0.0
        idx = self.names.index(metric)
        return statistics.median(self.self_s[op, idx] for op in ops)

    def counter_per_op(self, name: str, ops) -> float:
        return statistics.fmean(self.counters[op, name] for op in ops)

    def save(self, path: str):
        """Write every span as columns of an .npz file, plus the name table."""
        done = [s for s in self.spans if s is not None]
        cols = list(zip(*done)) if done else [(), (), (), (), ()]
        np.savez(path, names=np.array(self.names), absent=np.array(self.absent, dtype=str),
                 target=np.array(cols[0], dtype=np.int32),
                 op=np.array(cols[1], dtype=np.int32),
                 start=np.array(cols[2], dtype=np.float64),
                 end=np.array(cols[3], dtype=np.float64),
                 parent=np.array(cols[4], dtype=np.int64))
