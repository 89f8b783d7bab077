"""Span tracer used by the benchmark's traced run.

The tracer wraps public functions of the protomatch layer modules and patches
each wrapper in at every module attribute that holds the function, which is
where callers look it up (``protomatch.trainer.similarity_vjp``,
``protomatch.metrics.similarity_matrix`` and so on).  Every call records one
span: function name, start and end (ns), parent span, the index one past its
last descendant, and the benchmark iteration it ran in (-1 during set-up).
Spans stay in flat in-memory arrays until the run ends; ``SpanTable`` turns
them into durations, self times and per-iteration counts.  Leaving the
``patched`` context restores every patched name, also when the body raises.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import resource
import sys
import time
from array import array
from typing import Callable, Iterable, Iterator

import numpy as np

PACKAGE = "protomatch"
# The package's modules that do work; `errors` only defines exception types.
LAYERS = (
    "dataset",
    "prototypes",
    "matching",
    "losses",
    "numerics",
    "trainer",
    "metrics",
    "diagnostics",
    "cli",
)

def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def layer_functions() -> dict[str, Callable]:
    """'layer.function' -> function for every public function a layer defines."""
    found = {}
    for layer in LAYERS:
        module = importlib.import_module(f"{PACKAGE}.{layer}")
        for attr, value in vars(module).items():
            if (
                not attr.startswith("_")
                and inspect.isfunction(value)
                and value.__module__ == module.__name__
            ):
                found[f"{layer}.{attr}"] = value
    return found


class Tracer:
    """Records one span per call of each wrapped function."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.last = array("i")
        self.iteration = array("i")
        self.start = array("q")
        self.end = array("q")
        self.first_end_rss: dict[str, float] = {}  # name -> peak RSS when its first call ended
        self.current_iteration = -1
        self._stack = [-1]

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn: Callable) -> Callable:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._stack[-1])
            self.iteration.append(self.current_iteration)
            self.last.append(idx + 1)
            self.end.append(0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
                self.last[idx] = len(self.start)
                if name not in self.first_end_rss:
                    self.first_end_rss[name] = peak_rss_mb()

        traced.__traced_span__ = name
        return traced


@contextlib.contextmanager
def patched(tracer: Tracer, only: Iterable[str] | None = None) -> Iterator[Tracer]:
    """Wrap layer functions (all, or the names in `only`) wherever they are bound.

    Every module of the package is searched, so a function imported by name
    into another module is wrapped there too.  All names are restored on exit.
    """
    targets = layer_functions()
    if only is not None:
        wanted = set(only)
        missing = wanted - targets.keys()
        if missing:
            raise KeyError(f"no such layer function: {sorted(missing)}")
        targets = {name: fn for name, fn in targets.items() if name in wanted}
    wrappers = {fn: tracer.wrap(name, fn) for name, fn in targets.items()}
    modules = _package_modules()
    restore: list[tuple[object, str, Callable]] = []
    try:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    restore.append((module, attr, value))
                    setattr(module, attr, wrappers[value])
        yield tracer
    finally:
        for module, attr, value in reversed(restore):
            setattr(module, attr, value)


def _package_modules() -> list:
    return [m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


def unpatched_check() -> None:
    """Raise if any module of the package still holds a span wrapper."""
    left = [f"{m.__name__}.{attr}" for m in _package_modules()
            for attr, value in vars(m).items() if hasattr(value, "__traced_span__")]
    if left:
        raise RuntimeError(f"span wrappers left in place: {left}")


class SpanTable:
    """Read-only numpy view of a tracer's spans, with derived self times."""

    def __init__(self, tracer: Tracer):
        n = len(tracer)
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.int32, count=n).copy()
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32, count=n).copy()
        self.last = np.frombuffer(tracer.last, dtype=np.int32, count=n).copy()
        self.iteration = np.frombuffer(tracer.iteration, dtype=np.int32, count=n).copy()
        start = np.frombuffer(tracer.start, dtype=np.int64, count=n)
        end = np.frombuffer(tracer.end, dtype=np.int64, count=n)
        self.duration = (end - start).astype(np.float64)  # ns
        child = np.zeros(n)
        has_parent = self.parent >= 0
        np.add.at(child, self.parent[has_parent], self.duration[has_parent])
        self.self_time = self.duration - child

    def index(self, name: str) -> int | None:
        return self.names.index(name) if name in self.names else None

    def spans(self, name: str, timed: bool = True) -> np.ndarray:
        """Indices of the calls of `name` in the timed iterations (or in set-up)."""
        nid = self.index(name)
        if nid is None:
            return np.zeros(0, dtype=np.int64)
        phase = self.iteration >= 0 if timed else self.iteration < 0
        return np.flatnonzero((self.name_id == nid) & phase)

    def calls_spans(self, name: str) -> np.ndarray:
        """Calls in the timed iterations, or in set-up if it only runs there."""
        idx = self.spans(name, timed=True)
        return idx if idx.size else self.spans(name, timed=False)

    def per_op_self(self, op_name: str) -> np.ndarray:
        """(ops, names) matrix: self time of each function inside each op span (ns)."""
        ops = self.spans(op_name)
        out = np.zeros((ops.size, len(self.names)))
        for row, i in enumerate(ops):
            out[row] = np.bincount(
                self.name_id[i : self.last[i]],
                weights=self.self_time[i : self.last[i]],
                minlength=len(self.names),
            )
        return out
