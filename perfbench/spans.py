"""In-memory spans recorded by wrapping library functions.

A ``Tracer`` replaces each listed module attribute (the name a caller looks a
function up under) with a wrapper that records a span: name, start, end,
parent span and request id.  Spans stay in memory until the run ends.  The
original attributes are put back on exit, also when a request raises.  A
listed attribute that does not exist raises, so that no layer goes unmeasured
unnoticed.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from typing import Callable

import numpy as np

REQUEST_SPAN = "cli.request"

# span fields, stored as a list per span for speed
NAME, START, END, PARENT, REQUEST, INFO = range(6)


@dataclass(frozen=True)
class Point:
    """One wrap point: ``module.attr`` is recorded as span ``span``.

    ``keep(args, kwargs, result)``, when given, stores a small summary of the
    call in the span; it runs after the span has ended.
    """

    module: str
    attr: str
    span: str
    keep: Callable | None = None


class Tracer:
    def __init__(self, points):
        self.points = tuple(points)
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._request = -1
        self._saved: list[tuple] = []

    def __enter__(self) -> "Tracer":
        try:
            for point in self.points:
                module = importlib.import_module(point.module)
                original = getattr(module, point.attr)   # missing: raises
                self._saved.append((module, point.attr, original))
                setattr(module, point.attr, self._wrap(original, point))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _open(self, name: str) -> list:
        span = [name, 0, 0, self._stack[-1] if self._stack else -1,
                self._request, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _wrap(self, fn, point: Point):
        def wrapper(*args, **kwargs):
            span = self._open(point.span)
            span[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = perf_counter_ns()
                self._stack.pop()
            if point.keep is not None:
                span[INFO] = point.keep(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", point.attr)
        return wrapper

    @contextmanager
    def request(self, request_id: int):
        """Root span of one request; spans opened inside carry its id."""
        self._request = request_id
        first = len(self.spans)
        span = self._open(REQUEST_SPAN)
        span[START] = perf_counter_ns()
        try:
            yield first
        finally:
            span[END] = perf_counter_ns()
            self._stack.pop()
            self._request = -1

    def write(self, path: Path):
        """Spans as CSV: name, start_ns, end_ns, parent index, request id."""
        path.parent.mkdir(parents=True, exist_ok=True)
        lines = ["name,start_ns,end_ns,parent,request"]
        lines += [f"{s[NAME]},{s[START]},{s[END]},{s[PARENT]},{s[REQUEST]}"
                  for s in self.spans]
        path.write_text("\n".join(lines) + "\n")


def self_times(spans: list[list]) -> np.ndarray:
    """Each span's duration minus the durations of its direct children, in
    nanoseconds.  Children nest inside their parent in a single thread, so
    this is the part of the span no child covers."""
    duration = np.array([s[END] - s[START] for s in spans], dtype=np.int64)
    parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
    own = duration.copy()
    has_parent = parent >= 0
    np.subtract.at(own, parent[has_parent], duration[has_parent])
    return own
