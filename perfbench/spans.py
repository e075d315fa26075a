"""Spans the benchmark records around its own calls into the program.

A traced run wraps each call into a layer of the program (front end,
scheduler, a batch, an HTTP request, an edit) in a span: name, layer,
start, end, parent span, and the id of the benchmark operation it
belongs to (one batch, one request, one edit round).  Spans stay in
memory and are written once, at the end, as Chrome-trace JSON (load it
in Perfetto or ``chrome://tracing``).  An untraced run uses
:data:`OFF`, whose spans cost one attribute lookup and an empty
``with``.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Dict, Iterator, List, NamedTuple, Optional


class Span(NamedTuple):
    sid: int
    parent: Optional[int]
    op: Optional[int]
    name: str
    layer: str
    start: float
    end: float
    thread: int


class Tracer:
    """In-memory span recorder; thread-safe (each thread keeps its own
    parent stack, and ``list.append`` is atomic)."""

    enabled = True

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._ops = itertools.count(1)
        self._local = threading.local()
        self.origin = time.perf_counter()

    def new_op(self) -> int:
        """A fresh operation id for the spans of one batch, request or
        round."""
        return next(self._ops)

    @contextlib.contextmanager
    def span(self, name: str, layer: str,
             op: Optional[int] = None) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent_sid, parent_op = stack[-1] if stack else (None, None)
        sid = next(self._ids)
        op = op if op is not None else parent_op
        stack.append((sid, op))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, parent_sid, op, name, layer,
                                   start, end, threading.get_ident()))

    def self_times(self) -> Dict[str, float]:
        """Seconds per layer, each span's duration minus the part its
        direct children cover (children of one span run on its thread,
        one after another)."""
        child_time: Dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s.parent is not None:
                child_time[s.parent] += s.end - s.start
        out: Dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s.layer] += (s.end - s.start) - child_time.get(s.sid, 0.0)
        return dict(out)

    def write_chrome(self, path: Path) -> Path:
        threads = {t: i for i, t in enumerate(
            sorted({s.thread for s in self.spans}))}
        events = [
            {
                "name": s.name, "cat": s.layer, "ph": "X", "pid": 1,
                "tid": threads[s.thread],
                "ts": round((s.start - self.origin) * 1e6, 3),
                "dur": round((s.end - s.start) * 1e6, 3),
                "args": {"span": s.sid, "parent": s.parent, "op": s.op},
            }
            for s in sorted(self.spans, key=lambda s: s.start)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {"traceEvents": events, "displayTimeUnit": "ms",
             "otherData": {"self_time_s": self.self_times()}}))
        return path


class _Off:
    """The untraced run's tracer: records nothing."""

    enabled = False
    _null = contextlib.nullcontext()

    def new_op(self) -> None:
        return None

    def span(self, name: str, layer: str, op: Optional[int] = None):
        return self._null


OFF = _Off()
