"""Spans recorded around calls into surfreal, and per-layer self time.

A span is ``{"name", "start", "end", "parent", "run", ...attrs}``, with
times from ``time.perf_counter`` and ``parent`` the index of the
enclosing span (None at top level).  Spans are kept in memory and
written as one JSON file when the run ends.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[int] = []

    def _begin(self, name: str, attrs: dict) -> dict:
        span = {"name": name, "start": None, "end": None,
                "parent": self._open[-1] if self._open else None, "run": self.run_id, **attrs}
        self._open.append(len(self.spans))
        self.spans.append(span)
        span["start"] = time.perf_counter()
        return span

    def _end(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str, **attrs):
        span = self._begin(name, attrs)
        try:
            yield span
        finally:
            self._end(span)

    def wrap(self, name: str, fn, before=None, after=None):
        """``fn`` with a span around every call.

        ``before(*args, **kwargs)`` and ``after(result)``, if given, return
        attributes to add to the span.
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._begin(name, before(*args, **kwargs) if before else {})
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(span)
            if after:
                span.update(after(result))
            return result
        return traced

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"run": self.run_id, "spans": self.spans}), encoding="utf-8")


def self_times(spans: list[dict]) -> dict[str, float]:
    """Sum over spans of each name of duration minus the time its children cover.

    Spans come from one thread, so children of a span never overlap and
    the covered time is the sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            covered[span["parent"]] += span["end"] - span["start"]
    totals: dict[str, float] = defaultdict(float)
    for span, inner in zip(spans, covered):
        totals[span["name"]] += span["end"] - span["start"] - inner
    return dict(totals)
