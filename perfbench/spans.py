"""In-memory spans for the traced replay, and the statistics read from them.

A span records name, start, end, parent span and pass id.  Spans stay in a
list until the run ends; the runner writes them to the results file.  Self
time is a span's duration minus the durations of its direct children, which
run one after another on the same thread and so never overlap.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager, nullcontext


class Tracer:
    def __init__(self):
        self.spans = []
        self.pass_id = None
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "pass": self.pass_id,
            "start": time.perf_counter(),
            "end": None,
        }
        record.update(attrs)
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def self_times(self):
        """Span id -> duration minus the time covered by its children."""
        own = {s["id"]: s["end"] - s["start"] for s in self.spans}
        for s in self.spans:
            if s["parent"] is not None:
                own[s["parent"]] -= s["end"] - s["start"]
        return own


class NullTracer:
    """Same interface as Tracer; records nothing."""

    def span(self, name, **attrs):
        return nullcontext({})


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values):
    """The largest sample with at least ten samples above it, and its percentile.

    Returns (value, percentile); (0.0, None) when there are fewer than 21
    samples, since that sample would then lie below the median.
    """
    if len(values) < 21:
        return 0.0, None
    ordered = sorted(values)
    rank = len(ordered) - 11
    return ordered[rank], 100.0 * (rank + 1) / len(ordered)
