"""In-memory spans recorded around calls into knotalex's public functions.

A span has a name, start and end times, the index of its parent span and
the id of the operation it belongs to.  Spans are kept in a list and only
aggregated after the run.  ``NULL`` is the tracer of untraced runs: its
spans record nothing.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        #: [name, start, end, parent index or None, op id]
        self.spans: list[list] = []
        self.op = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        record = [name, time.perf_counter(), 0.0, parent, self.op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus the time of its children."""
        totals: dict[str, float] = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                totals[self.spans[parent][0]] -= end - start
        return dict(totals)


def span_cost(samples: int = 20000) -> float:
    """Seconds one empty span costs, measured on a scratch tracer."""
    tracer = Tracer()
    start = time.perf_counter()
    for _ in range(samples):
        with tracer.span("calibrate"):
            pass
    return (time.perf_counter() - start) / samples


class _NullTracer:
    _null = contextlib.nullcontext()

    def span(self, name: str):
        return self._null


NULL = _NullTracer()
