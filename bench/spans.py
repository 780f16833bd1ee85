"""An in-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, datum id); parents are indexes into
the span list.  Spans are only kept in memory while the run measures and
written out once at the end.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Recorder:
    def __init__(self):
        self.spans = []
        self.datum = None
        self._stack = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent, self.datum])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def _child_time(self):
        covered = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                covered[parent] += end - start
        return covered

    def totals(self):
        """Inclusive seconds per span name."""
        out = defaultdict(float)
        for name, start, end, _, _ in self.spans:
            out[name] += end - start
        return dict(out)

    def self_times(self):
        """Seconds per span name not covered by the span's children."""
        covered = self._child_time()
        out = defaultdict(float)
        for i, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += end - start - covered[i]
        return dict(out)

    def by_datum(self, name):
        """Inclusive seconds of one span name, per datum id."""
        out = defaultdict(float)
        for span_name, start, end, _, datum in self.spans:
            if span_name == name:
                out[datum] += end - start
        return dict(out)

    def write(self, path, extra):
        t0 = self.spans[0][1] if self.spans else 0.0
        doc = dict(extra)
        doc["spans"] = [{"name": n, "start": s - t0, "end": e - t0,
                         "parent": p, "datum": d}
                        for n, s, e, p, d in self.spans]
        doc["self_s"] = self.self_times()
        path.write_text(json.dumps(doc, indent=1, sort_keys=True),
                        encoding="utf-8")
