"""In-memory span recorder for the traced benchmark run.

A span is (name, start, end, parent, op): `parent` is the index of the
enclosing span, `op` the id of the operation it belongs to. Spans are
only collected here and written out when the run ends, so recording one
costs two clock reads and a list append.
"""

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, op=None):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "start": time.perf_counter(), "end": None,
               "parent": self._stack[-1] if self._stack else None, "op": op}
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name):
        """Seconds of every finished span called `name`."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["end"] is not None]

    def by_op(self):
        """{op: {span name: seconds}} over the finished spans of each op."""
        out = {}
        for s in self.spans:
            if s["end"] is not None:
                out.setdefault(s["op"], {})[s["name"]] = s["end"] - s["start"]
        return out
