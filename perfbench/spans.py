"""In-memory span tracing for the benchmark's own calls into the toolkit.

A span records ``[name, start_ns, end_ns, parent_index, op_id]``; spans are
kept in a list while the traced pass runs and written out once at the end.
``NullTracer`` has the same interface and records no spans, so the timed
pass runs the very same op code with tracing switched off.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import Counter, defaultdict

_NULL = contextlib.nullcontext()


class NullTracer:
    """Records no spans; keeps counts, which cost one dict update each."""

    def __init__(self):
        self.counts: Counter = Counter()

    def span(self, name: str):
        return _NULL

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def counted(self, name: str, fn):
        return fn

    def begin_op(self, op_id) -> None:
        pass


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._op = None

    def begin_op(self, op_id) -> None:
        self._op = op_id

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, time.perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self._op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter_ns()
            self._stack.pop()

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] += n

    def counted(self, name: str, fn):
        """``fn`` wrapped so that every call adds one to counter ``name``."""
        counts = self.counts

        def wrapper(*args):
            counts[name] += 1
            return fn(*args)

        return wrapper

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, int]]:
        """Per span name: (total self time in ns, number of spans).

        Self time is a span's duration minus the durations of its direct
        children, which nest strictly inside it.
        """
        child = [0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for k, (name, start, end, _, _) in enumerate(self.spans):
            acc = out[name]
            acc[0] += end - start - child[k]
            acc[1] += 1
        return {name: (v[0], v[1]) for name, v in out.items()}

    def durations_by_op(self) -> dict:
        """``{op_id: {name: [total duration in ns, spans]}}`` over all spans."""
        out: dict = defaultdict(lambda: defaultdict(lambda: [0, 0]))
        for name, start, end, _, op in self.spans:
            acc = out[op][name]
            acc[0] += end - start
            acc[1] += 1
        return out

    def write(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")
