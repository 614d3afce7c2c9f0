"""Timing instruments: a constant-memory latency histogram and an
in-memory span tracer."""

import math
from array import array
from time import perf_counter_ns

import numpy as np

# Bins 0.1 % wide on a log scale.
_BINS_PER_E = 1.0 / math.log1p(1e-3)
# Tail percentiles tried, highest first; the tail reported is the highest
# one with at least ten samples beyond it.
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)
TAIL_MIN_BEYOND = 10


class Histogram:
    """Latencies in nanoseconds, kept as counts per log-spaced bin.

    Memory does not grow with the sample count, so a faster program (more
    samples in a run) does not grow the benchmark's own footprint, which
    peak_rss_mb would otherwise report.  Percentiles interpolate within a
    bin by rank, so they are continuous to well under the bin width.
    """

    def __init__(self):
        self.counts = {}
        self.n = 0

    def add(self, ns: int) -> None:
        b = int(math.log(ns if ns > 1 else 1) * _BINS_PER_E)
        self.counts[b] = self.counts.get(b, 0) + 1
        self.n += 1

    def percentile_ns(self, p: float) -> float:
        if self.n == 0:
            raise ValueError("no samples")
        rank = p / 100.0 * self.n
        seen = 0
        for b in sorted(self.counts):
            count = self.counts[b]
            if seen + count >= rank:
                frac = (rank - seen) / count
                return math.exp((b + frac) / _BINS_PER_E)
            seen += count
        return math.exp((max(self.counts) + 1) / _BINS_PER_E)

    def tail(self):
        """``(percentile, value_ns)`` for the highest ladder percentile with
        at least ten samples beyond it, or ``None`` if there are too few."""
        for p in TAIL_LADDER:
            if self.n * (100.0 - p) / 100.0 >= TAIL_MIN_BEYOND:
                return p, self.percentile_ns(p)
        return None


class Tracer:
    """Spans recorded around calls into each layer, kept in memory as
    columns and written out once at the end.

    A span's name is ``<layer>.<function>``; spans of one request or job
    share a request id, and each span records the span that caused it.
    Self time is a span's duration minus the time its direct children
    cover (children never overlap: the benchmark is single-threaded).
    """

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name = array("q")
        self.parent = array("q")
        self.request = array("q")
        self.start = array("q")
        self.end = array("q")
        self.child_ns = array("q")
        self.request_id = 0
        self._stack = []
        # Per-call values read off results, e.g. calibration iterations.
        self.observed = {}

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def begin(self, name_id: int) -> int:
        i = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0)
        self.child_ns.append(0)
        self._stack.append(i)
        self.start.append(perf_counter_ns())
        return i

    def finish(self, i: int) -> None:
        t = perf_counter_ns()
        self.end[i] = t
        self._stack.pop()
        p = self.parent[i]
        if p >= 0:
            self.child_ns[p] += t - self.start[i]

    def wrap(self, name: str, fn, observe=None):
        """``fn`` with a span around every call; ``observe(result)``, if
        given, returns a number recorded under ``name`` after the span."""
        nid = self.name_id(name)
        begin, finish = self.begin, self.finish
        values = self.observed.setdefault(name, []) if observe else None

        def traced(*args, **kwargs):
            i = begin(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                finish(i)
            if observe is not None:
                values.append(observe(result))
            return result

        return traced

    def durations(self):
        """``(name index, duration ns, self ns)`` arrays over all spans."""
        start = np.frombuffer(self.start, dtype=np.int64)
        dur = np.frombuffer(self.end, dtype=np.int64) - start
        return (
            np.frombuffer(self.name, dtype=np.int64),
            dur,
            dur - np.frombuffer(self.child_ns, dtype=np.int64),
        )

    def write(self, path: str) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.name, dtype=np.int64),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            request=np.frombuffer(self.request, dtype=np.int64),
            start_ns=np.frombuffer(self.start, dtype=np.int64),
            end_ns=np.frombuffer(self.end, dtype=np.int64),
        )
