"""In-memory spans around calls into linmetric, and the statistics the
benchmark reports from them.

The library is never patched: the benchmark's own pipelines open a span
around each public call they make.  A span records its name, start,
end, parent span, item id and how many calls it covers (a loop over
battery points is one span covering many calls).
"""

from __future__ import annotations

import gzip
import json
import time
from contextlib import nullcontext

TAIL_LADDER = (50.0, 90.0, 95.0, 98.0, 99.0, 99.9, 99.99)


class NullTracer:
    """Stands in for a Tracer in the untraced run; records nothing."""

    _null = nullcontext()

    def span(self, name: str, calls: int = 1):
        return self._null

    def count(self, name: str, k: int = 1) -> None:
        pass


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # (name id, start ns, end ns, parent index or -1, item id, calls)
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self.item = -1
        self._stack: list[int] = []

    def span(self, name: str, calls: int = 1):
        return _Span(self, name, calls)

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def durations(self, name: str) -> list[float]:
        """Inclusive durations in seconds of every span with this name."""
        nid = self._name_ids.get(name)
        return [(s[2] - s[1]) * 1e-9 for s in self.spans if s[0] == nid]

    def calls(self, name: str) -> int:
        nid = self._name_ids.get(name)
        return sum(s[5] for s in self.spans if s[0] == nid)

    def self_seconds(self) -> dict[str, float]:
        """Per name: span duration minus the time its child spans cover.

        Children of one span never overlap (one thread, nested ``with``
        blocks), so the covered time is the sum of their durations.
        """
        child = [0] * len(self.spans)
        for s in self.spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        out: dict[str, float] = {}
        for i, s in enumerate(self.spans):
            name = self.names[s[0]]
            out[name] = out.get(name, 0.0) + (s[2] - s[1] - child[i]) * 1e-9
        return out

    def write(self, path, meta: dict) -> None:
        """Spans and per-name totals as gzipped JSON."""
        totals = {}
        selfs = self.self_seconds()
        for name in self.names:
            d = self.durations(name)
            totals[name] = {"calls": self.calls(name), "s": sum(d), "self_s": selfs[name]}
        doc = {
            "meta": meta,
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent", "item", "calls"],
            "spans": self.spans,
            "totals": totals,
            "counters": self.counters,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)


class _Span:
    __slots__ = ("tr", "nid", "calls", "idx")

    def __init__(self, tr: Tracer, name: str, calls: int):
        self.tr = tr
        self.nid = tr._name_id(name)
        self.calls = calls

    def __enter__(self):
        tr = self.tr
        self.idx = len(tr.spans)
        parent = tr._stack[-1] if tr._stack else -1
        tr._stack.append(self.idx)
        tr.spans.append((self.nid, time.perf_counter_ns(), 0, parent, tr.item, self.calls))
        return self

    def __exit__(self, *exc):
        end = time.perf_counter_ns()
        tr = self.tr
        tr._stack.pop()
        nid, start, _, parent, item, calls = tr.spans[self.idx]
        tr.spans[self.idx] = (nid, start, end, parent, item, calls)
        return False


def median(xs: list[float]) -> float:
    s = sorted(xs)
    n = len(s)
    if n == 0:
        return 0.0
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2


def tail(xs: list[float]) -> tuple[float, float]:
    """Value at the highest ladder percentile with >= 10 samples beyond it.

    Returns (value, percentile); below 20 samples that is the median, as
    percentile 50.
    """
    s = sorted(xs)
    n = len(s)
    if n == 0:
        return 0.0, 50.0
    best = (median(s), 50.0)
    for p in TAIL_LADDER[1:]:
        k = int(n * p / 100.0)
        if n - k - 1 < 10:
            break
        best = (s[k], p)
    return best
