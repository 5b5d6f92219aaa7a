"""In-memory spans recorded by the benchmark around calls into the library.

A span is (name, start, end, parent, instance): ``name`` is
``<module>.<function>`` of the library call it wraps (or ``bench.*`` for the
benchmark's own work), ``parent`` is the index of the enclosing span or -1,
and ``instance`` identifies the game instance the call served. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    """Span recorder plus exact counters, for one traced round."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, instance: str = ""):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, perf_counter(), 0.0, parent, instance])
        self._stack.append(index)
        try:
            yield
        finally:
            self.spans[index][2] = perf_counter()
            self._stack.pop()

    def wall(self) -> float:
        """Total duration of the root spans."""
        return sum(end - start for _, start, end, parent, _ in self.spans if parent < 0)

    def layers(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, busy time, longest call and self time.

        Self time is the duration minus the time covered by direct child
        spans; children of one span never overlap, since calls are sequential.
        """
        child_time = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        table: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "max_s": 0.0, "self_s": 0.0}
        )
        for i, (name, start, end, _, _) in enumerate(self.spans):
            row = table[name]
            duration = end - start
            row["calls"] += 1
            row["busy_s"] += duration
            row["max_s"] = max(row["max_s"], duration)
            row["self_s"] += duration - child_time[i]
        return dict(table)

    def records(self) -> list[dict]:
        """Spans as JSON-ready records, times relative to the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start": s - origin, "end": e - origin, "parent": p, "instance": i}
            for n, s, e, p, i in self.spans
        ]


def self_time_table(tracer: Tracer) -> str:
    """Human-readable per-layer table, sorted by self time."""
    wall = tracer.wall()
    rows = sorted(tracer.layers().items(), key=lambda kv: -kv[1]["self_s"])
    lines = [f"{'span':34s} {'calls':>7s} {'busy_s':>10s} {'self_s':>10s} {'self%':>7s}"]
    for name, row in rows:
        share = 100.0 * row["self_s"] / wall if wall > 0 else 0.0
        lines.append(
            f"{name:34s} {row['calls']:7d} {row['busy_s']:10.4f} {row['self_s']:10.4f} {share:6.2f}%"
        )
    lines.append(f"{'(traced wall)':34s} {'':7s} {wall:10.4f}")
    return "\n".join(lines)
