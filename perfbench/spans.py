"""In-memory spans recorded by the benchmark around calls into ordmaps.

A span is ``[name, start, end, parent]``: ``start`` and ``end`` come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans recorded in an
operation's process line up with the benchmark process that spawned it) and
``parent`` is the index of the enclosing span or ``None``. A span's self time
is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

clock = time.perf_counter


class Tracer:
    """Records spans and integer counts for one operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, clock(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.spans[index][2] = clock()
        self._stack.pop()

    def count(self, name: str, value) -> None:
        self.counts[name] += value

    def wrap(self, fn, name: str, counter=None):
        """``fn`` recorded as span ``name``.

        ``counter(tracer, args, kwargs, result)`` runs after the span closes,
        inside a ``bench.count`` span, so counting is not billed to the layer.
        """

        @functools.wraps(fn, updated=())  # fn may be a class
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if counter is not None:
                index = self.begin("bench.count")
                try:
                    counter(self, args, kwargs, result)
                finally:
                    self.end(index)
            return result

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)


def load(path) -> tuple[list[list], dict[str, float]]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    return payload["spans"], payload["counts"]


def adopt(root_name: str, start: float, end: float, spans: list[list]) -> list[list]:
    """Spans under a new root covering [start, end]; the root gets index 0."""
    tree = [[root_name, start, end, None]]
    for name, s, e, parent in spans:
        tree.append([name, s, e, 0 if parent is None else parent + 1])
    return tree


def self_times(spans: list[list]) -> list[float]:
    own = [e - s for _, s, e, _ in spans]
    for _, s, e, parent in spans:
        if parent is not None:
            own[parent] -= e - s
    return own


def totals(spans: list[list]) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Inclusive seconds, self seconds and span count per span name."""
    inclusive: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for (name, s, e, _), self_s in zip(spans, self_times(spans)):
        inclusive[name] += e - s
        own[name] += self_s
        calls[name] += 1
    return inclusive, own, calls


def tree_problems(
    spans: list[list], expected_parent: dict[str, str], max_root_self: float | None = None
) -> list[str]:
    """Nesting and self-time defects of a span tree rooted at index 0.

    Every span must have the parent ``expected_parent`` names and lie inside
    its parent's interval, so every self time is non-negative. Self times sum
    to the root's duration by construction; with ``max_root_self`` the root's
    own share (for an operation: interpreter start and exit) must also stay
    within that many seconds, so the layer spans account for the rest of the
    wall time.
    """
    problems = []
    for index, (name, s, e, parent) in enumerate(spans):
        if index == 0:
            if parent is not None:
                problems.append(f"root {name} has a parent")
            continue
        if parent is None:
            problems.append(f"span {index} {name} has no parent")
            continue
        pname, ps, pe, _ = spans[parent]
        want = expected_parent.get(name)
        if want is not None and pname != want:
            problems.append(f"span {index} {name} nests under {pname}, expected {want}")
        if s < ps or e > pe or e < s:
            problems.append(f"span {index} {name} [{s}, {e}] leaves parent {pname} [{ps}, {pe}]")
    own = self_times(spans)
    for (name, *_), self_s in zip(spans, own):
        if self_s < 0.0:
            problems.append(f"span {name} has negative self time {self_s}")
    if max_root_self is not None and own[0] > max_root_self:
        problems.append(
            f"spans leave {own[0]:.4f} s of the {spans[0][2] - spans[0][1]:.4f} s root "
            f"unaccounted, over the {max_root_self} s tolerance"
        )
    return problems
