"""In-memory spans recorded around the benchmark's calls into the package.

A span is ``[name, start, end, parent, board, phase, count]``: ``name`` is
``<layer>.<operation>``, ``parent`` the index of the enclosing span (-1 at
the top), ``board`` the id shared by every span of one board, ``phase`` one
of ``setup``, ``main`` or ``tour``, and ``count`` an optional work count
(IDA* nodes, table entries, states) recorded at the same boundary. Spans stay
in a list until the run ends and writes them out.
"""

from __future__ import annotations

from collections import defaultdict
from contextlib import contextmanager, nullcontext
from time import perf_counter

NAME, START, END, PARENT, BOARD, PHASE, COUNT = range(7)

_OFF = nullcontext([None] * 7)


class Tracer:
    """Records spans while ``enabled``; off, ``span`` costs one cheap ``with``."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[list] = []
        self.phase = "setup"
        self._stack: list[int] = []
        self._board = None

    def span(self, name: str, board=None):
        """Record one span; yields the record so a count can be attached."""
        return self._span(name, board) if self.enabled else _OFF

    @contextmanager
    def _span(self, name: str, board):
        parent = self._stack[-1] if self._stack else -1
        if board is None:
            board = self._board
        record = [name, 0.0, 0.0, parent, board, self.phase, None]
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        outer_board, self._board = self._board, board
        record[START] = perf_counter()
        try:
            yield record
        finally:
            record[END] = perf_counter()
            self._board = outer_board
            self._stack.pop()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s[PARENT] >= 0:
            children[s[PARENT]].append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        reach = s[START]
        for start, end in sorted(children.get(i, ())):
            start = max(start, reach)
            end = min(end, s[END])
            if end > start:
                covered += end - start
                reach = end
        out.append((s[END] - s[START]) - covered)
    return out


def layer_self_time(spans) -> dict[str, float]:
    """Summed self time per layer (the part of a span name before the dot)."""
    totals: dict[str, float] = defaultdict(float)
    for s, t in zip(spans, self_times(spans)):
        totals[s[NAME].split(".", 1)[0]] += t
    return dict(totals)
