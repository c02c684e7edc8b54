"""Optimal solvers: an exact BFS oracle for small boards and IDA* search.

The oracle is a bidirectional BFS (Pohl 1971) whose goal side starts
from a perimeter (Dillenburg & Nelson 1994; Manzini 1995), on the
packed-state search of ``solvability._PackedBFS``, which keeps each
state's last move. The goal's ball, every state within
radius R of the goal as whole BFS layers of at most 2^14 states, is
built once per shape (``solvability._goal_ball``), outside any query's
node cap, and maps each state to its blank's last direction. A start
inside the ball unwinds to the goal with no expansion. Otherwise a ball
grows from the start into its own visited map, a layer at a time, and
the first new child found in the goal's ball is the meet. Once the
start's frontier outgrows the ball's rim, its states at radius R, the
goal's side grows too, from the rim into a per-query copy of the ball:
as in the plain bidirectional search, the side with the smaller
frontier is expanded, so a deep board costs no more than it did with
no ball. A board is one int, 4 bits per cell with the blank as 0, so a
slide is one multiply-xor by a constant that the per-shape step table
IDA* uses carries for each move; that table never makes the move back
to a parent. The path is rebuilt by undoing the recorded moves from
the meeting state back to each root.

IDA* runs depth-first with an f = g + h threshold raised to the smallest
overflowing value each iteration; with the admissible heuristics offered
here the first solution found is optimal. Move ordering is fixed (blank
U, D, L, R) and the move that undoes the previous one is pruned by its
direction, through a per-shape table (``board._blank_steps``) built
on the shape's first solve, so node counts are reproducible.

Every heuristic reaches the search as ``(h0, steps, regs)`` from its own
module: the start's value, ``board._blank_steps`` with a row attached to
each pair as ``(d, j, row)``, and a fresh list of integer registers. The
tile ``t`` sliding into the blank reads ``row[t]``: an int is the change
of h; ``(dh, s, off, T, more)`` gives ``h + dh + T[regs[s] + off] -
T[regs[s]]`` and adds ``off`` to ``regs[s]`` and ``o2`` to ``regs[s2]``
for each ``(s2, o2)`` in ``more`` until the search backs out. ``T`` is
a PDB index or a linear-conflict table; the latter is a plain ``dict``
that holds only the line keys read so far, so on a ``KeyError`` both
reads go through ``heuristics._conflict_of``, which fills the key (a
key shifted only through ``more`` is unread until a later slide crosses
its line). The goal test is ``h == 0 and tiles == goal``.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from .board import MOVE_ORDER, Board, Move
from .errors import PuzzleError, ResourceLimitError, UnsolvableError
from .heuristics import _conflict_of, incremental
from .pattern_db import PatternDatabase, PatternHeuristic, _summed_heuristic
from .solvability import _goal_ball, _PackedBFS, certificate, is_solvable

__all__ = [
    "SearchLimits",
    "SearchResult",
    "HEURISTIC_NAMES",
    "bfs_optimal",
    "ida_star",
]

# Named heuristics usable without prebuilt tables.
HEURISTIC_NAMES = ("manhattan", "linear-conflict")

_INF = 1 << 30
_NEVER = 1 << 62  # a node count no search reaches


@dataclass(frozen=True, slots=True)
class SearchLimits:
    """Optional ceilings; hitting one aborts with a resource error."""

    max_nodes: int | None = None
    max_time: float | None = None
    max_depth: int | None = None

    def __post_init__(self):
        for name in ("max_nodes", "max_time", "max_depth"):
            value = getattr(self, name)
            # ``not value >= 0`` also refuses NaN, which every deadline
            # comparison would otherwise pass as "no limit".
            if value is not None and not value >= 0:
                raise ValueError(f"{name} must be non-negative, got {value}")


@dataclass(frozen=True, slots=True)
class SearchResult:
    moves: tuple[Move, ...]
    nodes_expanded: int
    elapsed: float

    @property
    def length(self) -> int:
        return len(self.moves)


_NO_LIMITS = SearchLimits()


def _require_solvable(board: Board):
    """Raise :class:`UnsolvableError` with the certificate, built only then."""
    if not is_solvable(board):
        cert = certificate(board)
        raise UnsolvableError(
            "goal unreachable: configuration parity "
            f"{cert.config_parity} vs blank parity {cert.blank_parity}",
            certificate=cert,
        )


def _check_depth(limits: SearchLimits, bound: int, nodes: int):
    """Raise when ``bound``, a length the optimal solution is proven to
    reach, passes ``limits.max_depth``."""
    if limits.max_depth is not None and bound > limits.max_depth:
        raise ResourceLimitError(
            f"no solution within depth {limits.max_depth}",
            nodes_expanded=nodes, lower_bound=bound,
        )


def bfs_optimal(board: Board, limits: SearchLimits | None = None) -> SearchResult:
    """Minimum-length solution by bidirectional breadth-first search
    whose goal side starts from the goal's ball.

    The exact oracle, feasible only for small boards (default ceiling of
    one million expansions covers everything up to 9 cells, and 4x4
    boards to about 36 moves). The goal's ball holds every state within
    radius R of the goal; it is built once per shape, on the shape's
    first query. Its expansions count against no query's ``max_nodes``;
    its build time, as for IDA*'s per-shape tables, falls within that
    first query's ``max_time`` and ``elapsed``. A board inside it
    unwinds to the goal with no expansion, the limits read once against
    its exact length. Otherwise one ball grows from ``board`` and one
    from the goal's ball's outer layer, a whole layer of the side with
    the smaller frontier at a time (ties go to the start's side), and
    the first child found in the other side's ball closes an optimal
    path. ``nodes_expanded`` counts the states expanded in the query,
    on either side. A :class:`ResourceLimitError` carries
    ``lower_bound``: one more than the two radii (the goal's at least
    R), which the optimal length is proven to reach.
    """
    if limits is None:
        limits = _NO_LIMITS
    t0 = time.perf_counter()
    _require_solvable(board)
    if board.is_goal():
        return SearchResult((), 0, time.perf_counter() - t0)
    bfs = _PackedBFS(board.width, board.height, limits.max_nodes, limits.max_time, t0)
    ball, radius, rim, rim_blanks = _goal_ball(board.width, board.height)

    start, blank = bfs.pack(board.cells), board.blank_index - 1
    if start in ball:
        # No expansion reads the limits, so they are read here, against
        # the exact length.
        dirs = [e ^ 1 for e in bfs.unwind(start, blank, ball[start], ball)]
        _check_depth(limits, len(dirs), 0)
        bfs.check_clock(len(dirs))
        return SearchResult(tuple(MOVE_ORDER[e] for e in dirs), 0, time.perf_counter() - t0)

    # The goal's side starts from the shape's ball and its rim; it grows
    # into a copy, so the shape's ball is never written. Until then its
    # frontier is the rim's states alone.
    maps = [{start: -1}, ball]
    frontiers = [[(start, blank, -1)], rim]
    # Before each layer the two balls share no state, so the optimal
    # length is at least both radii plus one.
    bound = radius + 1
    while frontiers[0] and frontiers[1]:
        _check_depth(limits, bound, bfs.nodes)
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        if side and maps[1] is ball:
            maps[1] = dict(ball)
            frontiers[1] = list(zip(rim, rim_blanks, map(ball.__getitem__, rim)))
        frontiers[side], meet = bfs.expand(frontiers[side], maps[side], maps[1 - side], bound)
        if meet is not None:
            # The start's ball up to the meeting state, then the goal's
            # ball from it, undoing each of the goal side's moves.
            child, blank, d = meet
            dirs_in = [d, d]
            dirs_in[1 - side] = maps[1 - side][child]
            dirs = bfs.unwind(child, blank, dirs_in[0], maps[0])[::-1]
            dirs.extend(e ^ 1 for e in bfs.unwind(child, blank, dirs_in[1], maps[1]))
            moves = tuple(MOVE_ORDER[e] for e in dirs)
            return SearchResult(moves, bfs.nodes, time.perf_counter() - t0)
        bound += 1

    # Unreachable: solvability was checked up front.
    raise PuzzleError("BFS exhausted the component without finding the goal")


def _check_heuristic(heuristic, board: Board):
    """The heuristic argument checked against ``board`` and normalised to
    a name from :data:`HEURISTIC_NAMES` or a :class:`PatternHeuristic`.
    Builds no per-shape table."""
    if isinstance(heuristic, str):
        name = heuristic.lower().replace("_", "-")
        if name not in HEURISTIC_NAMES:
            raise ValueError(
                f"unknown heuristic {heuristic!r}; named options: {HEURISTIC_NAMES}"
            )
        return name
    if isinstance(heuristic, PatternDatabase):
        heuristic = [heuristic]
    if not isinstance(heuristic, PatternHeuristic):
        heuristic = _summed_heuristic(heuristic)
    heuristic.check_shape(board)
    return heuristic


def _resolve_heuristic(heuristic, board: Board):
    """``(h0, steps, regs)`` for a heuristic :func:`_check_heuristic` has
    normalised, from the layer that owns it."""
    if isinstance(heuristic, str):
        return incremental(board, heuristic)
    return heuristic.incremental(board)


def ida_star(
    board: Board,
    heuristic="linear-conflict",
    limits: SearchLimits | None = None,
) -> SearchResult:
    """Optimal solve by iterative-deepening A*.

    ``heuristic`` is a name from :data:`HEURISTIC_NAMES`, or pattern
    database(s) (pairwise disjoint) for an additive table-driven bound;
    a :class:`PatternHeuristic` over them is built once and kept for the
    next solve with the same databases. The heuristic argument is checked
    first; then unsolvable boards are rejected via the O(n) parity
    certificate and a goal board returns at once, both before any
    per-shape heuristic table is built or refused. A
    :class:`ResourceLimitError` carries ``lower_bound``, the threshold
    being searched (h(start), then the least f that overflowed an
    exhausted iteration); with an admissible heuristic the optimal
    length is proven to reach it. The search recurses once per move, so
    a path deeper than Python's recursion limit (about 1000 moves) ends
    in that error too.
    """
    if limits is None:
        limits = _NO_LIMITS
    t0 = time.perf_counter()
    # The argument first, then the board; the per-shape tables last, so a
    # goal or unsolvable board never waits for them or hits their ceiling.
    heuristic = _check_heuristic(heuristic, board)
    _require_solvable(board)
    if board.is_goal():
        return SearchResult((), 0, time.perf_counter() - t0)
    n = board.size
    h0, steps, regs = _resolve_heuristic(heuristic, board)
    tiles = list(board.cells)
    blank0 = board.blank_index - 1
    goal_tiles = list(range(1, n + 1))
    deadline = t0 + limits.max_time if limits.max_time is not None else None
    nodes = 0
    # The expansion at which the cap or the clock (1, then every 2048th) is due.
    cap = limits.max_nodes + 1 if limits.max_nodes is not None else _NEVER
    tick = 1 if deadline is not None else _NEVER
    due = min(cap, tick)
    path: list[int] = []  # the moves, last first, written on the way out

    def dfs(blank: int, g: int, bound: int, last: int, h: int) -> int:
        """Returns -1 when the goal was reached (path holds the moves),
        else the smallest f that overflowed the bound. ``last`` is the
        direction the blank moved to reach ``blank`` (-1 at the root). The
        undo move is pruned by direction: ``steps[blank][last]``, from the
        per-shape table, leaves it out."""
        nonlocal nodes, tick, due
        nodes += 1
        if nodes >= due:
            if nodes >= cap:
                raise ResourceLimitError(
                    f"IDA* exceeded {limits.max_nodes} expansions",
                    nodes_expanded=nodes, lower_bound=bound,
                )
            if time.perf_counter() > deadline:
                raise ResourceLimitError(
                    f"IDA* exceeded {limits.max_time}s",
                    nodes_expanded=nodes, lower_bound=bound,
                )
            tick += 2048
            due = min(cap, tick)
        mn = _INF
        g1 = g + 1
        for d, j, row in steps[blank][last]:
            t = tiles[j]
            e = row[t]
            if e.__class__ is int:
                child_h = h + e
                off = 0
            else:
                dh, s, off, table, more = e
                key = regs[s]
                try:
                    child_h = h + dh + table[key + off] - table[key]
                except KeyError:  # a line order no search has read yet
                    child_h = h + dh + _conflict_of(table, key + off) - _conflict_of(table, key)
            f = g1 + child_h
            if f > bound:
                if f < mn:
                    mn = f
                continue
            tiles[blank], tiles[j] = t, n
            if child_h == 0 and tiles == goal_tiles:
                path.append(d)
                return -1
            if off:
                regs[s] = key + off
                if more:
                    for s2, o2 in more:
                        regs[s2] += o2
            r = dfs(j, g1, bound, d, child_h)
            if r < 0:
                path.append(d)
                return -1
            if r < mn:
                mn = r
            if off:
                regs[s] = key
                if more:
                    for s2, o2 in more:
                        regs[s2] -= o2
            tiles[blank], tiles[j] = n, t
        return mn

    bound = h0
    while True:
        _check_depth(limits, bound, nodes)
        try:
            r = dfs(blank0, 0, bound, -1, h0)
        except RecursionError:
            raise ResourceLimitError(
                f"IDA* search deeper than the recursion limit ({sys.getrecursionlimit()})",
                nodes_expanded=nodes, lower_bound=bound,
            ) from None
        if r < 0:
            moves = tuple(MOVE_ORDER[d] for d in reversed(path))
            return SearchResult(moves, nodes, time.perf_counter() - t0)
        if r >= _INF:
            raise PuzzleError("IDA* exhausted the space without a solution")
        bound = r
