"""Optimal solvers: an exact BFS oracle for small boards, described in
:func:`bfs_optimal`, whose goal ball keeps the path home of every fourth
layer and of its rim as one int each, and every other state's last move
in a sorted array (:func:`_goal_ball`), and IDA* search.

IDA* runs depth-first with an f = g + h threshold raised to the smallest
overflowing value each iteration; with the admissible heuristics offered
here the first solution found is optimal. Move ordering is fixed (blank
U, D, L, R) and the move that undoes the previous one is pruned by its
direction, through a per-shape table (``board._blank_steps``) built
on the shape's first solve, so node counts are reproducible.

Every heuristic reaches the search through one call, its module's
``incremental(board, tick)``, as ``(h0, steps, regs)``: the start's
value, the store key ``(builder, width, height, extra)`` of the step
table, which ``board._table(*steps, tick=...)`` reads or builds, and a
fresh list of integer registers. The step table is
``board._blank_steps`` with a row attached to each pair as ``(d, j,
row)``. The tile ``t`` sliding into the blank reads ``row[t]``: an int
is the change of h;
``(dh, s, off, T, more)`` gives ``h + dh + T[regs[s] + off] -
T[regs[s]]`` and adds ``off`` to ``regs[s]``, and ``o2`` to ``regs[s2]``
when ``more`` is a pair ``(s2, o2)`` (else ``()``), until the search
backs out. ``T`` is a PDB index or a linear-conflict table, and either
answers every key: a conflict table is a complete list for lines of at
most 5 cells, and a longer line's is a ``dict`` that fills a key on its
first read (``heuristics._conflict_table``), so every read is a plain
``T[key]``; on the latter it takes CPython's generic subscript, 5-13%
more time per node on 8x2 to 10x10 boards than an exact ``dict``.

A node tests the goal once, on entry, before it counts as an
expansion: ``h == 0 and tiles == goal``. The move into it is recorded
by its parent, as the search backs out.

Each node is passed its ``room``, the bound less its children's g, so
a child fits when its h is at most ``room``, and returns the least
amount by which a child overflowed, which the next iteration adds to
the bound. The board is one list written in place: the blank's own
cell is never read, because the move back into it is left out, so a
move writes only the slid tile into the blank's cell, and its undo
only the tile back into its own; a node whose h is 0 writes the blank's
label into its own cell, just before its goal test.

Every table a search reads lives in one store, ``board._TABLES``,
filled by ``board._table`` after the parity and goal checks: the step
tables, the tables that h(start) reads (O(n) ones, and pattern
databases' indexes), and the oracle's goal balls. A stored table costs
one dict read and no clock read. A missing step table, set of pattern
indexes or goal ball is built under the query's ``max_time``, read at
once and then every 2048 steps of work through the query's
``_Budget.tick`` (IDA* indexes pattern databases to compute h(start),
then builds its step table); a deadline that passes raises
:class:`ResourceLimitError` with ``nodes_expanded`` 0 and the best bound
proven (1 while indexing and for the oracle, then h(start) for IDA*),
and stores nothing.
"""

from __future__ import annotations

import heapq
import sys
import time
from array import array
from bisect import bisect_left
from dataclasses import dataclass
from itertools import islice

from .board import _NEVER, MOVE_ORDER, Board, Move, _offsets, _row_steps, _table, _untimed
from .errors import PuzzleError, ResourceLimitError, UnsolvableError
from .heuristics import INCREMENTAL
from .pattern_db import PatternDatabase, PatternHeuristic, _databases
from .solvability import DEFAULT_MAX_STATES, certificate, is_solvable

__all__ = [
    "SearchLimits",
    "SearchResult",
    "HEURISTIC_NAMES",
    "bfs_optimal",
    "ida_star",
]

# Named heuristics usable without prebuilt tables.
HEURISTIC_NAMES = tuple(INCREMENTAL)

_INF = 1 << 30
# States in the oracle's goal ball: whole layers from the goal are kept
# while they total at most this many. Radius 23 on 3x3 (116,088 states),
# 15 on 4x4, 17 on 3x4 and 4x3, 19 on 2x8 and 8x2; all of 2x4 and 4x2.
BALL_STATES = 1 << 17


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
_new_result = object.__new__
# The slots' own setters, which the frozen dataclass's __setattr__ refuses.
_set_moves, _set_nodes, _set_elapsed = (
    SearchResult.__dict__[name].__set__ for name in ("moves", "nodes_expanded", "elapsed")
)
# Each direction's move, keyed by its index in MOVE_ORDER and by that
# index as an octal digit, the form a goal ball's path codes spell.
_MOVE_OF = {key: m for d, m in enumerate(MOVE_ORDER) for key in (d, str(d))}


class _Budget:
    """One search's limits and answer, timed from its start; ``cap``
    stands for an unset ``max_nodes``. ``bound`` is the best lower bound
    proven so far, a length the optimal solution must reach, which a
    limit error reports: 1 until the search proves more, since a board
    that is not the goal lies at least one move out. A search calls
    :meth:`spend` when its expansion count reaches ``due``: past the cap,
    and while there is a deadline on the first expansion and every
    2048th after it. A per-shape table build reads the deadline alone
    through :meth:`tick`, on the same cadence (``board._table``)."""

    __slots__ = ("name", "limits", "t0", "cap", "deadline", "due", "bound")

    def __init__(self, name: str, limits: SearchLimits | None, cap: int = _NEVER):
        self.t0 = time.perf_counter()
        self.name, self.limits, self.bound = name, limits or _NO_LIMITS, 1
        self.cap = cap if self.limits.max_nodes is None else self.limits.max_nodes
        self.deadline = None if self.limits.max_time is None else self.t0 + self.limits.max_time
        self.due = 1 if self.deadline is not None else self.cap + 1

    def admit(self, board: Board) -> SearchResult | None:
        """The goal's empty answer, or None for a board to search. An
        unsolvable board raises :class:`UnsolvableError` with its
        certificate, built only then."""
        if not is_solvable(board):
            cert = certificate(board)
            raise UnsolvableError(
                "goal unreachable: configuration parity "
                f"{cert.config_parity} vs blank parity {cert.blank_parity}",
                certificate=cert,
            )
        return self.answer((), 0) if board.is_goal() else None

    def error(self, message: str, nodes: int) -> ResourceLimitError:
        return ResourceLimitError(message, nodes_expanded=nodes, lower_bound=self.bound)

    def depth(self, nodes: int) -> None:
        """Raise when ``bound`` passes ``max_depth``."""
        if (max_depth := self.limits.max_depth) is not None and self.bound > max_depth:
            raise self.error(f"no solution within depth {max_depth}", nodes)

    def tick(self, work: int, nodes: int = 0) -> int:
        """Raise once the clock passes the deadline, reporting ``nodes``
        expansions; else the step of work due next, 2048 on, or never
        without a deadline. A table build's steps are no search's
        expansions: no cap stops them, and its limit error reports none."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise self.error(f"{self.name} exceeded {self.limits.max_time}s", nodes)
        return _NEVER if self.deadline is None else work + 2048

    def spend(self, nodes: int) -> int:
        """Raise once ``nodes`` passes the cap or the clock the deadline;
        else the next expansion due."""
        if nodes > self.cap:
            raise self.error(f"{self.name} exceeded {self.cap} expansions", nodes)
        return min(self.cap + 1, self.tick(nodes, nodes))

    def answer(self, dirs, nodes: int) -> SearchResult:
        """The result of the blank's directions ``dirs``, first move first,
        each an int or an octal digit (:func:`_goal_ball`), built as
        ``board._trusted_board`` builds a board: no call per move, and no
        frozen ``__init__``."""
        result = _new_result(SearchResult)
        _set_moves(result, tuple([_MOVE_OF[d] for d in dirs]))
        _set_nodes(result, nodes)
        _set_elapsed(result, time.perf_counter() - self.t0)
        return result


class _PackedBFS:
    """Breadth-first layers of ``(state, blank, last)`` over boards packed
    4 bits per cell, label ``l`` on cell ``c`` as ``l << 4c`` and the
    blank as 0 (:meth:`pack`), through a :func:`_goal_ball` step table on
    a board ``width`` cells wide: the two sides of an oracle query. A
    visited map sends each state to its blank's last direction, or to a
    negative value where a walk back stops: -1 at a root, minus a path
    code home on a goal ball's rim (:func:`_goal_ball`). ``nodes`` counts
    expansions; when it reaches ``due``, ``spend(nodes)`` gives the next
    due: the query's :meth:`_Budget.spend`."""

    def __init__(self, steps, width: int, spend=_untimed, due: int = 0):
        self.steps, self.offsets, self.spend, self.due, self.nodes = steps, _offsets(width), spend, due, 0

    @staticmethod
    def pack(cells) -> int:
        # The hex digits, last cell first: one C call each for the table,
        # the reversal and the parse.
        return int(bytes(cells).translate(_table(_hex_digits, len(cells)))[::-1], 16)

    def expand(self, frontier, seen: dict, other: dict | None = None):
        """Grow the ball ``seen`` maps by one layer.

        Returns ``(next layer, meet)``. ``meet`` is None, or the first
        new ``(child, child's blank, d)`` that ``other``, the other
        side's visited map, holds, which stops the layer; ``seen`` maps
        it too, to ``d``, the blank's direction into it.
        """
        steps, spend, due, nodes = self.steps, self.spend, self.due, self.nodes
        next_frontier = []
        push = next_frontier.append
        for state, blank, last in frontier:
            nodes += 1
            if nodes >= due:
                due = spend(nodes)
            for d, j, slide in steps[blank][last]:
                # The tile times ``slide`` is the tile on both cells. Not
                # ``+``: CPython gives a positive sum a spare digit for the
                # carry, 8 more bytes in half the 3x3 children.
                child = state ^ ((state >> 4 * j) & 15) * slide
                if child not in seen:
                    seen[child] = d
                    if other and child in other:
                        self.nodes, self.due = nodes, due
                        return next_frontier, (child, j, d)
                    push((child, j, d))
        self.nodes, self.due = nodes, due
        return next_frontier, None

    def unwind(self, state: int, blank: int, d: int, seen: dict) -> tuple[list[int], int]:
        """``(dirs, stop)``: the directions from ``state`` back to
        ``stop``, the first state whose value in ``seen`` is negative (a
        root, or a goal ball's rim state), last move first: ``d``, then
        those in ``seen``; each step moves the blank back, the opposite
        way, ``d ^ 1``."""
        dirs = []
        while d >= 0:
            dirs.append(d)
            prev = blank + self.offsets[d ^ 1]
            state ^= ((state >> 4 * prev) & 15) * ((1 << 4 * blank) | (1 << 4 * prev))
            blank = prev
            d = seen[state]
        return dirs, state


def _hex_digits(n: int) -> bytes:
    """A ``bytes.translate`` table for boards of ``n`` cells: each label
    1..n-1 to its hex digit, and the blank's, ``n``, to ``0``."""
    return bytes(b"0123456789abcdef"[label % n] for label in range(256))


def _goal_ball(width: int, height: int, tick=_untimed):
    """``(steps, ball, inner, lasts, rim, below, radius)`` for the shape: a
    builder for the per-shape store (``board._table``), which calls
    ``tick`` at the build's first expansion and every 2048th step of work
    after it, each expansion and each state sorted into ``inner`` a step.

    ``steps`` is :func:`~permpuzzle.board._row_steps` with ``(1 << 4z) |
    (1 << 4j)`` as the row of the blank's move from cell ``z`` to cell
    ``j``. The ball is every state within ``radius`` moves of the goal,
    whole layers while they total at most :data:`BALL_STATES`. The dict
    ``ball`` maps the states a walk home stops on to minus their path
    code (a leading 1, then the blank's directions home as octal digits,
    first move first): the goal, to -1; every layer whose distance is a
    multiple of 4; then, last, the rim, the layer at ``radius``. Every
    other state is in ``inner``, a sorted ``array('Q')`` read by
    ``bisect``, and the byte at its index in ``lasts`` is its blank's
    last direction from its parent, so a walk home takes at most 3 steps
    to a code. ``rim`` holds each rim state's blank cell, a byte each,
    in the order of its entries in ``ball``, and ``below``, an
    ``array('Q')`` that ``inner`` or ``ball`` holds too, the states of
    the layer inside the rim.

    The build expands a layer at a time, held as its states in the order
    found and one int each: code << 8 | blank << 4 | inward bits, a bit
    ``1 << d`` for each direction ``d`` that leads one layer in. A
    state's children lie one layer in or out, since each move flips the
    blank's parity, so the moves its inward bits name are skipped and
    every child it makes is new or already in the next layer, where the
    move back sets an inward bit: no earlier layer is searched. A child's
    code is its parent's with its first move home put in front. The
    layer that would pass the ceiling stops there and is dropped. Each
    finished layer is kept as its sorted states and directions, or, when
    coded, as its states and codes; ``ball`` is built from the latter at
    the end, rim last, and ``inner`` merged from the former. On 3x3
    (radius 23, 116,088 states) the table holds 5.1 MB once built and
    peaks at 6.0 MB during the build; on 4x4 (radius 15, 122,707 states)
    8.1 and 9.7 MB, its step tables included (tracemalloc, CPython
    3.11). Every query reads the same objects and none writes them.
    """
    n = width * height
    steps = _row_steps(width, height, lambda z, d, j: (1 << 4 * z) | (1 << 4 * j))
    goal = _PackedBFS.pack(range(1, n + 1))
    layer, values = array("Q", [goal]), [1 << 8 | (n - 1) << 4]
    # Each coded layer's states and minus their codes, in the order
    # found, and each other layer's states sorted with their directions.
    coded, runs = [(layer, [-1])], []
    size, radius, work, due = 1, 0, 0, 0
    while True:
        # A state's moves out, by its int's low byte: for each direction d
        # its inward bits leave, the child's cell times 4, the slide, the
        # mask that turns the state's int with its low byte cleared into
        # the child's, and the move back as an inward bit. The mask puts
        # the child's first move home, m = d ^ 1, in front of a code
        # ``radius`` digits long by turning its leading 1 into the digits
        # 1, m, and sets the child's blank and inward bit. (One ``^``
        # sizes the int exactly, where ``+`` leaves room for a carry.)
        lead = 1 << 3 * radius + 8
        outward = [[(4 * j, slide, lead ^ (8 + (d ^ 1)) * lead | j << 4 | 1 << (d ^ 1), 1 << (d ^ 1))
                    for d, j, slide in steps[low >> 4][-1] if not low >> d & 1]
                   for low in range(n << 4)]
        found = {}
        for state, value in zip(layer, values):
            work += 1
            if work >= due:
                due = tick(work)
            code = value & -256
            for shift, slide, mask, back in outward[value & 255]:
                child = state ^ ((state >> shift) & 15) * slide
                if child in found:
                    found[child] |= back
                else:
                    found[child] = code ^ mask
            if size + len(found) > BALL_STATES:
                found = None
                break
        if not found:
            break
        del layer, values
        size, radius = size + len(found), radius + 1
        layer, values = array("Q", found), list(found.values())
        if radius % 4:
            # The first digit of a code ``radius`` digits long, the blank's
            # first move home, undoes its last.
            shift, states = 3 * radius + 5, array("Q", sorted(found))
            runs.append((states, bytes([found[s] >> shift & 7 ^ 1 for s in states])))
        else:
            coded.append((layer, [-(v >> 8) for v in values]))
        del found
    rim = bytes([v >> 4 & 15 for v in values])
    if radius % 4:
        # Each rim state's code replaces its value, so the two never both
        # fill memory.
        for i, value in enumerate(values):
            values[i] = -(value >> 8)
        coded.append((layer, values))
        runs.pop()
    # The states of the layer inside the rim, none at radius 0.
    below = coded[-2][0] if radius % 4 == 1 else runs[-1][0] if runs else array("Q")
    del layer, values
    ball = {}
    for states, codes in coded:
        ball.update(zip(states, codes))
    del coded
    inner, lasts = array("Q"), bytearray()
    for state, d in heapq.merge(*[zip(*run) for run in runs]):
        work += 1
        if work >= due:
            due = tick(work)
        inner.append(state)
        lasts.append(d)
    return steps, ball, inner, bytes(lasts), rim, below, radius


def _rim_side(ball: dict, rim: bytes, below):
    """The goal side's visited map and frontier, the first time it grows
    past the ball: the states of the layer inside the rim, ``below``, so
    that they count as seen (their value, 0, is never read: no walk back
    reaches them), and each rim state mapped to minus its code, as in
    ``ball``; the rim as frontier entries ``(state, blank, -1)``, in the
    order found. A move back inwards finds a state already seen, so no
    move is left out."""
    first = len(ball) - len(rim)
    seen = dict.fromkeys(below, 0)
    seen.update(islice(ball.items(), first, None))
    return seen, [(state, blank, -1) for state, blank in zip(islice(ball, first, None), rim)]


def bfs_optimal(board: Board, limits: SearchLimits | None = None) -> SearchResult:
    """Minimum-length solution by bidirectional breadth-first search
    (Pohl 1971) whose goal side starts from a perimeter (Dillenburg &
    Nelson 1994; Manzini 1995).

    The exact oracle, for boards of up to 16 cells (a board is one int,
    4 bits per cell); the default ceiling of one million expansions
    covers everything up to 9 cells, and 4x4 boards to about 36 moves
    (``scramble(4, 4, 40, 44)``, 36 moves out, takes 887,539; some
    36-move boards pass it). The
    goal's ball, every state within radius R of the goal as whole BFS
    layers of at most 2^17 states (R is 23 on 3x3, 15 on 4x4), with a
    path home coded on every fourth layer and on its rim and the blank's
    last direction kept for every other state (:func:`_goal_ball`), is
    built once per shape, on its first query, and kept in the per-shape
    table store with IDA*'s step tables. Its expansions count against no
    query's ``max_nodes``; its build time falls within that first
    query's ``max_time``, read at its first step of work and every
    2048th, and ``elapsed``. A deadline that passes during the build
    raises with ``nodes_expanded`` 0 and ``lower_bound`` 1, and the next
    query builds the ball again. Once stored, a query reads the ball with
    one dict read and no clock read.

    A board inside the ball walks home with no expansion: at most 3 of
    its directions, each read by ``bisect``, to a coded state, then that
    state's code. From a board outside it, one ball grows from ``board``
    and one from the goal's ball's outer layer, its rim, a whole layer of
    the side with the smaller frontier at a time (ties go to the start's
    side), so a deep board costs no more than it would with no ball. The
    goal's side first grows into a map of its own that holds the rim and
    the layer inside it (:func:`_rim_side`); the ball is never written.
    The first child found in the other side's ball is the meet: on the
    rim, while the goal's side has not grown. The answer undoes the start
    side's recorded moves from the meet back to the board; then walks the
    goal side's moves from the meet back to the rim, one step per layer
    the goal's side grew past the ball, and reads that rim state's code.
    A slide is one multiply-xor by a constant of a per-shape step table
    that never makes the move back to a parent.

    ``nodes_expanded`` counts the states expanded in the query, on
    either side. A :class:`ResourceLimitError` carries ``lower_bound``:
    one more than the two radii (the goal's at least R), which the
    optimal length is proven to reach. A board inside the goal's ball
    expands nothing, so it reads the limits once, against its exact
    length. The limits bound a query's expansions and time but not its
    memory, which holds both sides' visited maps and frontiers: that
    36-move query peaked at 259 MB RSS in its own process, its ball
    built first.
    """
    budget = _Budget("BFS", limits, DEFAULT_MAX_STATES)
    if (done := budget.admit(board)) is not None:
        return done
    if board.size > 16:
        raise ResourceLimitError(f"packed-state BFS supports at most 16 cells, got {board.size}")
    steps, ball, inner, lasts, rim, below, radius = _table(
        _goal_ball, board.width, board.height, tick=budget.tick
    )
    start, blank = _PackedBFS.pack(board.cells), board.blank_index - 1

    # Inside the ball: the blank's moves home to a coded state, then its
    # code. Only the start can be missing from the ball.
    offsets, dirs, state, cell = _offsets(board.width), [], start, blank
    while (code := ball.get(state)) is None:
        i = bisect_left(inner, state)
        if i == len(inner) or inner[i] != state:
            break
        dirs.append(d := lasts[i] ^ 1)
        prev = cell + offsets[d]
        state ^= ((state >> 4 * prev) & 15) * ((1 << 4 * cell) | (1 << 4 * prev))
        cell = prev
    else:
        dirs += oct(-code)[3:]  # past "0o1"
        # No expansion read the limits: read them against the exact length.
        budget.bound = len(dirs)
        budget.depth(0)
        budget.spend(0)
        return budget.answer(dirs, 0)

    bfs = _PackedBFS(steps, board.width, budget.spend, budget.due)
    maps = [{start: -1}, ball]
    # The goal side's frontier stands as its rim bytes, one per state,
    # until that side first grows.
    frontiers = [[(start, blank, -1)], rim]
    meet = None
    # Before each layer the two balls share no state, so the optimal
    # length is at least both radii plus one.
    budget.bound = radius + 1
    while meet is None:
        if not (frontiers[0] and frontiers[1]):
            # Unreachable: solvability was checked up front.
            raise PuzzleError("BFS exhausted the component without finding the goal")
        budget.depth(bfs.nodes)
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        if side and maps[1] is ball:
            maps[1], frontiers[1] = _rim_side(ball, rim, below)
        frontiers[side], meet = bfs.expand(frontiers[side], maps[side], maps[1 - side])
        budget.bound += 1

    # The start's ball up to the meeting state, which both maps hold;
    # then the goal side's moves from there undone back to the rim (none
    # when the meet is on it); then that rim state's path code home.
    child, blank, _ = meet
    dirs, _ = bfs.unwind(child, blank, maps[0][child], maps[0])
    dirs.reverse()
    code = maps[1][child]
    if code >= 0:
        tail, stop = bfs.unwind(child, blank, code, maps[1])
        dirs += [e ^ 1 for e in tail]
        code = maps[1][stop]
    dirs += oct(-code)[3:]
    return budget.answer(dirs, bfs.nodes)


def _check_heuristic(heuristic, board: Board):
    """The ``incremental`` function, board to ``(h0, steps, regs)``, of
    the heuristic argument checked against ``board``. Builds no table: a
    bare list's :class:`PatternHeuristic`, checked once, is kept in the
    table store, keyed by its databases, so an equal list reads it."""
    if isinstance(heuristic, str):
        name = heuristic.lower().replace("_", "-")
        if name not in INCREMENTAL:
            raise ValueError(f"unknown heuristic {heuristic!r}; named options: {HEURISTIC_NAMES}")
        return INCREMENTAL[name]
    if isinstance(heuristic, PatternDatabase):
        heuristic = (heuristic,)
    if not isinstance(heuristic, PatternHeuristic):
        heuristic = _table(PatternHeuristic, _databases(heuristic))
    heuristic.check_shape(board)
    return heuristic.incremental


def ida_star(
    board: Board,
    heuristic="linear-conflict",
    limits: SearchLimits | None = None,
) -> SearchResult:
    """Optimal solve by iterative-deepening A*.

    ``heuristic`` is a name from :data:`HEURISTIC_NAMES`, pattern
    database(s) (pairwise disjoint) for an additive table-driven bound,
    or a :class:`PatternHeuristic` over them. Every heuristic follows one
    order: the argument is checked first; then unsolvable boards are
    rejected via the O(n) parity certificate and a goal board returns at
    once, both before any heuristic table is built or refused; then the
    tables are built. A
    :class:`ResourceLimitError` carries ``lower_bound``, the threshold
    being searched (h(start), then the least f that overflowed an
    exhausted iteration); with an admissible heuristic the optimal
    length is proven to reach it. The search recurses once per move, so
    a path deeper than Python's recursion limit (about 1000 moves) ends
    in that error too.

    A shape's first solve builds the heuristic's step table, kept in the
    one table store for the life of the process, and later solves read
    it with one dict read and no clock read. A named heuristic's byte
    ceiling is checked before h(start) is computed. The first solve over
    a set of pattern databases (or equal ones) indexes them, or refuses
    them over the byte ceiling, to compute h(start). The indexing and
    then the step table's build fall within ``elapsed`` and
    ``max_time``: each reads the deadline at once and then every 2048
    steps of work, and one that passes raises with ``nodes_expanded`` 0
    and ``lower_bound`` 1 while indexing, h(start) after, storing
    nothing, so the next solve builds again.
    """
    budget = _Budget("IDA*", limits)
    # The argument first, then the board; the tables last, so a goal or
    # unsolvable board never waits for them or hits their ceiling.
    incremental = _check_heuristic(heuristic, board)
    if (done := budget.admit(board)) is not None:
        return done
    n = board.size
    h0, steps, regs = incremental(board, budget.tick)
    budget.bound = bound = h0  # before the step table's build reads the deadline
    steps = _table(*steps, tick=budget.tick)
    tiles = list(board.cells)
    blank0 = board.blank_index - 1
    goal_tiles = list(range(1, n + 1))
    nodes, due = 0, budget.due
    path: list[int] = []  # the moves, last first, written on the way out

    def dfs(blank: int, room: int, last: int, h: int) -> int:
        """Returns -1 when the goal was reached (path holds the moves),
        else the least amount by which a child's f overflowed the bound.
        The goal test comes first, before the node counts as an
        expansion: at h 0, ``n`` goes into ``blank`` and a goal returns
        -1, and the parent appends the move into it. ``room`` is the
        bound less the children's g, so a child fits when its h is at
        most ``room``. ``last`` is the direction the blank moved to
        reach ``blank`` (-1 at the root), and ``steps[blank][last]``
        leaves out the move that undoes it, so nothing else reads
        ``tiles[blank]``, which may hold a stale tile: a move writes only
        the slid tile into ``blank``, its undo only the tile back into
        ``j``."""
        nonlocal nodes, due
        if h == 0:
            tiles[blank] = n
            if tiles == goal_tiles:
                return -1
        nodes += 1
        if nodes >= due:
            due = budget.spend(nodes)
        mn = _INF
        for d, j, row in steps[blank][last]:
            t = tiles[j]
            e = row[t]
            if e.__class__ is int:
                child_h = h + e
                if child_h > room:
                    if child_h - room < mn:
                        mn = child_h - room
                    continue
                tiles[blank] = t
                r = dfs(j, room - 1, d, child_h)
                tiles[j] = t
            else:
                dh, s, off, table, more = e
                key = regs[s]
                child_h = h + dh + table[key + off] - table[key]
                if child_h > room:
                    if child_h - room < mn:
                        mn = child_h - room
                    continue
                tiles[blank] = t
                regs[s] = key + off
                if more:
                    s2, o2 = more
                    regs[s2] += o2
                r = dfs(j, room - 1, d, child_h)
                regs[s] = key
                if more:
                    regs[s2] -= o2
                tiles[j] = t
            if r < mn:
                if r < 0:
                    path.append(d)
                    return -1
                mn = r
        return mn

    while True:
        budget.depth(nodes)
        try:
            r = dfs(blank0, bound - 1, -1, h0)
        except RecursionError:
            limit = f"the recursion limit ({sys.getrecursionlimit()})"
            raise budget.error(f"IDA* search deeper than {limit}", nodes) from None
        if r < 0:
            return budget.answer(reversed(path), nodes)
        if r >= _INF:
            raise PuzzleError("IDA* exhausted the space without a solution")
        budget.bound = bound = bound + r
