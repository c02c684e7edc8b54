"""Parity-based solvability decision and its exhaustive BFS grounding.

Every move is a single transposition of tile labels, so it flips the
configuration's sign; it also moves the blank one step, flipping the
parity of the blank's taxicab distance to its home cell. The goal is
Even/Even, so a board can reach it only if the two parities agree.

Enumerating the goal's component certifies the converse on small boards.
:func:`reachable_states` runs the pattern-database build's region BFS
(``pdb_build._layers``) with every tile but the blank in the pattern:
a layer is one int per cell of the blank, bit ``o`` standing for order
``o`` of the other tiles, so a layer costs a few big-int operations per
cell and slide rather than one loop turn per state.

The solver's exact oracle needs paths, so it runs its own search
(``_PackedBFS``): a board is one int, 4 bits per cell with the blank as
0, so sliding a tile is one multiply-xor by a per-move constant read
from the step table IDA* uses, and a visited map records each state's
last move. The oracle's goal ball (``_goal_ball``) is that search from
the goal, stopped at the last whole layer within ``BALL_STATES`` and
kept per shape with that layer, its rim, from which a deep query grows
the goal's side further.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import lru_cache

from .board import Board, _replay, _row_steps, check_dimensions, move_targets
from .errors import ResourceLimitError
from .pdb_build import _layers, _regions
from .perm import Parity, cycle_parity

__all__ = [
    "SolvabilityCertificate",
    "EnumerationReport",
    "ReplayReport",
    "certificate",
    "is_solvable",
    "reachable_states",
    "verify_sequence",
]

# Ceiling on the states the enumeration may count, and on an oracle
# query's packed-state BFS expansions on both sides, past the goal's
# ball: above the 9!/2 = 181,440 states of a 9-cell component, so every
# board with up to 9 cells is enumerated and larger ones are refused.
DEFAULT_MAX_STATES = 1_000_000
# States in the oracle's goal ball: whole layers from the goal are kept
# while they total at most this many (3x3: radius 16, 11,764 states).
BALL_STATES = 1 << 14


@dataclass(frozen=True, slots=True)
class SolvabilityCertificate:
    """The two conserved parities, shown side by side.

    ``solvable`` holds exactly when they agree.
    """

    config_parity: Parity
    blank_distance: int
    blank_parity: Parity
    solvable: bool

    def lines(self) -> list[str]:
        """Stable key=value rendering used by the CLI."""
        return [
            f"config_parity={self.config_parity}",
            f"blank_distance={self.blank_distance}",
            f"blank_parity={self.blank_parity}",
            f"solvable={'true' if self.solvable else 'false'}",
        ]


def blank_distance(board: Board) -> int:
    """Taxicab distance from the blank to its home (bottom-right) cell."""
    row, col = divmod(board.blank_index - 1, board.width)
    return (board.height - 1 - row) + (board.width - 1 - col)


def certificate(board: Board) -> SolvabilityCertificate:
    """The parity certificate of ``board``, in O(n).

    It reads ``board.cells`` as the permutation's images, with no
    :class:`~permpuzzle.perm.Permutation` built or checked in between.
    That relies on :class:`Board`'s invariant: every board holds 1..n
    exactly once, proven when it was made (by the public constructor,
    :meth:`Board.parse`, or a slide of the blank such as
    :meth:`Board.apply_move`).
    """
    config_parity = cycle_parity(board.cells)
    distance = blank_distance(board)
    blank_parity = Parity.of(distance)
    return SolvabilityCertificate(
        config_parity=config_parity,
        blank_distance=distance,
        blank_parity=blank_parity,
        solvable=config_parity is blank_parity,
    )


def is_solvable(board: Board) -> bool:
    """True iff the goal is reachable from ``board`` by legal moves: the
    certificate's verdict, without building the certificate."""
    return cycle_parity(board.cells) is Parity.of(blank_distance(board))


@dataclass(frozen=True, slots=True)
class EnumerationReport:
    """Result of exhaustively enumerating the goal's component."""

    count: int
    max_depth: int


@lru_cache(maxsize=None)
def _slide_steps(width: int, height: int):
    """:func:`~permpuzzle.board._row_steps` with ``(1 << 4z) | (1 << 4j)``
    as the row of the blank's move from cell ``z`` to cell ``j``: a state
    xor its tile on ``j`` times that row is the tile slid into the
    blank."""
    rows = [
        (1 << 4 * z) | (1 << 4 * j) if j >= 0 else None
        for z in range(width * height)
        for j in move_targets(width, height)[4 * z : 4 * z + 4]
    ]
    return _row_steps(width, height, rows)


class _PackedBFS:
    """Breadth-first layers over boards packed 4 bits per cell, label
    ``l`` on cell ``c`` as ``l << 4c`` and the blank as 0, expanded
    through the per-shape step table of :func:`_slide_steps`, which
    leaves out the move back to a state's parent. A visited map sends
    each state to its blank's last direction, -1 at the root. ``nodes``
    counts expansions; :meth:`expand` raises :class:`ResourceLimitError`
    past ``node_cap`` expansions (None for the default) or ``max_time``
    seconds from ``t0``."""

    def __init__(self, width: int, height: int, node_cap: int | None,
                 max_time: float | None = None, t0: float = 0.0):
        n = width * height
        if n > 16:
            raise ResourceLimitError(
                f"packed-state BFS supports at most 16 cells, got {n}"
            )
        self.steps = _slide_steps(width, height)
        self.targets = move_targets(width, height)
        self.goal = self.pack(range(1, n + 1))
        self.node_cap = DEFAULT_MAX_STATES if node_cap is None else node_cap
        self.max_time, self.nodes = max_time, 0
        self.deadline = t0 + max_time if max_time is not None else None

    @staticmethod
    def pack(cells) -> int:
        n = len(cells)
        state = 0
        for cell, label in enumerate(cells):
            state |= (label % n) << (4 * cell)
        return state

    def expand(self, frontier, seen: dict, other: dict | None = None, bound: int | None = None):
        """Grow the ball ``seen`` maps by one layer of ``(state, blank, last)``.

        Returns ``(next layer, meet)``. ``meet`` is None, or the first
        new ``(child, child's blank, d)`` that ``other``, the other
        side's visited map, holds, which stops the layer: ``d`` is the
        blank's direction into it, for :meth:`unwind`. A limit error
        carries ``bound`` as its ``lower_bound``.
        """
        steps = self.steps
        node_cap, deadline, nodes = self.node_cap, self.deadline, self.nodes
        next_frontier = []
        push = next_frontier.append
        for state, blank, last in frontier:
            nodes += 1
            # The clock is read on the first expansion, then every 4096th.
            if nodes > node_cap or (
                deadline is not None and nodes & 4095 == 1 and time.perf_counter() > deadline
            ):
                limit = f"{node_cap} expansions" if nodes > node_cap else f"{self.max_time}s"
                raise ResourceLimitError(
                    f"BFS exceeded {limit}", nodes_expanded=nodes, lower_bound=bound
                )
            for d, j, slide in steps[blank][last]:
                # The tile times ``slide`` is the tile on both cells. Not
                # ``+``: CPython gives a positive sum a spare digit for the
                # carry, 8 more bytes in half the 3x3 children.
                child = state ^ ((state >> 4 * j) & 15) * slide
                if child not in seen:
                    if other and child in other:
                        self.nodes = nodes
                        return next_frontier, (child, j, d)
                    seen[child] = d
                    push((child, j, d))
        self.nodes = nodes
        return next_frontier, None

    def check_clock(self, bound: int):
        """Raise as :meth:`expand` does once ``max_time`` has passed."""
        if self.deadline is not None and time.perf_counter() > self.deadline:
            raise ResourceLimitError(
                f"BFS exceeded {self.max_time}s", nodes_expanded=self.nodes, lower_bound=bound
            )

    def unwind(self, state: int, blank: int, d: int, seen: dict) -> list[int]:
        """Directions from ``state`` back to its root, last move first:
        ``d``, then those in ``seen``; each step moves the blank back."""
        dirs = []
        while d >= 0:
            dirs.append(d)
            prev = self.targets[4 * blank + (d ^ 1)]
            state ^= ((state >> 4 * prev) & 15) * ((1 << 4 * blank) | (1 << 4 * prev))
            blank = prev
            d = seen[state]
        return dirs


@lru_cache(maxsize=None)
def _goal_ball(width: int, height: int) -> tuple[dict, int, list, bytes]:
    """``(ball, radius, rim, rim_blanks)``: every state within ``radius``
    moves of the goal, mapped to its blank's last direction on a
    shortest path from the goal (-1 at the goal), for
    :meth:`_PackedBFS.unwind`; and the states at ``radius`` with their
    blanks' cells, from which a query grows the goal's side further (a
    list of ints and a bytes, not a layer of tuples, as most queries
    never read them).

    Whole BFS layers from the goal are kept while they total at most
    :data:`BALL_STATES`; a component that fits is held whole. Built once
    per shape, on its first exact query and outside that query's node cap;
    every query of the shape reads the same objects and none writes them.
    """
    bfs = _PackedBFS(width, height, None)
    ball = {bfs.goal: -1}
    frontier, radius = [(bfs.goal, width * height - 1, -1)], 0
    while True:
        layer, _ = bfs.expand(frontier, ball)
        if not layer or len(ball) > BALL_STATES:
            break
        frontier, radius = layer, radius + 1
    if layer:  # past the ceiling
        for state, _, _ in layer:
            del ball[state]
        ball = dict(ball)  # the copy drops the deleted slots
    return ball, radius, [s for s, _, _ in frontier], bytes(j for _, j, _ in frontier)


def reachable_states(
    width: int, height: int, *, max_states: int = DEFAULT_MAX_STATES
) -> EnumerationReport:
    """Breadth-first enumeration of every board reachable from the goal.

    Returns the component size and the puzzle diameter from the goal
    (eccentricity): the bits set across the layers of
    ``pdb_build._layers`` with tiles 1..n-1 as the pattern, and the last
    layer's index. The search holds n ints of up to (n-1)! bits for each
    of the layer, the next one and the visited set, and (n-1)(n-2) slide
    masks as wide, about n·n! bits in all, so the n!/2 <= ``max_states``
    ceiling bounds it (3x3: under 0.5 MB). Raises
    :class:`ResourceLimitError` before any search when the board has
    more than 16 cells or its component would exceed ``max_states``,
    and ``ValueError`` for a shape below 2x2.
    """
    check_dimensions(width, height)
    n = width * height
    if n > 16:
        raise ResourceLimitError(f"the enumeration supports at most 16 cells, got {n}")
    size = math.factorial(n) // 2
    if size > max_states:
        raise ResourceLimitError(
            f"{width}x{height} has {size} reachable states, over the {max_states} ceiling"
        )
    layers = _layers(_regions(width, height, n - 1), range(n - 1))
    sizes = [sum(map(int.bit_count, frontier)) for frontier in layers]
    return EnumerationReport(count=sum(sizes), max_depth=len(sizes) - 1)


@dataclass(frozen=True, slots=True)
class ReplayReport:
    """Outcome of replaying a move sequence from a start board."""

    reached: Board
    solved: bool
    failed_index: int | None = None


def verify_sequence(start: Board, moves) -> ReplayReport:
    """Replay ``moves`` from ``start``; illegality is reported, not raised.

    The replay is :meth:`Board.apply_sequence`'s, on one list of cells
    in O(n + m). At the first illegal step, ``reached`` is the board
    before it and ``failed_index`` its 0-based index.
    """
    reached, error = _replay(start, moves)
    failed = None if error is None else error.index
    return ReplayReport(reached, solved=failed is None and reached.is_goal(), failed_index=failed)
