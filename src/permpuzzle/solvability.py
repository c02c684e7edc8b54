"""Parity-based solvability decision and its exhaustive BFS grounding.

Every move is a single transposition of tile labels, so it flips the
configuration's sign; it also moves the blank one step, flipping the
parity of the blank's taxicab distance to its home cell. The goal is
Even/Even, so a board can reach it only if the two parities agree. BFS
enumeration over small boards certifies the converse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .board import Board, Move, check_dimensions, move_targets
from .errors import IllegalMoveError, ResourceLimitError
from .perm import Parity

__all__ = [
    "SolvabilityCertificate",
    "EnumerationReport",
    "ReplayReport",
    "certificate",
    "is_solvable",
    "reachable_states",
    "verify_sequence",
]

# Ceiling on visited states for reachable_states; admits every board with
# up to 9 cells (9!/2 = 181440) and refuses anything larger by default.
DEFAULT_MAX_STATES = 1_000_000


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
    config_parity = board.to_permutation().sign()
    distance = blank_distance(board)
    blank_parity = Parity.of(distance)
    return SolvabilityCertificate(
        config_parity=config_parity,
        blank_distance=distance,
        blank_parity=blank_parity,
        solvable=config_parity is blank_parity,
    )


def is_solvable(board: Board) -> bool:
    """True iff the goal is reachable from ``board`` by legal moves."""
    return certificate(board).solvable


@dataclass(frozen=True, slots=True)
class EnumerationReport:
    """Result of exhaustively enumerating the goal's component."""

    count: int
    max_depth: int


def reachable_states(
    width: int, height: int, *, max_states: int = DEFAULT_MAX_STATES
) -> EnumerationReport:
    """Breadth-first enumeration of every board reachable from the goal.

    Returns the component size and the puzzle diameter from the goal
    (eccentricity). States are packed into integers, 4 bits per cell.
    Raises :class:`ResourceLimitError` rather than returning a partial
    answer when the component would exceed ``max_states``, and
    ``ValueError`` for a shape below 2x2.
    """
    check_dimensions(width, height)
    n = width * height
    if n > 16:
        raise ResourceLimitError(
            f"enumeration supports at most 16 cells, got {n}"
        )
    if math.factorial(n) // 2 > max_states:
        raise ResourceLimitError(
            f"{width}x{height} has {math.factorial(n) // 2} reachable states, "
            f"over the {max_states} ceiling"
        )

    targets = move_targets(width, height)
    # Pack cells as 4-bit fields holding label-1; the goal is 0,1,...,n-1.
    goal = 0
    for cell in range(n):
        goal |= cell << (4 * cell)
    blank0 = n - 1

    visited = {goal}
    frontier = [(goal, blank0)]
    count = 1
    depth = 0
    while frontier:
        if count > max_states:
            raise ResourceLimitError(
                f"state count exceeded the {max_states} ceiling at depth {depth}"
            )
        next_frontier = []
        for state, blank in frontier:
            base = blank * 4
            for d in range(4):
                target = targets[base + d]
                if target < 0:
                    continue
                shift = target * 4
                tile = (state >> shift) & 15
                # Swap the blank nibble with the tile nibble.
                delta = tile ^ blank0
                child = state ^ (delta << shift) ^ (delta << (blank * 4))
                if child not in visited:
                    visited.add(child)
                    next_frontier.append((child, target))
        if next_frontier:
            depth += 1
            count += len(next_frontier)
        frontier = next_frontier
    return EnumerationReport(count=count, max_depth=depth)


@dataclass(frozen=True, slots=True)
class ReplayReport:
    """Outcome of replaying a move sequence from a start board."""

    reached: Board
    solved: bool
    failed_index: int | None = None


def verify_sequence(start: Board, moves) -> ReplayReport:
    """Replay ``moves`` from ``start``; illegality is reported, not raised."""
    board = start
    for k, move in enumerate(moves):
        try:
            board = board.apply_move(move)
        except IllegalMoveError:
            return ReplayReport(reached=board, solved=False, failed_index=k)
    return ReplayReport(reached=board, solved=board.is_goal())
