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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .board import Board, _replay, _table, check_dimensions
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
# query's expansions (``solver.bfs_optimal``): above the 9!/2 = 181,440
# states of a 9-cell component, so every board with up to 9 cells is
# enumerated and larger ones are refused.
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


_new_certificate = object.__new__
# The slots' own setters, which the frozen dataclass's __setattr__ refuses.
_set_config, _set_distance, _set_blank_parity, _set_solvable = (
    SolvabilityCertificate.__dict__[name].__set__
    for name in ("config_parity", "blank_distance", "blank_parity", "solvable")
)


def certificate(board: Board) -> SolvabilityCertificate:
    """The parity certificate of ``board``, in O(n).

    It reads ``board.cells`` as the permutation's images, with no
    :class:`~permpuzzle.perm.Permutation` built or checked in between.
    That relies on :class:`Board`'s invariant: every board holds 1..n
    exactly once, proven when it was made (by the public constructor,
    :meth:`Board.parse`, or a slide of the blank such as
    :meth:`Board.apply_move`). The certificate is built as
    ``board._trusted_board`` builds a board: through its slots' setters,
    with no frozen ``__init__``.
    """
    config_parity = cycle_parity(board.cells)
    distance = blank_distance(board)
    blank_parity = Parity.of(distance)
    cert = _new_certificate(SolvabilityCertificate)
    _set_config(cert, config_parity)
    _set_distance(cert, distance)
    _set_blank_parity(cert, blank_parity)
    _set_solvable(cert, config_parity is blank_parity)
    return cert


def is_solvable(board: Board) -> bool:
    """True iff the goal is reachable from ``board`` by legal moves: the
    certificate's verdict, without building the certificate."""
    return cycle_parity(board.cells) is Parity.of(blank_distance(board))


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
    (eccentricity): the bits set across the layers of
    ``pdb_build._layers`` with tiles 1..n-1 as the pattern, and the last
    layer's index. The search holds n ints of up to (n-1)! bits for each
    of the layer, the next one and the visited set, and (n-1)(n-2) slide
    masks as wide, about n·n! bits in all, so the n!/2 <= ``max_states``
    ceiling bounds it (3x3: under 0.5 MB). A shape wider than it is
    tall is searched transposed, which maps the goal to the goal and
    moves to moves, so the answer is the same and a vertical slide
    passes fewer tiles. Raises :class:`ResourceLimitError` before any
    search when the board has more than 16 cells or its component would
    exceed ``max_states``, and ``ValueError`` for a shape below 2x2.
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
    layers = _layers(_table(_regions, min(width, height), max(width, height), n - 1), range(n - 1))
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
