"""Exception types shared across the package."""

from __future__ import annotations


class PuzzleError(Exception):
    """Base class for every error raised by this package."""


class ParseError(PuzzleError, ValueError):
    """Malformed textual or binary input (boards, notation, move lists, PDB files)."""


class IllegalMoveError(PuzzleError, ValueError):
    """A move would take the blank off the board, or an item is not a Move.

    ``move`` names the offending item; ``index`` is set when the move
    came from a sequence (0-based position of the first illegal move).
    """

    def __init__(self, message: str, *, move=None, index: int | None = None):
        super().__init__(message)
        self.move = move
        self.index = index


class UnsolvableError(PuzzleError):
    """The goal is unreachable from the given board.

    Carries the parity certificate that proves it.
    """

    def __init__(self, message: str, certificate=None):
        super().__init__(message)
        self.certificate = certificate


class ResourceLimitError(PuzzleError, RuntimeError):
    """A node, time, depth, or memory ceiling was hit before an answer was found.

    A search that was cut short sets ``lower_bound``, a length the optimal
    solution is proven to reach, so the abort still reports a true fact.
    """

    def __init__(
        self,
        message: str,
        *,
        nodes_expanded: int | None = None,
        lower_bound: int | None = None,
    ):
        super().__init__(message)
        self.nodes_expanded = nodes_expanded
        self.lower_bound = lower_bound
