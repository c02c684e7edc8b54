"""Sliding-puzzle boards, legal moves, and the bridge to permutations.

A board is a width x height grid holding tile labels 1..n exactly once,
where n = width*height is the blank. Externally the blank is written as
``0`` (or ``_`` on input). A move names the direction the *blank*
travels; the slid tile moves the opposite way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum

from .errors import IllegalMoveError, ParseError
from .perm import Permutation, _check_bijection

__all__ = [
    "Move",
    "MOVE_ORDER",
    "Board",
    "scramble",
    "parse_moves",
    "format_moves",
]


class Move(Enum):
    """Direction the blank travels (the slid tile moves opposite)."""

    UP = "U"
    DOWN = "D"
    LEFT = "L"
    RIGHT = "R"

    @property
    def inverse(self) -> "Move":
        return _INVERSE[self]

    @classmethod
    def from_token(cls, token: str) -> "Move":
        try:
            return cls(token)
        except ValueError:
            raise ParseError(f"invalid move token {token!r}; expected U, D, L or R") from None


# Canonical move ordering used everywhere search determinism matters.
MOVE_ORDER: tuple[Move, ...] = (Move.UP, Move.DOWN, Move.LEFT, Move.RIGHT)
# A move's index in MOVE_ORDER, keyed by its token: a str hashes in C,
# where a Move's hash is a Python call on its name.
_DIRECTION = {m._value_: d for d, m in enumerate(MOVE_ORDER)}

# MOVE_ORDER pairs each direction d with its inverse d ^ 1: U/D and L/R.
_INVERSE = {m: MOVE_ORDER[d ^ 1] for d, m in enumerate(MOVE_ORDER)}

_BLANK_TOKENS = ("0", "_")


# Every per-shape table, keyed by its builder and shape, such as
# ``(_blank_steps, 4, 4)``: the move and step tables, Manhattan's goal
# tables, linear conflict's lines, the pattern build's region tables and
# the exact oracle's goal balls; keyed by its builder and a line length
# or cell count, linear conflict's conflict tables and :meth:`Board.parse`'s
# token labels; and keyed by the shape and its databases' tiles and
# tables, a pattern heuristic's indexes, step table and the first equal
# tuple of tiles and tables (``pattern_db._same``). It is the package's
# only per-shape state, so clearing it frees every table. :func:`_table`
# fills it, and an entry, once stored, is never replaced or dropped.
# Every table is complete when stored but one: the conflict table of
# lines over 5 cells, which adds each key on its first read.
_TABLES: dict = {}
_NEVER = 1 << 62  # a step of work or an expansion no build or search reaches


def _untimed(work: int) -> int:
    """The clock of a build with no deadline: no step is ever due."""
    return _NEVER


def _table(build, *args, tick=None):
    """``build(*args)`` from :data:`_TABLES`, built and stored when missing.

    A builder that reads a deadline takes ``tick``, the calling search's
    ``_Budget.tick``: it calls ``tick(work)`` once its count of steps of
    work reaches the step due, which is 0 at first (so at once), and the
    call returns the next, 2048 steps on. A deadline that passes raises
    out of the build and nothing is stored, so the next call builds
    again; only the tables it read, each built to the end, stay. A
    table already stored costs one dict read and no clock read.
    """
    table = _TABLES.get(key := (build, *args))
    if table is None:
        table = _TABLES[key] = build(*args) if tick is None else build(*args, tick)
    return table


def _blank_steps(width: int, height: int):
    """``steps[blank][last]``: the blank's legal (direction, destination)
    pairs from ``blank``, in U, D, L, R order, without ``last ^ 1``, the
    direction that undoes a last move ``last`` (:data:`MOVE_ORDER` pairs
    U/D and L/R). The fifth entry, ``steps[blank][-1]``, serves a root
    and keeps every legal pair. The table holds 5·n tuples.

    It is the one move table, built from the rule a single board's moves
    follow: a direction is legal when :func:`_room` gives it room, and
    its destination is the blank's cell plus the direction's
    :func:`_offsets` entry. IDA*'s heuristics and the packed-state BFS
    read it through :func:`_row_steps`, the pattern build's region pass
    reads its destinations, and :func:`scramble` draws each move from it;
    a single board reads :func:`_room` with no per-shape table.
    """
    offsets, steps = _offsets(width), []
    for z in range(width * height):
        legal = [(d, z + offsets[d]) for d, room in enumerate(_room(width, height, z)) if room]
        per_last = [tuple(s for s in legal if s[0] != last ^ 1) for last in range(4)]
        steps.append((*per_last, tuple(legal)))
    return tuple(steps)


def _row_steps(width: int, height: int, row, tick=_untimed):
    """:func:`_blank_steps` with ``row(blank, d, j)`` attached to each
    pair, as (d, j, row): a heuristic's step table for IDA*. A cell is a
    step of work for ``tick`` (see :func:`_table`)."""
    steps, due = [], 0
    for z, per_last in enumerate(_table(_blank_steps, width, height)):
        if z >= due:
            due = tick(z)
        triples = {d: (d, j, row(z, d, j)) for d, j in per_last[-1]}
        steps.append(tuple(tuple(triples[d] for d, _ in entry) for entry in per_last))
    return tuple(steps)


def check_dimensions(width: int, height: int) -> None:
    """Reject a board shape narrower or shorter than 2 cells."""
    if width < 2 or height < 2:
        raise ValueError("board dimensions must be at least 2x2")


def _token_labels(n: int) -> dict[str, int]:
    """The canonical spelling of each of 1..n-1, plus ``0`` and ``_`` for
    the blank, mapped to its label: :meth:`Board.parse`'s fast path, kept
    in the table store."""
    labels = {str(v): v for v in range(1, n)}
    for tok in _BLANK_TOKENS:
        labels[tok] = n
    return labels


def _parse_cells(rows, n: int) -> list[int]:
    """The labels of a board's tokens, read one at a time: raises
    :class:`ParseError` naming the first bad token, and accepts the
    non-canonical spellings (leading zeros) :meth:`Board.parse`'s fast
    path leaves to it."""
    digits = len(str(n))
    cells = []
    seen = bytearray(n + 1)
    blank_seen = False
    for tok in (tok for row in rows for tok in row):
        if tok in _BLANK_TOKENS:
            if seen[n]:
                raise ParseError("more than one blank")
            seen[n] = 1
            blank_seen = True
            cells.append(n)
            continue
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"invalid tile {tok!r}")
        # No label has more digits than n, and int() refuses over 4300.
        v = int(tok) if len(tok.lstrip("0")) <= digits else 0
        # The blank's internal label n is tolerated here so that a
        # board written without any 0/_ reports the missing blank.
        if not 1 <= v <= n:
            raise ParseError(f"tile {tok} outside 1..{n - 1}")
        if seen[v]:
            raise ParseError(f"duplicate tile {v}")
        seen[v] = 1
        cells.append(v)
    if not blank_seen:
        raise ParseError("missing blank (0 or _)")
    return cells


@dataclass(frozen=True, slots=True)
class Board:
    """Immutable puzzle state; ``cells`` is row-major, blank stored as label n.

    A board is validated once, when it is made: ``cells`` is then a
    permutation of 1..n and ``blank_index`` the 1-based cell of label n,
    which every reader (the solvability certificate included) trusts.
    The public constructor and :meth:`from_permutation` check their
    input in full. :meth:`parse` proves the same while reading the text,
    and :meth:`apply_move`, :meth:`apply_sequence` and :func:`scramble`
    only swap the blank with neighbours, so they build their result
    without checking it again.
    """

    width: int
    height: int
    cells: tuple[int, ...]
    blank_index: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        check_dimensions(self.width, self.height)
        cells = tuple(self.cells)
        object.__setattr__(self, "cells", cells)
        n = self.width * self.height
        if len(cells) != n:
            raise ValueError(f"expected {n} cells, got {len(cells)}")
        _check_bijection(cells, n, "tile label")
        # 1-based position of the blank, kept in sync by construction.
        object.__setattr__(self, "blank_index", cells.index(n) + 1)

    @property
    def size(self) -> int:
        return self.width * self.height

    # ------------------------------------------------------------------
    # Construction and text format
    # ------------------------------------------------------------------

    @classmethod
    def goal(cls, width: int, height: int) -> "Board":
        """The solved board: tiles 1..n-1 in order, blank last."""
        return cls(width, height, tuple(range(1, width * height + 1)))

    @classmethod
    def parse(cls, text: str) -> "Board":
        """Parse rows of whitespace-separated ASCII-digit tiles; blank 0 or _."""
        rows = [row for row in map(str.split, text.splitlines()) if row]
        if not rows:
            raise ParseError("empty board")
        width = len(rows[0])
        for row in rows:
            if len(row) != width:
                raise ParseError(
                    f"ragged rows: expected {width} columns, got {len(row)}"
                )
        height = len(rows)
        if width < 2 or height < 2:
            raise ParseError("board must be at least 2x2")
        n = width * height
        # Canonical tokens, each label once, are a valid board; anything
        # else (a leading zero, or an error to name) takes the full loop.
        labels = _table(_token_labels, n)
        cells = [labels.get(tok, 0) for row in rows for tok in row]
        if 0 in cells or len(set(cells)) != n:
            cells = _parse_cells(rows, n)
        return _trusted_board(width, height, tuple(cells), cells.index(n) + 1)

    def format(self) -> str:
        """Inverse of :meth:`parse`; the blank is emitted as ``0``."""
        n, w = self.size, self.width
        rows = (self.cells[r : r + w] for r in range(0, n, w))
        return "\n".join(" ".join("0" if v == n else str(v) for v in row) for row in rows)

    def __str__(self) -> str:
        return self.format()

    # ------------------------------------------------------------------
    # Permutation bridge
    # ------------------------------------------------------------------

    def to_permutation(self) -> Permutation:
        """The position -> tile mapping; the solved board is the identity."""
        return Permutation(self.cells)

    @classmethod
    def from_permutation(cls, p: Permutation, width: int, height: int) -> "Board":
        if p.degree != width * height:
            raise ValueError(
                f"degree {p.degree} does not match {width}x{height} board"
            )
        return cls(width, height, p.images)

    # ------------------------------------------------------------------
    # Moves
    # ------------------------------------------------------------------

    def is_goal(self) -> bool:
        return self.cells == tuple(range(1, self.width * self.height + 1))

    def legal_moves(self) -> set[Move]:
        """The 2-4 directions the blank may travel from here."""
        room = _room(self.width, self.height, self.blank_index - 1)
        return {m for m, r in zip(MOVE_ORDER, room) if r}

    def apply_move(self, move: Move) -> "Board":
        """Slide the adjacent tile into the blank; blank travels ``move``.

        A one-step :func:`_replay`; an illegal ``move`` raises
        :func:`_illegal`'s error, with no ``index``.
        """
        board, error = _replay(self, (move,))
        if error is not None:
            raise _illegal(move)
        return board

    def move_transposition(self, move: Move) -> Permutation:
        """The 2-cycle of tile labels (blank, slid tile) realizing ``move``.

        Left-composing it onto ``to_permutation`` yields the moved board's
        permutation. The slid tile is read from :meth:`apply_move`'s board.
        """
        n = self.size
        return Permutation.transposition(n, n, self.cells[self.apply_move(move).blank_index - 1])

    def apply_sequence(self, moves) -> "Board":
        """The board ``moves`` reach, played left to right; the same as a
        fold of :meth:`apply_move`, in O(n + m) rather than O(n·m).

        The first illegal step raises :class:`IllegalMoveError` with its
        ``index`` and ``move``, its message the step's own prefixed with
        ``illegal move at index k:``.
        """
        board, error = _replay(self, moves)
        if error is not None:
            raise error
        return board


_new_board = object.__new__
# The slots' own setters, which the frozen dataclass's __setattr__ refuses.
_set_width, _set_height, _set_cells, _set_blank = (
    Board.__dict__[name].__set__ for name in ("width", "height", "cells", "blank_index")
)


def _trusted_board(
    width: int, height: int, cells: tuple[int, ...], blank_index: int
) -> Board:
    """A board from parts already proven valid (``cells`` a tuple holding
    1..n once, label n at ``blank_index``), without ``__post_init__``."""
    board = _new_board(Board)
    _set_width(board, width)
    _set_height(board, height)
    _set_cells(board, cells)
    _set_blank(board, blank_index)
    return board


def _room(width: int, height: int, blank: int) -> tuple[int, int, int, int]:
    """How many cells the blank on cell ``blank`` may travel in each
    direction, in U, D, L, R order, from its row and column."""
    row, col = divmod(blank, width)
    return row, height - 1 - row, col, width - 1 - col


def _offsets(width: int) -> tuple[int, int, int, int]:
    """What a move in each direction, in U, D, L, R order, adds to the
    blank's cell."""
    return -width, width, -1, 1


def _illegal(move) -> IllegalMoveError:
    """The error for ``move``, which is not a :class:`Move` or takes the
    blank off the board."""
    if not isinstance(move, Move):
        return IllegalMoveError(f"not a Move: {move!r}", move=move)
    return IllegalMoveError(
        f"blank cannot travel {move.name}: already at that edge", move=move
    )


def _replay(start: Board, moves) -> tuple[Board, IllegalMoveError | None]:
    """Play ``moves`` from ``start`` on one list of cells, which holds
    every label but the blank's until the walk ends, and build one board.

    Returns the board reached and None, or the board before the first
    illegal step and the error :meth:`Board.apply_sequence` raises for
    it; :func:`~permpuzzle.solvability.verify_sequence` reports that.
    """
    width = start.width
    cells, blank = list(start.cells), start.blank_index - 1
    # The blank's room in each direction (:func:`_room`), kept up step by
    # step: a move spends one of its own and gives one to its opposite.
    room = list(_room(width, start.height, blank))
    offsets = _offsets(width)
    error = None
    for k, move in enumerate(moves):
        d = _DIRECTION[move._value_] if isinstance(move, Move) else None
        if d is None or not room[d]:
            error = IllegalMoveError(f"illegal move at index {k}: {_illegal(move)}", move=move, index=k)
            break
        room[d] -= 1
        room[d ^ 1] += 1
        j = blank + offsets[d]
        cells[blank], blank = cells[j], j
    cells[blank] = len(cells)
    return _trusted_board(start.width, start.height, tuple(cells), blank + 1), error


def scramble(
    width: int, height: int, steps: int, rng_seed: int
) -> tuple[Board, list[Move]]:
    """Walk ``steps`` random legal moves from the goal, never immediately
    undoing the previous move. Deterministic for a fixed seed; the result
    is solvable by construction and the returned sequence is a witness.

    Each move is ``rng.choice`` over the blank's entry in
    :func:`_blank_steps`. The walk slides tiles on one list of cells,
    as :meth:`Board.apply_sequence` does, and builds one board at the
    end, so it costs O(n + steps) rather than a board per move.
    """
    if steps < 0:
        raise ValueError("steps must be non-negative")
    check_dimensions(width, height)
    choice = random.Random(rng_seed).choice
    table = _table(_blank_steps, width, height)
    n = width * height
    cells, blank = list(range(1, n + 1)), n - 1
    moves: list[Move] = []
    last = -1  # the root's entry keeps every legal move
    for _ in range(steps):
        last, j = choice(table[blank][last])
        moves.append(MOVE_ORDER[last])
        cells[blank], blank = cells[j], j
    cells[blank] = n
    return _trusted_board(width, height, tuple(cells), blank + 1), moves


def parse_moves(text: str) -> list[Move]:
    """Parse whitespace-separated U/D/L/R tokens."""
    return [Move.from_token(tok) for tok in text.split()]


def format_moves(moves) -> str:
    return " ".join(m.value for m in moves)
