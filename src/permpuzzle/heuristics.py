"""Admissible distance heuristics for sliding-tile boards.

Both functions never exceed the true solution length, so iterative
deepening on f = g + h stays optimal. This module also owns their
incremental ``(h0, cost, fix)`` form for IDA* (see :mod:`.solver`):
Manhattan is the ``goal_tables`` table with no correction; linear
conflict's correction re-evaluates only the goal line a move takes a
tile out of or into. Pattern databases own theirs in :mod:`.pattern_db`.

Linear conflict reads each goal line as an integer key: the line's
codes (see :func:`line_conflicts`) as a base ``length + 1`` number, which
indexes a conflict table shared by every line of that length and filled
on first read (Korf & Taylor 1996's per-line tables). A per-shape move
table, built on the shape's first solve, names for each slide the one
line it can change and how the slide shifts that line's key, so a node
costs one table read, plus a key and two conflict reads when the tile
crosses its goal line.

The Manhattan table and the move table both grow with n², so each is
refused with :class:`ResourceLimitError` before it is built when an
upper bound on its bytes passes ``pattern_db.DEFAULT_MAX_BYTES``, the
package's one memory ceiling. Every shape up to 37x37 passes it with
either heuristic.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import pattern_db
from .board import Board, move_targets

__all__ = ["manhattan", "linear_conflict"]


def _goal_table_bytes(width: int, height: int) -> int:
    """Upper bound on the bytes :func:`goal_tables` allocates: n+1 lists of
    n slots with their 56-byte headers, three lists of n+1 slots, and a
    32-byte int per slot once a distance can pass 256, the largest int
    CPython shares."""
    n = width * height
    slot = 8 if width + height - 2 <= 256 else 8 + 32
    return (n + 1) * (56 + n * slot + 3 * 8)


def _move_table_bytes(width: int, height: int) -> int:
    """Upper bound on the bytes :func:`_move_table` allocates, the Manhattan
    table and goal lines it is built on included: a 224-byte dict per cell,
    a list of n+1 slots per ordered pair of adjacent cells, n+1 slots per
    goal line, and for each tile of the two goal lines a slide crosses, a
    5-tuple (80 bytes) and its key delta, an int below (L+1)^L for a line
    of L cells."""
    n = width * height
    pairs = 2 * ((width - 1) * height + width * (height - 1))
    total = _goal_table_bytes(width, height) + n * 224
    total += pairs * (56 + (n + 1) * 8) + (width + height) * (n + 1) * 8
    # A vertical slide crosses two rows of ``width`` cells, a horizontal one two columns.
    for length, slides in ((width, 2 * width * (height - 1)), (height, 2 * height * (width - 1))):
        digits = math.ceil(length * math.log2(length + 1) / 30)
        total += slides * 2 * length * (80 + 32 + 4 * digits)
    return total


@lru_cache(maxsize=None)
def goal_tables(width: int, height: int):
    """Per-dimension lookup tables, 0-based cells, labels 1..n (n = blank).

    Returns (md, goal_row, goal_col) where md[label][cell] is the taxicab
    distance from ``cell`` to the label's home. The blank's rows are zero
    / -1 sentinels so it never contributes. The table holds (n+1)·n slots.
    """
    need = _goal_table_bytes(width, height)
    pattern_db._check_bytes("Manhattan table needs", need, pattern_db.DEFAULT_MAX_BYTES)
    n = width * height
    md = [[0] * n for _ in range(n + 1)]
    goal_row = [-1] * (n + 1)
    goal_col = [-1] * (n + 1)
    for label in range(1, n):
        gr, gc = divmod(label - 1, width)
        goal_row[label] = gr
        goal_col[label] = gc
        row = md[label]
        for cell in range(n):
            r, c = divmod(cell, width)
            row[cell] = abs(r - gr) + abs(c - gc)
    return md, goal_row, goal_col


@lru_cache(maxsize=None)
def _goal_lines(width: int, height: int):
    """Rows, then columns, each as (cells, codes, base, conflicts).

    codes[label] is the label's goal column + 1 when the row is its goal
    row (goal row + 1 when the column is its goal column), else 0; base is
    the line's length + 1 and conflicts its :func:`_conflict_table`.
    """
    n = width * height
    _, goal_row, goal_col = goal_tables(width, height)
    rows = [(range(r * width, (r + 1) * width), goal_row, goal_col, r) for r in range(height)]
    cols = [(range(c, n, width), goal_col, goal_row, c) for c in range(width)]
    return tuple(
        (
            tuple(cells),
            tuple(along[t] + 1 if home[t] == i else 0 for t in range(n + 1)),
            len(cells) + 1,
            _conflict_table(len(cells)),
        )
        for cells, home, along, i in rows + cols
    )


def manhattan(board: Board) -> int:
    """Sum of every non-blank tile's taxicab distance to its home cell."""
    md, _, _ = goal_tables(board.width, board.height)
    return sum(md[label][cell] for cell, label in enumerate(board.cells))


def line_conflicts(codes) -> int:
    """2 x (tiles that must leave a line so the rest can slide home).

    ``codes`` lists, cell by cell along one row (column), the goal column
    (row) + 1 of every tile whose goal is this row (column), and 0 for
    any other tile or the blank. The minimum number of leavers is the
    line's own population minus its longest already-ordered subsequence,
    and each leaver costs two extra moves across the line.
    """
    coords = [c for c in codes if c]
    if len(coords) < 2:
        return 0
    best = [0] * len(coords)  # longest increasing subsequence ending at i
    for i, g in enumerate(coords):
        longest = 0
        for j in range(i):
            if coords[j] < g and best[j] > longest:
                longest = best[j]
        best[i] = longest + 1
    return 2 * (len(coords) - max(best))


class _LineConflicts(dict):
    """Line key -> :func:`line_conflicts` of the codes it spells, for lines
    of ``length`` cells, each entry computed on its first read.

    A key is the line's codes read as a base ``length + 1`` number, first
    cell most significant. Only keys of real lines are ever read, so the
    table holds at most one entry per sequence of distinct nonzero codes:
    209 for 4 cells, 13,327 for 6.
    """

    __slots__ = ("length",)

    def __init__(self, length: int):
        super().__init__()
        self.length = length

    def __missing__(self, key: int) -> int:
        base = self.length + 1
        codes = [0] * self.length
        rest = key
        for i in range(self.length - 1, -1, -1):
            rest, codes[i] = divmod(rest, base)
        value = self[key] = line_conflicts(codes)
        return value


@lru_cache(maxsize=None)
def _conflict_table(length: int) -> _LineConflicts:
    """The one conflict table every line of ``length`` cells shares."""
    return _LineConflicts(length)


@lru_cache(maxsize=None)
def _move_table(width: int, height: int):
    """``moves[z][j][t]`` for tile ``t`` sliding from cell ``j`` into the
    blank at the adjacent cell ``z``.

    None when the slide neither takes ``t`` out of its goal line nor into
    it, which leaves every line conflict as it was. Otherwise the goal
    line it leaves or enters, as (cells, codes, base, conflicts, delta):
    ``delta`` is what the slide adds to that line's key, minus (leaving)
    or plus (entering) ``codes[t]`` at the slot the tile crosses. The
    table holds n+1 slots per ordered pair of adjacent cells (30x30: 0.2 s,
    57 MB with the Manhattan table, by ``tracemalloc``).
    """
    need = _move_table_bytes(width, height)
    pattern_db._check_bytes("linear-conflict move table needs", need, pattern_db.DEFAULT_MAX_BYTES)
    n = width * height
    lines = _goal_lines(width, height)
    members = [[t for t, code in enumerate(codes) if code] for _, codes, _, _ in lines]
    targets = move_targets(width, height)
    moves = [{} for _ in range(n)]
    for j in range(n):
        row, col = divmod(j, width)
        for z in targets[j * 4 : j * 4 + 4]:
            if z < 0:
                continue
            if abs(z - j) == width:  # vertical: the rows of j and z, at slot col
                out_line, in_line, slot = j // width, z // width, col
            else:  # horizontal: the columns of j and z, at slot row
                out_line, in_line, slot = height + j % width, height + z % width, row
            per_tile = [None] * (n + 1)
            for i, sign in ((out_line, -1), (in_line, 1)):
                cells, codes, base, conflicts = lines[i]
                weight = sign * base ** (len(cells) - 1 - slot)
                for t in members[i]:
                    per_tile[t] = (cells, codes, base, conflicts, codes[t] * weight)
            moves[z][j] = per_tile
    return moves


def linear_conflict(board: Board) -> int:
    """Manhattan distance plus 2 per tile forced out of its goal row/column.

    Tiles sharing their goal line in reversed order cannot pass each other
    inside the line, so for each line the minimum number of tiles that
    must detour adds two moves apiece. Equals :func:`manhattan` when no
    goal line holds two of its own tiles out of order.
    """
    tiles = board.cells
    total = manhattan(board)
    for cells, codes, base, conflicts in _goal_lines(board.width, board.height):
        key = 0
        for c in cells:
            key = key * base + codes[tiles[c]]
        total += conflicts[key]
    return total


def incremental_manhattan(board: Board):
    """Manhattan as ``(h0, cost, fix)``: the distance table, no correction."""
    return manhattan(board), goal_tables(board.width, board.height)[0], None


def incremental_linear_conflict(board: Board, tiles):
    """Linear conflict as ``(h0, cost, fix)`` over the solver's ``tiles``.

    ``cost`` is the Manhattan table. A slide keeps the order of the line
    it runs along, so only the one perpendicular goal line the tile
    leaves or enters can change its conflicts. ``fix`` reads that line
    from the shape's move table (built on the first solve of the shape,
    then shared): most slides touch no goal line and return ``h``; the
    rest compute the line's integer key from ``tiles`` before the move
    and return ``h + conflicts[key + delta] - conflicts[key]``.
    """
    moves = _move_table(board.width, board.height)

    def fix(h: int, t: int, j: int, z: int) -> int:
        move = moves[z][j][t]
        if move is None:
            return h
        cells, codes, base, conflicts, delta = move
        key = 0
        for c in cells:
            key = key * base + codes[tiles[c]]
        return h + conflicts[key + delta] - conflicts[key]

    return linear_conflict(board), goal_tables(board.width, board.height)[0], fix
