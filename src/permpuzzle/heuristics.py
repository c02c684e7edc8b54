"""Admissible distance heuristics for sliding-tile boards.

Both functions never exceed the true solution length, so iterative
deepening on f = g + h stays optimal. This module also owns their
incremental ``(h0, cost, fix)`` form for IDA* (see :mod:`.solver`):
Manhattan is the ``goal_tables`` table with no correction; linear
conflict's correction re-evaluates, with :func:`line_conflicts`, only the
goal line a move takes a tile out of or into. Pattern databases own
theirs in :mod:`.pattern_db`.
"""

from __future__ import annotations

from functools import lru_cache

from .board import Board

__all__ = ["manhattan", "linear_conflict"]


@lru_cache(maxsize=None)
def goal_tables(width: int, height: int):
    """Per-dimension lookup tables, 0-based cells, labels 1..n (n = blank).

    Returns (md, goal_row, goal_col) where md[label][cell] is the taxicab
    distance from ``cell`` to the label's home. The blank's rows are zero
    / -1 sentinels so it never contributes.
    """
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
    """Rows, then columns, each as (cell slice, codes): codes[label] is the
    label's goal column + 1 when the row is its goal row (goal row + 1
    when the column is its goal column), else 0."""
    n = width * height
    _, goal_row, goal_col = goal_tables(width, height)
    rows = [(slice(r * width, (r + 1) * width), goal_row, goal_col, r) for r in range(height)]
    cols = [(slice(c, n, width), goal_col, goal_row, c) for c in range(width)]
    return tuple(
        (cells, tuple(along[t] + 1 if home[t] == i else 0 for t in range(n + 1)))
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


# Conflicts keyed by a line's codes, shared by every solve: a line of w
# cells has at most (w+1)^w codes (625 for 4x4), and the ceiling keeps the
# memo bounded on large boards.
_memo_line_conflicts = lru_cache(maxsize=1 << 16)(line_conflicts)


def linear_conflict(board: Board) -> int:
    """Manhattan distance plus 2 per tile forced out of its goal row/column.

    Tiles sharing their goal line in reversed order cannot pass each other
    inside the line, so for each line the minimum number of tiles that
    must detour adds two moves apiece. Equals :func:`manhattan` when no
    goal line holds two of its own tiles out of order.
    """
    tiles = board.cells
    return manhattan(board) + sum(
        line_conflicts([codes[t] for t in tiles[cells]])
        for cells, codes in _goal_lines(board.width, board.height)
    )


def incremental_manhattan(board: Board):
    """Manhattan as ``(h0, cost, fix)``: the distance table, no correction."""
    return manhattan(board), goal_tables(board.width, board.height)[0], None


def incremental_linear_conflict(board: Board, tiles):
    """Linear conflict as ``(h0, cost, fix)`` over the solver's ``tiles``.

    ``cost`` is the Manhattan table. A slide keeps the order of the line
    it runs along, so ``fix`` adds only the conflict change of the one
    perpendicular goal line the tile leaves or enters, reading ``tiles``
    before the move, through the module's memo of line conflicts.
    """
    width, height = board.width, board.height
    lines = _goal_lines(width, height)
    conflicts = _memo_line_conflicts

    def fix(h: int, t: int, j: int, z: int) -> int:
        if abs(z - j) == width:  # vertical: the rows of j and z, at column k
            lj, lz, k = j // width, z // width, j % width
        else:  # horizontal: the columns of j and z, at row k
            lj, lz, k = height + j % width, height + z % width, j // width
        cells, codes = lines[lj]
        if codes[t]:
            new = 0  # t leaves its goal line; the blank takes its place
        else:
            cells, codes = lines[lz]
            if not codes[t]:
                return h
            new = codes[t]  # t enters its goal line in the blank's place
        now = [codes[x] for x in tiles[cells]]
        before = conflicts(tuple(now))
        now[k] = new
        return h + conflicts(tuple(now)) - before

    return linear_conflict(board), goal_tables(width, height)[0], fix
