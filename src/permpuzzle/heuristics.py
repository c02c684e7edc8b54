"""Admissible distance heuristics for sliding-tile boards.

Both functions never exceed the true solution length, so iterative
deepening on f = g + h stays optimal. This module also owns their
``(h0, steps, regs)`` form for IDA* (see :mod:`.solver`), by name in
:data:`INCREMENTAL`, over a per-shape step table of int-only Manhattan rows.
Pattern databases own theirs in :mod:`.pattern_db`.

Linear conflict reads each goal line as an integer key: the line's
codes (see :func:`line_conflicts`) as a base ``length + 1`` number, which
indexes a conflict table shared by every line of that length (Korf &
Taylor 1996's per-line tables). Every table answers every key it is
asked for (:func:`_conflict_table`): a line of at most 5 cells has a
complete list, filled when it is made, and a longer line a ``dict``
that fills a key on its first read. Reads of the latter take CPython's
generic subscript, not the specialised one of an exact ``dict``, which
costs 5-13% more time per node on 8x2, 6x6, 7x7 and 10x10 boards and
4-7% on 150x2 and 2x150. The search carries the keys in its registers,
one per goal row and column, and a slide shifts them by constants from
the step table, so a node computes no key.

Both heuristics read tables of O(n) entries (:func:`goal_tables`): a
tile's code on a line is its goal column (row) + 1, so no line keeps
codes of its own (:func:`_lines`). Each step table grows with n², so it
is refused with :class:`ResourceLimitError` before it is built when an
upper bound on its bytes passes ``pattern_db.DEFAULT_MAX_BYTES``, the
package's one memory ceiling. Manhattan search passes it on every shape
up to 154x154 and 2x2025, and linear-conflict search up to 36x36 and
2x216. :func:`manhattan` and :func:`linear_conflict` on their own need
O(n) memory, and :func:`goal_tables` is charged against the same
ceiling: it refuses 648x648 and larger before it is built. Every table
here, the conflict tables too, is kept in the per-shape store
(``board._table``), and the step tables are built there under the
calling search's deadline.
"""

from __future__ import annotations

import gc
import math
from bisect import bisect_left
from functools import partial
from itertools import product

from . import pattern_db
from .board import _TABLES, Board, _blank_steps, _row_steps, _table, _untimed

__all__ = ["manhattan", "linear_conflict"]


def goal_tables(width: int, height: int):
    """Per-shape tables of O(n) entries, 0-based cells, labels 1..n (n = blank).

    Returns (dist, at, home, goal_row, goal_col). On a grid 2w-1 wide,
    home[label] is the place of the label's home cell and at[cell] the
    cell's place plus the grid's centre, so ``dist[at[cell] - home[label]]``,
    one entry per (row, column) offset, is the taxicab distance from
    ``cell`` to the label's home. goal_row/goal_col hold each label's home
    row and column, -1 for the blank and the unused label 0.

    Refused before it is built when its entries, at most 40 bytes each
    (a list slot and an int of its own), pass ``DEFAULT_MAX_BYTES``.
    """
    n = width * height
    span = 2 * width - 1
    need = 40 * (span * (2 * height - 1) + 4 * (n + 1)) + 512
    pattern_db._check_bytes("goal tables need", need)
    mid = (height - 1) * span + width - 1
    home = [0] + [r * span + c for r in range(height) for c in range(width)]
    at = [place + mid for place in home[1:]]
    dist = [abs(i // span - height + 1) + abs(i % span - width + 1) for i in range(2 * mid + 1)]
    goal_row = [-1] * (n + 1)
    goal_col = [-1] * (n + 1)
    for label in range(1, n):
        goal_row[label], goal_col[label] = divmod(label - 1, width)
    return dist, at, home, goal_row, goal_col


def _lines(width: int, height: int):
    """Rows, then columns, each as (cells, home, along, index, base, conflicts).

    A tile's code on the line (see :func:`line_conflicts`) is
    ``along[label] + 1`` when ``home[label]`` is the line's index, else 0:
    on a row, home is each label's goal row and along its goal column, and
    on a column the other way round. base is the line's length + 1 and
    conflicts its :func:`_conflict_table`.
    """
    n = width * height
    *_, goal_row, goal_col = _table(goal_tables, width, height)
    rows = [(slice(r * width, (r + 1) * width), goal_row, goal_col, r, width + 1,
             _table(_conflict_table, width)) for r in range(height)]
    cols = [(slice(c, n, width), goal_col, goal_row, c, height + 1,
             _table(_conflict_table, height)) for c in range(width)]
    return rows + cols


def manhattan(board: Board) -> int:
    """Sum of every non-blank tile's taxicab distance to its home cell."""
    dist, at, home, _, _ = _table(goal_tables, board.width, board.height)
    total = -dist[at[board.blank_index - 1] - home[-1]]  # the blank's own term
    for a, label in zip(at, board.cells):  # a plain loop reads only fast locals
        total += dist[a - home[label]]
    return total


def line_conflicts(codes) -> int:
    """2 x (tiles that must leave a line so the rest can slide home).

    ``codes`` lists, cell by cell along one row (column), the goal column
    (row) + 1 of every tile whose goal is this row (column), and 0 for
    any other tile or the blank. The minimum number of leavers is the
    line's own population minus its longest already-ordered subsequence,
    found by patience sorting in O(L log L), and each leaver costs two
    extra moves across the line.
    """
    coords = [c for c in codes if c]
    tails = []  # tails[k]: the least last code of an increasing run of k + 1
    for g in coords:
        k = bisect_left(tails, g)
        tails[k:k + 1] = [g]
    return 2 * (len(coords) - len(tails))


class _LongLines(dict):
    """The conflict table of lines longer than 5 cells, which fills
    itself: a key read for the first time is decoded into its codes and
    stored with their :func:`line_conflicts`."""

    def __init__(self, length: int):
        self.length = length

    def __missing__(self, key: int) -> int:
        base = self.length + 1
        codes = [key // base ** i % base for i in range(self.length - 1, -1, -1)]
        value = self[key] = line_conflicts(codes)
        return value


def _conflict_table(length: int) -> list | dict:
    """The conflict table every line of ``length`` cells shares, kept in
    the per-shape store (``board._table``).

    It maps a line key, the line's codes read as a base ``length + 1``
    number, first cell most significant, to :func:`line_conflicts` of
    those codes, and answers every key from the start. A line of at most
    5 cells gets a complete list, one slot per key, filled when it is
    made (625 slots in 0.6 ms for 4 cells, 7,776 in 8.5 ms for 5, on a
    2-vCPU VM), so the search's ``table[key]`` reads take CPython's
    specialised list subscript. A longer line's keys cannot all have a
    slot (117,649 for 6 cells), so its table is a :class:`_LongLines`
    dict that stores each key on its first read, at most one per
    sequence of distinct nonzero codes: 13,327 for 6 cells.
    """
    if length <= 5:
        return [line_conflicts(codes) for codes in product(range(length + 1), repeat=length)]
    return _LongLines(length)


def linear_conflict(board: Board) -> int:
    """Manhattan distance plus 2 per tile forced out of its goal row/column.

    Tiles sharing their goal line in reversed order cannot pass each other
    inside the line, so for each line the minimum number of tiles that
    must detour adds two moves apiece. Equals :func:`manhattan` when no
    goal line holds two of its own tiles out of order.
    """
    return _linear_conflict(board)[0]


def _linear_conflict(board: Board):
    """:func:`linear_conflict` and the list of goal line keys, rows then columns."""
    tiles = board.cells
    total = manhattan(board)
    keys = []
    for cells, home, along, i, base, conflicts in _table(_lines, board.width, board.height):
        key = 0
        for t in tiles[cells]:
            key = key * base + (along[t] + 1 if home[t] == i else 0)
        total += conflicts[key]
        keys.append(key)
    return total, keys


def _table_bytes(width: int, height: int) -> tuple[int, int]:
    """Upper bounds on the bytes kept by Manhattan's step table and linear
    conflict's. A step table holds per cell a 5-tuple, a 4-tuple and eight
    3-tuples at most, and Manhattan rows of n+1 slots (every change is a
    shared small int); linear conflict's adds per slide a row, and per tile
    of a line it crosses or runs along a 5-tuple and an int below
    (L+1)^L."""
    n = width * height
    steps = n * (80 + 4 * 64 + 72 + 4 * 64 + 8) + 256
    steps += 2 * (width + height - 2) * (40 + 8 * (n + 1))
    conflict_steps = steps
    key = {k: 32 + 4 * math.ceil(k * math.log2(k + 1) / 30) for k in (width, height)}
    # A vertical slide crosses two of the ``height`` rows of ``width`` cells
    # and runs along a column; a horizontal one the other way round.
    for cross, along, slides in ((width, height, 2 * width * (height - 1)),
                                 (height, width, 2 * height * (width - 1))):
        entries = 2 * cross * (80 + key[cross]) + along * (80 + key[along])
        conflict_steps += slides * (56 + 8 * (n + 1) + entries + 2 * (48 + 56))
    return steps, conflict_steps


def _check_steps(width: int, height: int, conflicts: bool) -> None:
    """Refuse Manhattan's step table, or with ``conflicts`` linear
    conflict's, when :func:`_table_bytes` passes the ceiling."""
    what = "linear-conflict" if conflicts else "Manhattan"
    need = _table_bytes(width, height)[conflicts]
    pattern_db._check_bytes(f"{what} step table needs", need)


def _step_table(width: int, height: int, conflicts: bool, tick=_untimed):
    """Manhattan's per-shape step table, or with ``conflicts`` linear conflict's.

    A Manhattan row depends only on the two rows (columns) a vertical
    (horizontal) slide joins, so one tuple serves each such pair. A slide
    keeps the order of every goal line but the one it takes the tile out
    of or into, and moves the key of the one it takes the tile along by
    the tile's code times a change of place value. Such a tile's entry
    names the crossed line (else the along one) as ``s``, with ``T`` its
    conflict table; ``more`` is ``()``, or the along line's ``(s2, o2)``
    itself when the tile is in both, since a tile has one goal row and
    one goal column.

    Its ceiling is checked first. Each slide's row, n + 1 entries, is as
    many steps of work for ``tick`` (see :func:`~permpuzzle.board._table`),
    and each cell of :func:`~permpuzzle.board._row_steps` is one.
    """
    _check_steps(width, height, conflicts)
    enabled = gc.isenabled()  # entries hold lists or dicts, so stay tracked: pause the collector
    gc.disable()
    try:
        n, work, due = width * height, 0, 0
        *_, goal_row, goal_col = _table(goal_tables, width, height)
        shared = {}  # (out, into): the row of a slide from line out into line into
        if conflicts:
            lines = _table(_lines, width, height)
            # place[i][slot]: the weight of a slot of line i in its key.
            place = [[base ** s for s in range(base - 2, -1, -1)] for *_, base, _ in lines]
            members = [[t for t, g in enumerate(home) if g == i] for _, home, _, i, _, _ in lines]
        rows = [None] * (4 * n)  # [4 * z + d]: the blank at z moves d, the tile at j slides into z
        for z, per_last in enumerate(_table(_blank_steps, width, height)):
            for d, j in per_last[-1]:
                if work >= due:
                    due = tick(work)
                work += n + 1
                (rz, cz), (rj, cj) = divmod(z, width), divmod(j, width)
                if cz == cj:  # vertical: out of row rj, into row rz, along column cz
                    out, into, slot, along, a, b, goal = rj, rz, cz, height + cz, rj, rz, goal_row
                else:  # horizontal: out of column cj, into column cz, along row rz
                    out, into, slot, along, a, b, goal = height + cj, height + cz, rz, rz, cj, cz, goal_col
                row = shared.get((out, into))
                if row is None:
                    row = shared[out, into] = tuple(abs(b - g) - abs(a - g) if g >= 0 else 0 for g in goal)
                if conflicts:
                    row = list(row)
                    shift = place[along][b] - place[along][a]
                    for line, weight in ((out, -place[out][slot]), (into, place[into][slot]), (along, shift)):
                        _, _, coord, _, _, table = lines[line]
                        for t in members[line]:
                            reg = (line, (coord[t] + 1) * weight)
                            e = row[t]
                            row[t] = (e, *reg, table, ()) if e.__class__ is int else (*e[:4], reg)
                rows[4 * z + d] = row
        return _row_steps(width, height, lambda z, d, j: rows[4 * z + d], tick)
    finally:
        if enabled:
            gc.enable()


def _incremental(conflicts: bool, board: Board, tick=_untimed):
    """Manhattan's ``(h0, steps, regs)``, or with ``conflicts`` linear
    conflict's, whose regs are the line keys. ``steps`` is the store key
    of the shape's step table, which ``board._table(*steps, tick=...)``
    reads or builds; a missing table's ceiling is checked here, before
    h0's tables are built. h0 reads only O(n) tables, untimed."""
    steps = (_step_table, board.width, board.height, conflicts)
    if steps not in _TABLES:
        _check_steps(board.width, board.height, conflicts)
    h0, keys = _linear_conflict(board) if conflicts else (manhattan(board), [])
    return h0, steps, keys


# The named heuristics, each with its ``(h0, steps, regs)`` function.
INCREMENTAL = {"manhattan": partial(_incremental, False),
               "linear-conflict": partial(_incremental, True)}
