"""Disjoint additive pattern databases.

A database stores, for every placement of a chosen tile subset, the
minimum number of *pattern-tile* moves needed to bring those tiles home
(blank and non-pattern moves are free). Databases over disjoint tile
sets may therefore be summed and remain a lower bound on the true
solution length.

File format (little-endian): magic ``SPDB``, version byte 1, width byte,
height byte, pattern-size byte k, k ascending tile-label bytes, an 8-byte
unsigned table length L, then L distance bytes indexed by the
lexicographic rank of the pattern tiles' cell assignment (an ordered
k-selection out of the n cells).

:func:`.pdb_build.build_pdb` builds the tables, placing a set's k!
entries at once by :func:`rank_weights`. This module owns the one
reader, :class:`PatternHeuristic`, and its ``(h0, steps, regs)`` form
for IDA* (:meth:`PatternHeuristic.incremental`), described in
:mod:`.solver`. It ranks nothing: a set's first lookup expands each
table into a positional index of n^k bytes, keyed by the pattern tiles'
cells as base-n digits, which IDA* carries in a register per database
and a move shifts by a fixed stride. The indexes and the step table sit
in the one table store (``board._table``), keyed by the shape and the
databases: built after IDA*'s parity and goal checks, under its
deadline, and kept for the life of the process. Files keep the
rank-ordered table; there is no rank-order read, and one table is read
as ``pdb_heuristic(board, [db])``. One byte ceiling, ``DEFAULT_MAX_BYTES``, covers the build and
the summed indexes each.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
import os
import struct
from dataclasses import dataclass

from .board import Board, _offsets, _row_steps, _table, _untimed, check_dimensions
from .errors import ParseError, ResourceLimitError

__all__ = [
    "PatternDatabase",
    "PatternHeuristic",
    "pdb_heuristic",
    "save_pdb",
    "load_pdb",
]

MAGIC = b"SPDB"
VERSION = 1
# The 8-byte head: magic, version, width, height and pattern size k.
_HEAD = struct.Struct("<4sBBBB")
MAX_PATTERN_TILES = 8
UNREACHED = 0xFF

# The one memory ceiling, in bytes: a build's P(n,k)·(n+2) bytes, the
# summed n^k bytes of PatternHeuristic's indexes, and upper bounds on the
# per-shape tables of :mod:`.heuristics`.
DEFAULT_MAX_BYTES = 1 << 27

NOT_A_HEURISTIC = (
    "heuristic must be a name, a PatternDatabase, a list of them, "
    "or a PatternHeuristic"
)


def rank_weights(n: int, k: int) -> tuple[int, ...]:
    """Mixed-radix weights for ranking ordered k-selections of n cells."""
    return tuple(math.perm(n - 1 - i, k - 1 - i) for i in range(k))


def _check_pattern(width: int, height: int, tiles) -> None:
    """The one validation of a board shape and an ascending tile subset."""
    check_dimensions(width, height)
    k = len(tiles)
    if list(tiles) != sorted(set(tiles)):
        raise ValueError("pattern tiles must be distinct and ascending")
    if k < 1 or k > MAX_PATTERN_TILES:
        raise ValueError(f"pattern size must be 1..{MAX_PATTERN_TILES}, got {k}")
    if tiles[0] < 1 or tiles[-1] > width * height - 1:
        raise ValueError("pattern tiles must be non-blank labels 1..n-1")
    if width > 255 or height > 255 or tiles[-1] > 255:
        raise ValueError("the SPDB format stores dimensions and tile labels up to 255")


def _check_bytes(what: str, need: int) -> None:
    """Raise ``ResourceLimitError`` when ``need`` bytes pass
    ``DEFAULT_MAX_BYTES``, read at the call."""
    if need > DEFAULT_MAX_BYTES:
        raise ResourceLimitError(f"{what} {need} bytes, over the {DEFAULT_MAX_BYTES}-byte ceiling")


@dataclass(frozen=True)
class PatternDatabase:
    """Admissible distance table for one tile subset on one board size."""

    width: int
    height: int
    pattern_tiles: tuple[int, ...]
    table: bytes

    def __post_init__(self):
        object.__setattr__(self, "pattern_tiles", tuple(self.pattern_tiles))
        _check_pattern(self.width, self.height, self.pattern_tiles)
        if not isinstance(self.table, bytes):  # hashable; bytes(int) would be zeros
            object.__setattr__(self, "table", bytes(memoryview(self.table)))
        expected = math.perm(self.size, len(self.pattern_tiles))
        if len(self.table) != expected:
            raise ValueError(
                f"table holds {len(self.table)} entries, expected {expected}"
            )
        # IDA* stops only where h is 0, so a nonzero goal entry would hide the
        # goal. The home cells ascend: the i-th has i smaller cells before it.
        w = rank_weights(self.size, len(self.pattern_tiles))
        if self.table[sum((t - 1 - i) * w[i] for i, t in enumerate(self.pattern_tiles))]:
            raise ValueError("table gives the goal placement a nonzero distance")

    @property
    def size(self) -> int:
        return self.width * self.height


def _positional_index(table: bytes, n: int, k: int, tick=_untimed) -> bytearray:
    """``table`` re-keyed by the cells as base-n digits, UNREACHED elsewhere.

    Rank order is lexicographic, so each placement of the first k - 2
    tiles (from permutations(), in rank order) owns the next f(f - 1)
    entries, the last two tiles over the f = n - k + 2 free cells in
    lexicographic order: one block of n² bytes once the used cells are
    filled in. One ``operator.itemgetter`` per set of used cells lays a
    block out, reading a trailing UNREACHED where a cell is used or
    repeated. Each table entry is a step of work for ``tick`` (see
    :func:`~permpuzzle.board._table`), read before each block. A 1-tile
    table is its own index.
    """
    if k == 1:
        return bytearray(table)
    index = bytearray([UNREACHED]) * n**k
    f, rank, getters, pad, due = n - k + 2, 0, {}, bytes([UNREACHED]), 0
    entries, strides = f * (f - 1), [n ** (k - 1 - j) for j in range(k - 2)]
    # spot[i][j]: the offset in a block's entries of the i-th free cell's
    # tile, then the j-th's; ``entries``, the trailing ``pad``, where i = j
    # or either is f, which stands for a used cell.
    spot = [[i * (f - 1) + j - (j > i) if i != j and i < f > j else entries
             for j in range(f + 1)] for i in range(f + 1)]
    for prefix in itertools.permutations(range(n), k - 2):
        if rank >= due:
            due = tick(rank)
        used = frozenset(prefix)
        get = getters.get(used)
        if get is None:
            ranks = {c: i for i, c in enumerate(c for c in range(n) if c not in used)}
            by_cell = operator.itemgetter(*(ranks.get(c, f) for c in range(n)))
            rows = by_cell(list(map(by_cell, spot)))
            get = getters[used] = operator.itemgetter(*itertools.chain.from_iterable(rows))
        at = sum(map(operator.mul, prefix, strides))
        index[at : at + n * n] = bytes(get(table[rank : rank + entries] + pad))
        rank += entries
    return index


def _pattern_indexes(width: int, height: int, patterns, tick=_untimed):
    """``(pattern_tiles, index)`` for each ``(pattern_tiles, table)`` of
    ``patterns``: a builder for the store (``board._table``), keyed by
    tiles and tables, which CPython hashes in C, so equal databases share
    their indexes. Indexes whose summed bytes would pass
    ``DEFAULT_MAX_BYTES`` raise ``ResourceLimitError`` before any is built.
    Each index reads ``tick`` at once, then every 2048 table entries."""
    n = width * height
    _check_bytes("pattern indexes need", sum(n ** len(t) for t, _ in patterns))
    return tuple((tiles, _positional_index(table, n, len(tiles), tick)) for tiles, table in patterns)


def _same(width: int, height: int, patterns):
    """``patterns`` itself: a store builder, so every heuristic over equal
    databases keys the store by the first one's tuple, which a read then
    matches by identity, not by comparing every table byte by byte."""
    return patterns


def _pattern_steps(width: int, height: int, patterns, tick=_untimed):
    """The step table of the summed ``patterns``, a store builder over
    their stored :func:`_pattern_indexes`. A slide from ``j`` into ``z``
    moves the key of the database holding the tile by ``z - j`` times
    the tile's stride, so four rows, one per direction, serve. ``tick``
    reads a deadline once per cell of :func:`~permpuzzle.board._row_steps`."""
    # Unchecked: 1-byte shapes and labels cap it near 46 MB, under the ceiling.
    n = width * height
    rows = [[0] * (n + 1) for _ in range(4)]
    indexes = _table(_pattern_indexes, width, height, patterns)
    for row, offset in zip(rows, _offsets(width)):  # j - z for U, D, L, R
        for s, (tiles, index) in enumerate(indexes):
            for slot, t in enumerate(tiles):
                row[t] = (0, s, -offset * n ** (len(tiles) - 1 - slot), index, ())
    return _row_steps(width, height, lambda z, d, j: rows[d], tick)


def _databases(databases) -> tuple[PatternDatabase, ...]:
    """``databases`` as a tuple of one or more :class:`PatternDatabase`,
    hashable as a store key, or ``ValueError``."""
    try:
        databases = tuple(databases)
    except TypeError:  # not iterable
        raise ValueError(NOT_A_HEURISTIC) from None
    if not databases:
        raise ValueError("at least one pattern database required")
    if not all(isinstance(db, PatternDatabase) for db in databases):
        raise ValueError(NOT_A_HEURISTIC)
    return databases


class PatternHeuristic:
    """Sum of disjoint pattern databases, reusable across solves.

    It checks and keeps its databases, and keys the store by the tables
    of the first heuristic over equal ones (:func:`_same`). Its first
    lookup, within a solve's ``max_time`` when IDA* makes it, expands
    each into a positional index of n^k bytes, kept in the one table
    store (:func:`_pattern_indexes`) for the life of the process and
    shared by every heuristic over equal databases:
    ``index[c_0·n^(k-1) + c_1·n^(k-2) + ... + c_(k-1)]`` holds the table
    entry of the placement that puts pattern tile i on cell c_i (entries
    for repeated cells are never read). Moving one tile then shifts the
    key by a fixed stride, so the IDA* update costs one register update
    and two byte reads instead of two rankings. The index costs n^k
    bytes per database: 65,536 for k=4 on 4x4 (the table holds 43,680),
    16.7 MB for k=6. Every table is indexed; there is no rank-order
    read. A lookup whose indexes together would pass
    ``DEFAULT_MAX_BYTES`` raises ``ResourceLimitError``.
    """

    def __init__(self, databases):
        databases = _databases(databases)
        dims = {(db.width, db.height) for db in databases}
        if len(dims) != 1:
            raise ValueError(f"databases built for mixed dimensions {sorted(dims)}")
        covered: set[int] = set()
        for db in databases:
            overlap = covered & set(db.pattern_tiles)
            if overlap:
                raise ValueError(
                    f"patterns overlap on tiles {sorted(overlap)}; "
                    "additivity requires disjoint patterns"
                )
            covered |= set(db.pattern_tiles)
        self.databases = databases
        self.width, self.height = dims.pop()
        # The store's key for these databases' tables, the first equal one.
        patterns = tuple((db.pattern_tiles, db.table) for db in databases)
        self._patterns = _table(_same, self.width, self.height, patterns)

    def incremental(self, board: Board, tick=_untimed):
        """This heuristic as ``(h0, steps, regs)``: the one lookup, whose
        h0 a call returns. ``regs`` holds a key per database; the first
        lookup indexes the databases under ``tick``, a search's deadline.
        ``steps`` is the store key of the step table, which
        ``board._table(*steps, tick=...)`` reads or builds
        (:func:`_pattern_steps`)."""
        self.check_shape(board)
        n = board.size
        position = [0] * (n + 1)
        for cell, label in enumerate(board.cells):
            position[label] = cell
        h0, keys = 0, []
        for tiles, index in _table(_pattern_indexes, self.width, self.height, self._patterns, tick=tick):
            i = 0
            for x in tiles:
                i = i * n + position[x]
            h0 += index[i]
            keys.append(i)
        return h0, (_pattern_steps, self.width, self.height, self._patterns), keys

    def check_shape(self, board: Board) -> None:
        """Raise ``ValueError`` unless ``board`` has this heuristic's shape."""
        if (board.width, board.height) != (self.width, self.height):
            raise ValueError(
                f"heuristic is for {self.width}x{self.height}, "
                f"board is {board.width}x{board.height}"
            )

    def __call__(self, board: Board) -> int:
        return self.incremental(board)[0]


def pdb_heuristic(board: Board, databases) -> int:
    """Summed lookup across pairwise-disjoint databases; admissible."""
    return PatternHeuristic(databases)(board)


def save_pdb(db: PatternDatabase, destination) -> None:
    """Write the bit-exact on-disk form atomically, holding no second copy
    of the table; ``load_pdb`` inverts it."""
    head = _HEAD.pack(MAGIC, VERSION, db.width, db.height, len(db.pattern_tiles))
    head += bytes(db.pattern_tiles) + struct.pack("<Q", len(db.table))
    # Write a sibling temp file, then rename it over the destination, so
    # a failed write never leaves a partial or clobbered file behind. The
    # head and the table are written apart, so no joined copy is made.
    destination = os.fspath(destination)
    temp = f"{destination}.{os.urandom(4).hex()}.tmp"
    fh = open(temp, "xb")
    try:
        with fh:
            fh.write(head)
            fh.write(db.table)
        os.replace(temp, destination)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temp)
        raise


def load_pdb(source) -> PatternDatabase:
    """Read the file :func:`save_pdb` writes. The header is read first,
    then the rest of the file in one read sized from it, which is the
    table itself unless bytes trail it, so no second copy is held. A bad
    magic or version, a truncated header or table, a length that does not
    match the shape, trailing bytes or an invalid table raise
    ``ParseError``."""
    # Unbuffered: a buffered reader would join its read-ahead to the rest.
    with open(os.fspath(source), "rb", buffering=0) as fh:
        head = fh.read(_HEAD.size)
        magic, version, width, height, k = _HEAD.unpack(head) if len(head) == _HEAD.size else (None,) * 5
        if magic != MAGIC:
            raise ParseError("not a pattern database: bad magic")
        if version != VERSION:
            raise ParseError(f"unsupported pattern database version {version}")
        head = fh.read(k + 8)
        if len(head) < k + 8:
            raise ParseError("truncated pattern database header")
        tiles = tuple(head[:k])
        (table_len,) = struct.unpack_from("<Q", head, k)
        expected = math.perm(width * height, k) if k <= width * height else -1
        if table_len != expected:
            raise ParseError(
                f"table length {table_len} does not match "
                f"{width}x{height} pattern of size {k}"
            )
        table = fh.read()
    if len(table) < table_len:
        raise ParseError(
            f"truncated table: expected {table_len} bytes, got {len(table)}"
        )
    if len(table) > table_len:
        raise ParseError("trailing bytes after table")
    try:
        return PatternDatabase(width, height, tiles, table)
    except ValueError as exc:
        raise ParseError(f"invalid pattern database: {exc}") from None
