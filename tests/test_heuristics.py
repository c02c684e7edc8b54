from __future__ import annotations

import gc
import hashlib
import math
import random
import tracemalloc
from itertools import combinations, permutations

import pytest

from permpuzzle import (
    Board,
    Move,
    ResourceLimitError,
    ida_star,
    linear_conflict,
    manhattan,
    pattern_db,
    scramble,
)
from permpuzzle import heuristics
from permpuzzle.board import _blank_steps, _table, format_moves
from permpuzzle.heuristics import (
    _conflict_table,
    _lines,
    _step_table,
    _table_bytes,
    goal_tables,
    line_conflicts,
)

from oracles import tile_taxicab


class TestManhattan:
    def test_goal_is_zero(self):
        assert manhattan(Board.goal(4, 4)) == 0

    def test_lloyd(self, lloyd_board):
        assert manhattan(lloyd_board) == 2

    def test_one_move_from_goal(self):
        assert manhattan(Board.goal(4, 4).apply_move(Move.UP)) == 1

    def test_zero_only_at_goal(self):
        for cells in permutations(range(1, 7)):
            b = Board(3, 2, cells)
            assert (manhattan(b) == 0) == b.is_goal()

    def test_matches_per_tile_oracle(self):
        # An offset layout that mixes up rows and columns breaks first when w != h.
        rng = random.Random(31)
        for width, height, boards in [(4, 4, 300), (2, 5, 100), (5, 2, 100), (3, 7, 100),
                                      (7, 3, 100), (2, 1000, 3), (1000, 2, 3)]:
            for _ in range(boards):
                cells = list(range(1, width * height + 1))
                rng.shuffle(cells)
                b = Board(width, height, tuple(cells))
                assert manhattan(b) == tile_taxicab(b.cells, width, height), (width, height)


class TestLinearConflict:
    def test_goal_is_zero(self):
        assert linear_conflict(Board.goal(4, 4)) == 0

    def test_lloyd(self, lloyd_board):
        # Manhattan 2 plus the single row conflict between 14 and 15.
        assert linear_conflict(lloyd_board) == 4

    def test_equals_manhattan_without_same_line_pairs(self):
        *_, goal_row, goal_col = goal_tables(3, 2)
        for cells in permutations(range(1, 7)):
            b = Board(3, 2, cells)
            rows_ok = all(
                sum(goal_row[t] == r for t in cells[r * 3 : r * 3 + 3]) < 2
                for r in range(2)
            )
            cols_ok = all(
                sum(goal_col[t] == c for t in cells[c::3]) < 2 for c in range(3)
            )
            if rows_ok and cols_ok:
                assert linear_conflict(b) == manhattan(b)

    def test_dominates_manhattan(self):
        for cells in permutations(range(1, 7)):
            b = Board(3, 2, cells)
            assert linear_conflict(b) >= manhattan(b)

    def test_admissible_on_exhaustive_2x3(self, dist_2x3):
        for cells, d in dist_2x3.items():
            b = Board(3, 2, cells)
            assert manhattan(b) <= linear_conflict(b) <= d

    def test_admissible_on_sampled_3x3(self, dist_3x3, solvable_3x3_states):
        rng = random.Random(47)
        for cells in rng.sample(solvable_3x3_states, 3000):
            b = Board(3, 3, cells)
            assert manhattan(b) <= linear_conflict(b) <= dist_3x3[cells]

    def test_triple_reversal_stays_admissible(self, dist_3x3):
        # Fully reversed goal row: a pairwise conflict count would claim
        # +6 and overshoot the true distance; the removal count says +4.
        cells = (7, 8, 9, 6, 5, 4, 1, 2, 3)
        b = Board(3, 3, cells)
        assert linear_conflict(b) <= dist_3x3[cells]

    # h of scramble(w, h, 5·n, seed) for seeds 0-4, and the sha256 of the
    # repr() of their five lists of line keys (rows, then columns), read
    # while every goal line kept a tuple of n + 1 codes.
    PINNED = {
        (3, 3): ((21, 17, 15, 15, 17),
                 "56e232f415f08c6e99b6bf3603557c21ece0bb44ebbcc5a4b62cb637ff61da95"),
        (4, 4): ((32, 22, 36, 38, 20),
                 "5e4a0c44600aa58b5a43289bca922ba73ab29df15c9d94b64cf123a784b1698b"),
        (5, 3): ((25, 35, 33, 31, 27),
                 "338bbf48021d87e6b1e91c7ec8ab6d967a39df364f3f457dd64358a389fb8b1c"),
        (3, 5): ((39, 23, 29, 29, 19),
                 "2baacf447b3fc8aff8a30b9b19301f2aea65039ec4a3e6165acbc56763dcbc86"),
        (2, 8): ((22, 24, 26, 28, 22),
                 "0f71471400f0338dfaff86871eff98c54073b00f97589e090bb4c96aa1f0ff21"),
        (8, 2): ((28, 22, 20, 26, 28),
                 "5ce2ecfa1a24ba5544afaddce01dbf247abbc5f11ad86876e39b1bf51990726c"),
        (20, 20): ((906, 880, 904, 904, 908),
                   "c675547aa5139a04daf7c61dbfa7327f7a8eb70b33910a7675c3103f9875d744"),
    }

    @pytest.mark.parametrize("width, height", sorted(PINNED))
    def test_values_and_line_keys_pinned(self, width, height):
        values, keys = [], []
        for seed in range(5):
            board = scramble(width, height, 5 * width * height, seed)[0]
            h0, line_keys = heuristics._linear_conflict(board)
            assert h0 == linear_conflict(board)
            values.append(h0)
            keys.append(line_keys)
        digest = hashlib.sha256(repr(keys).encode()).hexdigest()
        assert (tuple(values), digest) == self.PINNED[width, height]

    @pytest.mark.parametrize("width, height", [(2, 3000), (3000, 2)])
    def test_long_lines_need_memory_linear_in_the_board(self, width, height, empty_store):
        """Lines of 3000 cells, each holding about half its own tiles in a
        random order: goal lines of (w+h)·(n+1) codes, 144 MB here, were
        refused at the ceiling. The traced peak, per-shape tables included,
        stays under 512 bytes per cell; do not raise this bound."""
        n = width * height
        cells = list(range(1, n + 1))
        rng = random.Random(5)
        rows = [slice(r * width, (r + 1) * width) for r in range(height)]
        cols = [slice(c, n, width) for c in range(width)]
        for line in rows + cols:
            part = cells[line]
            rng.shuffle(part)
            cells[line] = part
        board = Board(width, height, tuple(cells))
        tracemalloc.start()
        try:
            value = linear_conflict(board)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * n
        # A tile's goal (row, column) is divmod(label - 1, width); the blank has none.
        expected = tile_taxicab(cells, width, height)
        for r, line in enumerate(rows):
            expected += line_conflicts([(t - 1) % width + 1 if t < n and (t - 1) // width == r
                                        else 0 for t in cells[line]])
        for c, line in enumerate(cols):
            expected += line_conflicts([(t - 1) // width + 1 if t < n and (t - 1) % width == c
                                        else 0 for t in cells[line]])
        assert value == expected > tile_taxicab(cells, width, height)


def line_codes(length: int):
    """Every code sequence a line of ``length`` cells can hold: distinct
    goal coordinates 1..length at some cells, 0 at the others."""
    for k in range(length + 1):
        for cells in combinations(range(length), k):
            for coords in permutations(range(1, length + 1), k):
                codes = [0] * length
                for cell, coord in zip(cells, coords):
                    codes[cell] = coord
                yield codes


def fewest_leavers(codes) -> int:
    """Brute force: the fewest tiles to take out so the rest are in order."""
    coords = [c for c in codes if c]
    for keep in range(len(coords), 0, -1):
        if any(list(s) == sorted(s) for s in combinations(coords, keep)):
            return len(coords) - keep
    return 0


def key_codes(key: int, length: int) -> list[int]:
    """The codes of a line key, first cell first."""
    return [key // (length + 1) ** (length - 1 - i) % (length + 1) for i in range(length)]


def line_key_count(length: int) -> int:
    """How many code sequences a line of ``length`` cells can hold."""
    return sum(math.comb(length, k) * math.perm(length, k) for k in range(length + 1))


class TestConflictTable:
    COUNTS = {2: 7, 3: 34, 4: 209, 5: 1546, 6: 13327}

    @pytest.mark.parametrize("length", sorted(COUNTS))
    def test_every_line_key_reads_its_conflicts(self, length):
        table = _conflict_table(length)
        keys = set()
        for codes in line_codes(length):
            key = 0
            for code in codes:
                key = key * (length + 1) + code
            keys.add(key)
            assert table[key] == line_conflicts(codes) == 2 * fewest_leavers(codes), codes
        assert len(keys) == self.COUNTS[length] == line_key_count(length)
        if length > 5:  # a self-filling table holds the keys read, no more
            assert len(table) == self.COUNTS[length]

    def test_line_conflicts_on_long_lines(self):
        """Patience sorting against the brute-force count on lines of up to
        300 cells: short ones in any order, long ones with at most two
        tiles moved, so at most two leave and the brute force stays quick."""
        rng = random.Random(11)
        for length in [*range(2, 11), *rng.sample(range(11, 300), 40), 300]:
            coords = rng.sample(range(1, length + 1), rng.randint(0, length))
            if length > 10:
                coords.sort()
                for _ in range(min(2, len(coords))):
                    coords.insert(rng.randrange(len(coords)), coords.pop(rng.randrange(len(coords))))
            codes = [0] * length
            for cell, coord in zip(sorted(rng.sample(range(length), len(coords))), coords):
                codes[cell] = coord
            assert line_conflicts(codes) == 2 * fewest_leavers(codes), codes

    @pytest.mark.parametrize("length", range(2, 9))
    def test_table_answers_every_key(self, length):
        """Up to 5 cells, a list of every key's conflicts; past them, a
        dict that starts empty and stores each key on its first read."""
        table = _conflict_table(length)
        if length <= 5:
            assert type(table) is list
            assert len(table) == (length + 1) ** length
            for key, value in enumerate(table):
                assert value == line_conflicts(key_codes(key, length)), key
        else:
            assert isinstance(table, dict)
            assert not table
            key = (2 * (length + 1) + 1) * (length + 1) ** (length - 2)  # codes 2, 1, 0, ...
            assert table[key] == 2
            assert table == {key: 2}

    # Moves and IDA* expansions of the default heuristic, read when each
    # table was a dict subclass that filled a key on its first read.
    SOLVES = {
        (5, 3, 30, 3): ("D L U U L L D D R R R U R U L D L L D R R R", 224),
        (3, 5, 30, 3): ("L U L U U U R R D D L L U R R D D D L L U U R R D L D R", 103),
        (8, 2, 40, 1): (
            "U L D R R R U L D R R R U L D R R R U L L L D R R U R D L L U R R D",
            12495,
        ),
    }

    def test_search_fills_only_real_line_keys(self):
        """Rows and columns of unequal length, and 8-cell rows, whose
        conflict table fills as the search reads keys, each with its
        conflicts."""
        for length in range(6, 9):
            _table(_conflict_table, length).clear()
        for (width, height, steps, seed), pinned in self.SOLVES.items():
            result = ida_star(scramble(width, height, steps, seed)[0])
            assert (format_moves(result.moves), result.nodes_expanded) == pinned
        for length in range(6, 9):
            table = _table(_conflict_table, length)
            assert bool(table) == (length == 8)  # the only solved line over 5 cells
            assert len(table) <= line_key_count(length)
            for key, value in table.items():
                assert 0 <= key < (length + 1) ** length
                codes = key_codes(key, length)
                coords = [c for c in codes if c]
                assert len(set(coords)) == len(coords), codes
                assert value == line_conflicts(codes), codes


class TestTableCeiling:
    """On 3x3 the Manhattan step table is bounded by 7264 bytes and the
    linear-conflict step table by 40,576."""

    def test_manhattan_steps_at_the_ceiling(self, monkeypatch, empty_store):
        board = Board.goal(3, 3).apply_move(Move.UP)
        monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", 7264)
        assert ida_star(board, "manhattan").length == 1
        empty_store.clear()
        monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", 7263)
        with pytest.raises(ResourceLimitError, match="Manhattan step table needs 7264 bytes"):
            ida_star(board, "manhattan")
        # manhattan() alone reads only tables of O(n) entries, charged on
        # their own: 3112 bytes here.
        assert manhattan(board) == 1

    def test_move_table_at_the_ceiling(self, monkeypatch, empty_store):
        board = Board.goal(3, 3).apply_move(Move.UP)
        monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", 40576)
        assert ida_star(board, "linear-conflict").length == 1
        empty_store.clear()
        monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", 40575)
        with pytest.raises(ResourceLimitError, match="step table needs 40576 bytes"):
            ida_star(board, "linear-conflict")
        # Manhattan's smaller tables still fit.
        assert ida_star(board, "manhattan").length == 1

    @staticmethod
    def goal_tables_need(monkeypatch, width, height) -> int:
        """The bytes goal_tables charges for the shape, read from its
        refusal under a ceiling of 0."""
        monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", 0)
        with pytest.raises(ResourceLimitError, match="goal tables need") as exc:
            goal_tables(width, height)
        monkeypatch.undo()
        return int(str(exc.value).split()[3])

    def test_goal_tables_at_the_ceiling(self, monkeypatch, empty_store):
        # Bare manhattan() and linear_conflict() are refused before the
        # shape's O(n) tables are built, and build them at the ceiling.
        board = Board.goal(3, 3).apply_move(Move.UP)
        need = self.goal_tables_need(monkeypatch, 3, 3)
        monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", need - 1)
        for value in (manhattan, linear_conflict):
            with pytest.raises(ResourceLimitError, match=f"goal tables need {need} bytes"):
                value(board)
        assert empty_store == {}
        monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", need)
        assert manhattan(board) == linear_conflict(board) == 1

    def test_goal_tables_past_the_ceiling_are_not_allocated(self, empty_store):
        # 700x700 has 490,000 cells; a 1000x1000 board traced 302 MB here
        # before the tables were charged.
        board = Board.goal(700, 700)
        tracemalloc.start()
        try:
            for value in (manhattan, linear_conflict):
                with pytest.raises(ResourceLimitError, match="goal tables need"):
                    value(board)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 16

    @pytest.mark.parametrize("width, height", [(154, 154), (2, 2025), (2025, 2), (36, 36), (2, 216)])
    def test_goal_tables_fit_every_step_table(self, width, height, monkeypatch):
        # Every shape whose Manhattan or linear-conflict step table fits.
        assert self.goal_tables_need(monkeypatch, width, height) <= pattern_db.DEFAULT_MAX_BYTES
        assert _table_bytes(width, height)[0] <= pattern_db.DEFAULT_MAX_BYTES

    @pytest.mark.parametrize("width, height", [(2, 2), (5, 3), (2, 300), (40, 40), (154, 154)])
    def test_goal_tables_bound_covers_what_is_allocated(self, width, height, monkeypatch):
        need = self.goal_tables_need(monkeypatch, width, height)
        tracemalloc.start()
        try:
            tables = goal_tables(width, height)
            size = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(tables[0]) == (2 * width - 1) * (2 * height - 1)
        assert size <= need

    @pytest.mark.parametrize("width, height", [(64, 64), (2, 1000)])
    def test_manhattan_searches_past_the_old_distance_table(self, width, height):
        assert ida_star(scramble(width, height, 4, 1)[0], "manhattan").length == 4

    @pytest.mark.parametrize("width, height, fits", [(155, 155, (154, 154)), (2, 2026, (2, 2025))])
    def test_manhattan_step_table_refused_before_it_is_built(self, width, height, fits, empty_store):
        board = scramble(width, height, 4, 1)[0]
        need = _table_bytes(width, height)[0]
        assert _table_bytes(*fits)[0] <= pattern_db.DEFAULT_MAX_BYTES < need
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"Manhattan step table needs {need} bytes"):
                ida_star(board, "manhattan")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < need // 100

    @pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
    def test_step_table_leaves_the_collector_as_it_was(self, monkeypatch, empty_store, collecting):
        """The build pauses the cyclic collector and restores the caller's
        state after a build, a refusal at the ceiling and a failed build."""
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            _step_table(4, 4, True)
            assert gc.isenabled() is collecting
            empty_store.clear()
            monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", 40575)
            with pytest.raises(ResourceLimitError):
                _step_table(3, 3, True)
            assert gc.isenabled() is collecting
            monkeypatch.undo()
            during = []

            def failing(*args):
                during.append(gc.isenabled())
                raise MemoryError

            monkeypatch.setattr(heuristics, "_row_steps", failing)
            with pytest.raises(MemoryError):
                _step_table(3, 3, True)
            assert during == [False] and gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("width, height", [(2, 2), (5, 3), (3, 5), (2, 7), (10, 10), (2, 60)])
    def test_bounds_cover_what_is_allocated(self, width, height, empty_store):
        # Shared by every search or every shape, or O(n): charged to none.
        _table(_blank_steps, width, height)
        _table(goal_tables, width, height)
        _table(_lines, width, height)
        tracemalloc.start()
        try:
            _table(_step_table, width, height, False)
            steps = tracemalloc.get_traced_memory()[0]
            _table(_step_table, width, height, True)
            total = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert steps <= _table_bytes(width, height)[0]
        assert total - steps <= _table_bytes(width, height)[1]
