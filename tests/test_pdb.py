from __future__ import annotations

import errno
import hashlib
import io
import itertools
import math
import os
import random
import struct
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from permpuzzle import (
    Board,
    ParseError,
    PatternDatabase,
    PatternHeuristic,
    ResourceLimitError,
    bfs_optimal,
    build_pdb,
    ida_star,
    load_pdb,
    pdb_heuristic,
    save_pdb,
)
from permpuzzle import pattern_db

from oracles import exact_distances, pattern_table


@st.composite
def small_patterns(draw):
    """A shape and an ascending 1-4 tile pattern on it."""
    width, height = draw(st.sampled_from([(2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]))
    labels = range(1, width * height)
    tiles = draw(st.lists(st.sampled_from(labels), min_size=1, max_size=4, unique=True))
    return width, height, tuple(sorted(tiles))


class TestBuild:
    def test_full_complement_2x2_table_size(self):
        db = build_pdb(2, 2, [1, 2, 3])
        assert len(db.table) == math.perm(4, 3) == 24

    def test_goal_entry_is_zero(self):
        db = build_pdb(2, 2, [1, 2, 3])
        assert db.lookup(Board.goal(2, 2)) == 0

    def test_full_complement_2x2_is_exact(self):
        # All tiles in one pattern means every move is a counted move.
        db = build_pdb(2, 2, [1, 2, 3])
        for cells, d in exact_distances(2, 2).items():
            assert db.lookup(Board(2, 2, cells)) == d

    def test_3x3_entries_bounded_by_diameter(self):
        db = build_pdb(3, 3, [1, 2, 3])
        assert max(db.table) <= 31

    def test_pattern_tiles_sorted(self):
        db = build_pdb(3, 3, [4, 2, 1])
        assert db.pattern_tiles == (1, 2, 4)

    def test_disjoint_pair_admissible(self, dist_3x3, solvable_3x3_states):
        dbs = [build_pdb(3, 3, [1, 2, 3, 4]), build_pdb(3, 3, [5, 6, 7, 8])]
        rng = random.Random(13)
        for cells in rng.sample(solvable_3x3_states, 500):
            b = Board(3, 3, cells)
            assert pdb_heuristic(b, dbs) <= dist_3x3[cells]

    def test_rejects_blank_label(self):
        with pytest.raises(ValueError):
            build_pdb(3, 3, [1, 9])

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            build_pdb(3, 3, [1, 1])

    def test_rejects_empty_and_oversized_patterns(self):
        with pytest.raises(ValueError):
            build_pdb(3, 3, [])
        with pytest.raises(ValueError):
            build_pdb(4, 4, list(range(1, 10)))

    def test_rejects_shapes_below_2x2(self):
        for width, height in ((1, 5), (5, 1)):
            with pytest.raises(ValueError, match="at least 2x2"):
                build_pdb(width, height, [1])
            with pytest.raises(ValueError, match="at least 2x2"):
                PatternDatabase(width, height, (1,), b"\x00" * 5)

    def test_rejects_shapes_the_format_cannot_store(self):
        # Width, height and tile labels are single bytes in an SPDB file.
        for width, height, tiles in ((256, 2, [1]), (2, 256, [1]), (20, 20, [300])):
            with pytest.raises(ValueError, match="up to 255"):
                build_pdb(width, height, tiles)
        PatternDatabase(255, 2, (1,), bytes(510))

    @settings(max_examples=60, deadline=None)
    @given(small_patterns())
    def test_matches_dict_oracle_byte_for_byte(self, pattern):
        width, height, tiles = pattern
        assert build_pdb(width, height, tiles).table == pattern_table(width, height, tiles)

    @pytest.mark.parametrize(
        "tiles, digest",
        [
            ((1, 2, 5, 6), "9d9d2304ca726402af2e1dee923e16e04303bbf83b8c264e0e2c82d240895405"),
            ((11, 12, 15), "44e4fcaa72eeeb6a662c89cca24c3388c9466f15790f1379445f3f05d7293fb0"),
        ],
        ids=["1,2,5,6", "11,12,15"],
    )
    def test_4x4_table_digest_pinned(self, tiles, digest):
        # Read from the dict-based builder these tables were first made with.
        assert hashlib.sha256(build_pdb(4, 4, tiles).table).hexdigest() == digest

    @pytest.mark.parametrize("width, height, tiles", [(3, 3, [1, 2, 3, 4]), (2, 2, [1, 2, 3])])
    def test_progress_once_per_layer(self, width, height, tiles):
        calls = []
        db = build_pdb(width, height, tiles, progress=lambda *layer: calls.append(layer))
        assert [d for d, _, _ in calls] == list(range(len(calls)))
        assert calls[-1][0] == max(b for b in db.table if b != 0xFF)
        assert calls[-1][1] == len(db.table) - db.table.count(0xFF)
        placements = [p for _, p, _ in calls]
        states = [s for _, _, s in calls]
        assert placements == sorted(placements) and states == sorted(states)

    def test_runs_past_distance_255(self):
        # Tile 1's far corner on 255x3 is 256 slides from home.
        table = build_pdb(255, 3, [1]).table
        assert table.count(0xFF) == 0
        assert table[2 * 255 + 254] == 0xFE

    def test_state_guard(self):
        # P(16,7)·18 bytes is 1.04 GB, past the default ceiling.
        with pytest.raises(ResourceLimitError):
            build_pdb(4, 4, [1, 2, 3, 4, 5, 6, 7])

    def test_byte_ceiling_is_exact_and_checked_before_allocating(self):
        need = math.perm(16, 4) * 18
        tracemalloc.start()
        try:
            with pytest.raises(ResourceLimitError, match=f"needs {need} bytes"):
                build_pdb(4, 4, [1, 2, 5, 6], max_bytes=need - 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < math.perm(16, 4)
        assert len(build_pdb(4, 4, [1, 2, 5, 6], max_bytes=need).table) == math.perm(16, 4)

    def test_build_holds_only_its_byte_arrays(self):
        # The table, the seen array and the returned copy: P(16,4)·(16+2) bytes.
        tracemalloc.start()
        try:
            build_pdb(4, 4, [1, 2, 5, 6])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= math.perm(16, 4) * 18 + 8192


class TestHeuristic:
    def test_goal_is_zero(self):
        dbs = [build_pdb(3, 3, [1, 2, 3, 4]), build_pdb(3, 3, [5, 6, 7, 8])]
        assert pdb_heuristic(Board.goal(3, 3), dbs) == 0

    def test_overlapping_patterns_rejected(self):
        a = build_pdb(3, 3, [1, 2, 3])
        b = build_pdb(3, 3, [3, 4])
        with pytest.raises(ValueError, match="overlap"):
            pdb_heuristic(Board.goal(3, 3), [a, b])

    def test_mixed_dimensions_rejected(self):
        a = build_pdb(3, 3, [1, 2])
        b = build_pdb(2, 2, [1, 2])
        with pytest.raises(ValueError, match="dimensions"):
            PatternHeuristic([a, b])

    def test_board_dimension_mismatch_rejected(self):
        ph = PatternHeuristic([build_pdb(3, 3, [1, 2, 3])])
        with pytest.raises(ValueError):
            ph(Board.goal(2, 2))

    def test_empty_database_list_rejected(self):
        with pytest.raises(ValueError):
            PatternHeuristic([])

    def test_items_that_are_not_databases_rejected(self):
        db = build_pdb(3, 3, [1, 2])
        for items in (["manhattan"], [db, 7], [[db]]):
            with pytest.raises(ValueError, match="heuristic must be"):
                PatternHeuristic(items)
            with pytest.raises(ValueError, match="heuristic must be"):
                ida_star(Board.goal(3, 3), items)

    def test_positions_path_matches_board_path(self):
        ph = PatternHeuristic([build_pdb(3, 3, [2, 5, 7])])
        rng = random.Random(3)
        for _ in range(50):
            cells = list(range(1, 10))
            rng.shuffle(cells)
            b = Board(3, 3, tuple(cells))
            position = [0] * 10
            for cell, label in enumerate(cells):
                position[label] = cell
            assert ph(b) == ph.value_from_positions(position)


class TestPositionalIndex:
    """PatternHeuristic reads its own index, not the rank-ordered table."""

    @settings(max_examples=60, deadline=None)
    @given(small_patterns())
    def test_every_placement_reads_its_table_entry(self, pattern):
        width, height, tiles = pattern
        db = build_pdb(width, height, tiles)
        ph = PatternHeuristic([db])
        n = width * height
        weights = pattern_db.rank_weights(n, len(tiles))
        position = [0] * (n + 1)
        for cells in itertools.permutations(range(n), len(tiles)):
            for t, c in zip(tiles, cells):
                position[t] = c
            rank = pattern_db.rank_of_cells(cells, weights)
            assert ph.value_from_positions(position) == db.table[rank]

    @pytest.mark.parametrize("width, height", [(3, 3), (2, 4), (4, 2), (4, 4)])
    def test_sum_equals_summed_lookups(self, width, height):
        labels = list(range(1, width * height))
        dbs = [build_pdb(width, height, labels[i : i + 3]) for i in range(0, len(labels), 3)]
        ph = PatternHeuristic(dbs)
        rng = random.Random(width * 10 + height)
        for _ in range(200):
            cells = list(range(1, width * height + 1))
            rng.shuffle(cells)
            b = Board(width, height, tuple(cells))
            assert ph(b) == sum(db.lookup(b) for db in dbs)

    def test_index_size(self):
        db = build_pdb(4, 4, [1, 2, 5, 6])
        ((_, index),) = PatternHeuristic([db])._indexes
        assert len(index) == 16**4 and len(db.table) == 43680

    def test_indexes_over_the_byte_ceiling_refused(self, monkeypatch):
        dbs = [build_pdb(3, 3, [1, 2, 3]), build_pdb(3, 3, [4, 5])]
        monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", 9**3 + 9**2)
        PatternHeuristic(dbs)
        monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", 9**3 + 9**2 - 1)
        with pytest.raises(ResourceLimitError, match="ceiling"):
            PatternHeuristic(dbs)


class TestPersistence:
    def test_round_trip(self, tmp_path):
        db = build_pdb(3, 3, [1, 2, 3, 4])
        path = tmp_path / "p.spdb"
        save_pdb(db, path)
        assert load_pdb(path) == db

    def test_file_bytes_stable(self, tmp_path):
        db = build_pdb(3, 2, [1, 2, 3])
        a, b = tmp_path / "a.spdb", tmp_path / "b.spdb"
        save_pdb(db, a)
        save_pdb(load_pdb(a), b)
        assert a.read_bytes() == b.read_bytes()

    def test_header_layout(self, tmp_path):
        db = build_pdb(3, 2, [2, 4])
        path = tmp_path / "h.spdb"
        save_pdb(db, path)
        raw = path.read_bytes()
        assert raw[:4] == b"SPDB"
        assert raw[4] == 1
        assert (raw[5], raw[6], raw[7]) == (3, 2, 2)
        assert raw[8:10] == bytes([2, 4])
        (length,) = struct.unpack_from("<Q", raw, 10)
        assert length == math.perm(6, 2)
        assert len(raw) == 18 + length

    def test_save_leaves_no_temp_file(self, tmp_path):
        save_pdb(build_pdb(3, 2, [1, 2]), tmp_path / "p.spdb")
        assert os.listdir(tmp_path) == ["p.spdb"]

    def test_failed_write_keeps_destination(self, tmp_path, monkeypatch):
        path = tmp_path / "p.spdb"
        save_pdb(build_pdb(3, 2, [1, 2]), path)
        before = path.read_bytes()

        class FullDisk(io.FileIO):
            def write(self, data):
                super().write(data[: len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(pattern_db, "open", FullDisk, raising=False)
        with pytest.raises(OSError, match="No space"):
            save_pdb(build_pdb(3, 2, [1, 2, 3]), path)
        assert path.read_bytes() == before
        assert os.listdir(tmp_path) == ["p.spdb"]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.spdb"
        path.write_bytes(b"XPDB" + bytes(20))
        with pytest.raises(ParseError, match="magic"):
            load_pdb(path)

    def test_version_mismatch(self, tmp_path):
        db = build_pdb(3, 2, [1, 2])
        path = tmp_path / "v.spdb"
        save_pdb(db, path)
        raw = bytearray(path.read_bytes())
        raw[4] = 2
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="version"):
            load_pdb(path)

    def test_truncated_table(self, tmp_path):
        db = build_pdb(3, 2, [1, 2])
        path = tmp_path / "t.spdb"
        save_pdb(db, path)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(ParseError, match="truncated"):
            load_pdb(path)

    def test_trailing_garbage(self, tmp_path):
        db = build_pdb(3, 2, [1, 2])
        path = tmp_path / "g.spdb"
        save_pdb(db, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ParseError, match="trailing"):
            load_pdb(path)

    def test_declared_length_mismatch(self, tmp_path):
        db = build_pdb(3, 2, [1, 2])
        path = tmp_path / "m.spdb"
        save_pdb(db, path)
        raw = bytearray(path.read_bytes())
        struct.pack_into("<Q", raw, 10, 999)
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="length"):
            load_pdb(path)

    def test_bytearray_table_stored_as_bytes(self):
        table = build_pdb(3, 2, [1, 2, 3]).table
        db = PatternDatabase(3, 2, (1, 2, 3), bytearray(table))
        assert type(db.table) is bytes and db.table == table
        assert PatternDatabase(3, 2, (1, 2, 3), table).table is table
        b = Board(3, 2, (4, 1, 3, 6, 2, 5))
        assert ida_star(b, [db]).length == bfs_optimal(b).length

    def test_direct_constructor_validates(self):
        with pytest.raises(ValueError):
            PatternDatabase(3, 3, (1, 2), b"\x00" * 5)

    def test_nonzero_goal_entry_rejected(self, tmp_path):
        # IDA* would never recognise the goal under such a table.
        db = build_pdb(3, 2, [2, 4])
        weights = pattern_db.rank_weights(6, 2)
        goal = pattern_db.rank_of_cells([1, 3], weights)
        table = bytearray(db.table)
        table[goal] = 1
        with pytest.raises(ValueError, match="goal placement"):
            PatternDatabase(3, 2, (2, 4), bytes(table))
        path = tmp_path / "g.spdb"
        save_pdb(db, path)
        raw = bytearray(path.read_bytes())
        raw[len(raw) - len(table) + goal] = 1
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match="goal placement"):
            load_pdb(path)
