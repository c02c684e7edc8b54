from __future__ import annotations

import gc
import hashlib
import random
import time
from functools import partial
from types import SimpleNamespace

import pytest

from permpuzzle import (
    MOVE_ORDER,
    Board,
    Move,
    PatternHeuristic,
    ResourceLimitError,
    SearchLimits,
    UnsolvableError,
    bfs_optimal,
    build_pdb,
    format_moves,
    ida_star,
    linear_conflict,
    manhattan,
    scramble,
    verify_sequence,
)
from permpuzzle import pattern_db, solver
from permpuzzle.board import _blank_steps, _table
from permpuzzle.heuristics import _conflict_table, _lines, _step_table, goal_tables

from oracles import exact_distances, plain_ida_star, tile_taxicab


@pytest.fixture(scope="module")
def pdb_pair_3x3():
    return [build_pdb(3, 3, [1, 2, 3, 4]), build_pdb(3, 3, [5, 6, 7, 8])]


class TestBfsOptimal:
    def test_goal(self):
        result = bfs_optimal(Board.goal(3, 3))
        assert result.moves == ()
        assert result.length == 0

    def test_single_move(self):
        from permpuzzle import Move

        b = Board.goal(3, 3).apply_move(Move.UP)
        result = bfs_optimal(b)
        assert result.length == 1
        assert result.moves == (Move.DOWN,)

    def test_unsolvable_carries_certificate(self, lloyd_board):
        with pytest.raises(UnsolvableError) as exc:
            bfs_optimal(lloyd_board)
        assert exc.value.certificate is not None
        assert exc.value.certificate.solvable is False

    def test_exact_on_all_solvable_2x3(self, dist_2x3):
        for cells, d in dist_2x3.items():
            result = bfs_optimal(Board(3, 2, cells))
            assert result.length == d
            assert verify_sequence(Board(3, 2, cells), result.moves).solved

    def test_hardest_3x3_is_31(self, dist_3x3):
        cells = max(dist_3x3, key=dist_3x3.get)
        assert dist_3x3[cells] == 31
        assert bfs_optimal(Board(3, 3, cells)).length == 31

    def test_node_limit(self, dist_3x3):
        cells = max(dist_3x3, key=dist_3x3.get)
        with pytest.raises(ResourceLimitError) as exc:
            bfs_optimal(Board(3, 3, cells), SearchLimits(max_nodes=100))
        assert exc.value.nodes_expanded is not None

    def test_expired_deadline_stops_a_short_search(self):
        # Solved in few expansions, under the 2048 between clock reads. The
        # board lies 26 moves out, past the goal's ball of radius 23, so the
        # bound before the first layer is 0 + 23 + 1. The ball is built
        # first: a deadline already past would stop its build instead.
        b, _ = scramble(3, 3, 60, 2)
        _table(solver._goal_ball, 3, 3)
        with pytest.raises(ResourceLimitError) as exc:
            bfs_optimal(b, SearchLimits(max_time=0.0))
        assert exc.value.nodes_expanded == 1
        assert exc.value.lower_bound == 24

    def test_depth_limit(self):
        b, _ = scramble(3, 3, 40, 2)
        d = bfs_optimal(b).length
        if d > 1:
            with pytest.raises(ResourceLimitError):
                bfs_optimal(b, SearchLimits(max_depth=d - 1))

    @pytest.mark.parametrize("width, height", [(2, 3), (2, 4), (4, 2), (3, 3)])
    def test_exact_on_sampled_states(self, width, height, dist_3x3):
        # Every state of the boards with up to 8 cells (360 on 2x3, 20,160
        # on 2x4 and 4x2); 400 sampled 3x3 states.
        if (width, height) == (3, 3):
            dist = dist_3x3
            states = random.Random("bfs/3x3").sample(sorted(dist), 400)
        else:
            dist = exact_distances(width, height)
            states = dist
        for cells in states:
            b = Board(width, height, cells)
            result = bfs_optimal(b)
            assert result.length == dist[cells]
            assert verify_sequence(b, result.moves).solved

    def test_exact_at_the_goal_balls_edge(self, dist_3x3):
        # The 3x3 goal ball has radius 23: boards 22 moves out walk home
        # through two directions to a coded layer, boards 23 out read their
        # rim code, both with no expansion; boards 24 and 25 out meet the
        # rim from their first or second layer.
        checked = 0
        for cells, d in dist_3x3.items():
            if 22 <= d <= 25:
                b = Board(3, 3, cells)
                result = bfs_optimal(b)
                assert result.length == d
                assert (result.nodes_expanded == 0) == (d <= 23)
                assert verify_sequence(b, result.moves).solved
                checked += 1
        assert checked == 83801

    @pytest.mark.parametrize("d", [1, 2, 16, 17, 20, 21, 22, 23, 24, 31])
    def test_depth_limit_is_exact(self, d, dist_3x3, solvable_3x3_states):
        cells = next(c for c in solvable_3x3_states if dist_3x3[c] == d)
        b = Board(3, 3, cells)
        assert bfs_optimal(b, SearchLimits(max_depth=d)).length == d
        with pytest.raises(ResourceLimitError) as exc:
            bfs_optimal(b, SearchLimits(max_depth=d - 1))
        assert exc.value.lower_bound == d

    def test_node_limit_lower_bound_is_proven(self, dist_3x3, solvable_3x3_states):
        rng = random.Random(9)
        for cells in rng.sample(solvable_3x3_states, 60):
            for cap in (0, 7, 60, 400):
                try:
                    bfs_optimal(Board(3, 3, cells), SearchLimits(max_nodes=cap))
                except ResourceLimitError as exc:
                    assert 1 <= exc.lower_bound <= dist_3x3[cells]

    def test_goal_ball_is_built_outside_the_limits(self, dist_3x3, empty_store):
        # The shape's first query builds its ball, 116,088 states, under a
        # cap of no expansions; a board inside it unwinds with none.
        cells = next(c for c, d in dist_3x3.items() if d == 16)
        result = bfs_optimal(Board(3, 3, cells), SearchLimits(max_nodes=0))
        assert (result.length, result.nodes_expanded) == (16, 0)

    def test_deadline_read_while_the_goal_ball_is_built(self, monkeypatch, empty_store):
        # A clock that ticks one second per read. The build reads the
        # query's deadline on the search's cadence, expansions 1, 2049,
        # ..., and stops at the third read, past start + 2.5; it reports
        # no expansion, the bound 1, and keeps no ball.
        reads = []

        def perf_counter():
            reads.append(None)
            return float(len(reads))

        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=perf_counter))
        board = scramble(4, 4, 30, 0)[0]
        with pytest.raises(ResourceLimitError, match=r"BFS exceeded 2\.5s") as exc:
            bfs_optimal(board, SearchLimits(max_time=2.5))
        assert (exc.value.nodes_expanded, exc.value.lower_bound) == (0, 1)
        assert len(reads) == 1 + 3
        assert (solver._goal_ball, 4, 4) not in empty_store
        # With no deadline in reach, the build's 119,668 steps of work, its
        # 66,082 expansions (the ball to radius 14, then the first 4,217
        # rim states at 15 before the layer past it passes the ceiling)
        # and the 53,586 states it sorts into its array, read the clock 59
        # times, the query's 1,384 expansions once, then the end; the ball
        # is kept, and the next query reads only its own.
        reads.clear()
        result = bfs_optimal(board, SearchLimits(max_time=float("inf")))
        assert result.nodes_expanded == 1384
        assert len(reads) == 1 + 59 + 1 + 1
        assert (solver._goal_ball, 4, 4) in empty_store
        reads.clear()
        assert bfs_optimal(board, SearchLimits(max_time=float("inf"))).nodes_expanded == 1384
        assert len(reads) == 1 + 1 + 1

    def test_expired_deadline_stops_a_board_inside_the_ball(self, dist_3x3):
        # No expansion reads the clock, so it is read once before the
        # answer; the bound is the exact length. The ball is built first,
        # as in test_expired_deadline_stops_a_short_search.
        cells = next(c for c, d in dist_3x3.items() if d == 16)
        _table(solver._goal_ball, 3, 3)
        with pytest.raises(ResourceLimitError, match="BFS exceeded 0.0s") as exc:
            bfs_optimal(Board(3, 3, cells), SearchLimits(max_time=0.0))
        assert (exc.value.nodes_expanded, exc.value.lower_bound) == (0, 16)

    def test_4x4_short_scramble(self):
        # The blank packs as 0, so a 16-cell board uses all 64 bits only
        # when tile 15 sits on the last cell: see the pins below.
        for seed in range(3):
            b, seq = scramble(4, 4, 14, seed)
            result = bfs_optimal(b)
            assert result.length == ida_star(b).length <= len(seq)
            assert verify_sequence(b, result.moves).solved

    def test_deep_4x4_grows_the_goal_side(self):
        # 34 moves out, 19 past the 4x4 ball's radius of 15. Searched from
        # the start alone it passes the default million-expansion cap; the
        # goal's side grows from the ball's rim once the start's frontier
        # outgrows it, as the bidirectional search before the ball did
        # (393,384 expansions there).
        b, _ = scramble(4, 4, 36, 46)
        result = bfs_optimal(b)
        assert (result.length, result.nodes_expanded) == (34, 331519)
        assert result.length == ida_star(b).length
        assert verify_sequence(b, result.moves).solved

    def test_nodes_expanded_pinned(self, solvable_3x3_states):
        # Read from this implementation; a change is a behaviour change.
        rng = random.Random(4)
        boards = [Board(3, 3, c) for c in rng.sample(solvable_3x3_states, 5)]
        assert [bfs_optimal(b).nodes_expanded for b in boards] == [0, 0, 1, 0, 0]

    # Read from the search that starts the goal side from its ball: which
    # optimal path the meet picks is pinned too.
    PINNED_MOVES = {
        (3, 3): [
            "U R D R D L U R U L L D D R U L U R D D R",
            "D D R U L L D R U L U R R D L U R D D",
            "U R R D L U U R D D L U L D R U U L D D R U R D",
            "L L U R R D L L U R R U L L D R U R D L D R",
            "L L U U R D D L U R R U L L D R R D L U R D",
        ],
        (2, 4): ["D D L U R U L D R U U L D D D R U U L D D R"],
        (4, 2): ["R D L U R R D L U R R D L L L U R R D L U R R D"],
        (4, 4): [
            "D L L U R D R U U U R D D D",
            "L D D R U U R R U L D R D D",
            "R R D L D R R U L U R D D D",
            "L D L U U R U L D D R D R R",
        ],
        (8, 2): ["R R U L L L D R R U R D L L U R R D"],
        (2, 8): ["L U U R U L D R D D L U U R D D D D L D D R"],
    }
    # Expansions of the boards above with tile 15 on the last cell, whose
    # packed states use all 64 bits.
    PINNED_FULL_WIDTH_NODES = {(4, 4): 0, (8, 2): 0, (2, 8): 9}
    # The lengths of the paths the earlier bidirectional search pinned.
    PINNED_LENGTHS = {
        (3, 3): [21, 19, 24, 22, 22], (2, 4): [22], (4, 2): [24],
        (4, 4): [14, 14, 14, 14], (8, 2): [18], (2, 8): [22],
    }

    @staticmethod
    def pinned_boards(solvable_3x3_states):
        rng = random.Random(4)
        return {
            (3, 3): [Board(3, 3, c) for c in rng.sample(solvable_3x3_states, 5)],
            (2, 4): [scramble(2, 4, 60, 0)[0]],
            (4, 2): [scramble(4, 2, 60, 0)[0]],
            # The three boards of test_4x4_short_scramble, then one with
            # tile 15 on the last cell.
            (4, 4): [scramble(4, 4, 14, seed)[0] for seed in (0, 1, 2, 5)],
            (8, 2): [scramble(8, 2, 24, 1)[0]],
            (2, 8): [scramble(2, 8, 24, 5)[0]],
        }

    def test_moves_pinned(self, solvable_3x3_states):
        boards = self.pinned_boards(solvable_3x3_states)
        for shape, expected in self.PINNED_MOVES.items():
            results = [bfs_optimal(b) for b in boards[shape]]
            assert [format_moves(r.moves) for r in results] == expected
            assert [r.length for r in results] == self.PINNED_LENGTHS[shape]
            for b, r in zip(boards[shape], results):
                assert verify_sequence(b, r.moves).solved
            if shape in self.PINNED_FULL_WIDTH_NODES:
                assert boards[shape][-1].cells[-1] == 15
                assert results[-1].nodes_expanded == self.PINNED_FULL_WIDTH_NODES[shape]

    @pytest.fixture
    def ball_states(self, monkeypatch, empty_store):
        """Sets the goal ball's ceiling for the test, over an empty table
        store; the ceiling and the store are restored after it."""
        def set_ceiling(states):
            monkeypatch.setattr(solver, "BALL_STATES", states)
            empty_store.clear()
        return set_ceiling

    def test_a_ball_of_the_goal_alone_is_the_bidirectional_search(
        self, ball_states, solvable_3x3_states
    ):
        # With no layer past the goal kept, the goal's side grows from the
        # goal itself, so nodes and paths are those of the bidirectional
        # search before the ball, read from it.
        ball_states(1)
        boards = self.pinned_boards(solvable_3x3_states)
        moves = dict(self.PINNED_MOVES)
        moves[3, 3] = [
            "U R D D R U L D L U R D R U U L D L D R R",
            moves[3, 3][1],
            "R U U L D R R U L L D D R U R D L U L U R R D D",
        ] + moves[3, 3][3:]
        moves[2, 4] = ["D D L U U R D L U R U L D D D R U U L D D R"]
        moves[4, 4] = ["U U R D D D L L L U R D R R"] + moves[4, 4][1:]
        results = {shape: [bfs_optimal(b) for b in bs] for shape, bs in boards.items()}
        assert {s: [format_moves(r.moves) for r in rs] for s, rs in results.items()} == moves
        assert [r.nodes_expanded for r in results[3, 3]] == [928, 576, 1875, 1342, 1241]
        assert {s: results[s][-1].nodes_expanded for s in self.PINNED_FULL_WIDTH_NODES} == {
            (4, 4): 470, (8, 2): 722, (2, 8): 2214,
        }

    def test_rim_codes_change_no_answer(self, ball_states, dist_3x3, solvable_3x3_states):
        # Under the earlier ceiling of 2^15 states (radius 18), the moves
        # and expansions are those read from the ball that held a path
        # code on every state: every state at most 18 moves out, then
        # 2,000 sampled farther ones.
        ball_states(1 << 15)
        near = [c for c in solvable_3x3_states if dist_3x3[c] <= 18]
        far = [c for c in solvable_3x3_states if dist_3x3[c] > 18]
        digest, nodes = hashlib.sha256(), 0
        for cells in near + random.Random("rim-codes/far").sample(far, 2000):
            result = bfs_optimal(Board(3, 3, cells))
            assert result.length == dist_3x3[cells]
            nodes += result.nodes_expanded
            digest.update(format_moves(result.moves).encode() + b"\n")
        assert (len(near), nodes) == (26931, 100927)
        assert digest.hexdigest() == "a7c8bb699ee99133d21574aae1a727cebe5021d8bdee9491811ff46a14d3615a"

    def test_sorted_inner_layers_change_no_answer(self, ball_states, dist_3x3, solvable_3x3_states):
        # Under the earlier ceiling of 2^16 states (radius 20), the moves
        # and expansions are those read from the ball that kept every
        # state in one dict: every state at most 20 moves out, then 2,000
        # sampled farther ones.
        ball_states(1 << 16)
        near = [c for c in solvable_3x3_states if dist_3x3[c] <= 20]
        far = [c for c in solvable_3x3_states if dist_3x3[c] > 20]
        digest, nodes = hashlib.sha256(), 0
        for cells in near + random.Random("rim-codes/far").sample(far, 2000):
            result = bfs_optimal(Board(3, 3, cells))
            assert result.length == dist_3x3[cells]
            nodes += result.nodes_expanded
            digest.update(format_moves(result.moves).encode() + b"\n")
        assert (len(near), nodes) == (54802, 42027)
        assert digest.hexdigest() == "85d5846c9aaaa790dc13b528d285dc685a3d8200143e3fa6aae70c623f952101"

    @pytest.mark.parametrize("states", [40, 1000])
    def test_exact_from_a_small_goal_ball(self, states, ball_states, dist_3x3):
        # A small ball leaves the start's frontier to outgrow its rim on
        # most boards, so both sides grow and the meet falls on either.
        ball_states(states)
        for cells in random.Random(f"small-ball/{states}").sample(sorted(dist_3x3), 300):
            b = Board(3, 3, cells)
            result = bfs_optimal(b)
            assert result.length == dist_3x3[cells]
            assert verify_sequence(b, result.moves).solved

    def test_node_cap_pinned(self, dist_3x3):
        # A board 31 moves out (110 nodes): the cap is checked on every
        # expansion, and the bound is the start's radius plus the goal
        # ball's, 23, plus one. A cap one below the count stops the last
        # layer, whose bound is the length itself.
        board = Board(3, 3, min(c for c, d in dist_3x3.items() if d == 31))
        assert bfs_optimal(board).nodes_expanded == 110
        pins = []
        for cap in (0, 1, 4, 109):
            with pytest.raises(ResourceLimitError, match=f"BFS exceeded {cap} expansions") as exc:
                bfs_optimal(board, SearchLimits(max_nodes=cap))
            pins.append((exc.value.nodes_expanded, exc.value.lower_bound))
        assert pins == [(1, 24), (2, 25), (5, 26), (110, 31)]


class TestIdaStar:
    def test_goal_zero_nodes(self):
        result = ida_star(Board.goal(4, 4))
        assert result.length == 0
        assert result.nodes_expanded <= 1

    def test_unsolvable_rejected_before_search(self, lloyd_board, fig3_board):
        for b in (lloyd_board, fig3_board):
            with pytest.raises(UnsolvableError) as exc:
                ida_star(b, "manhattan")
            assert exc.value.certificate is not None

    def test_unknown_heuristic(self):
        with pytest.raises(ValueError, match="unknown heuristic"):
            ida_star(Board.goal(3, 3), "euclid")

    @pytest.mark.parametrize("heuristic", ["manhattan", "linear-conflict"])
    def test_matches_oracle_on_seeded_3x3(self, heuristic, dist_3x3, solvable_3x3_states):
        rng = random.Random(1234)
        for cells in rng.sample(solvable_3x3_states, 40):
            b = Board(3, 3, cells)
            result = ida_star(b, heuristic)
            assert result.length == dist_3x3[cells]
            assert verify_sequence(b, result.moves).solved

    def test_pdb_matches_oracle(self, pdb_pair_3x3, dist_3x3, solvable_3x3_states):
        rng = random.Random(77)
        for cells in rng.sample(solvable_3x3_states, 40):
            b = Board(3, 3, cells)
            result = ida_star(b, pdb_pair_3x3)
            assert result.length == dist_3x3[cells]

    def test_deterministic(self):
        b, _ = scramble(3, 3, 60, 8)
        r1 = ida_star(b, "linear-conflict")
        r2 = ida_star(b, "linear-conflict")
        assert r1.moves == r2.moves
        assert r1.nodes_expanded == r2.nodes_expanded

    def test_dominant_heuristic_expands_no_more(self, solvable_3x3_states):
        rng = random.Random(55)
        for cells in rng.sample(solvable_3x3_states, 15):
            b = Board(3, 3, cells)
            assert (
                ida_star(b, "linear-conflict").nodes_expanded
                <= ida_star(b, "manhattan").nodes_expanded
            )

    def test_admissibility_relation_at_start(self, dist_3x3, solvable_3x3_states):
        rng = random.Random(20)
        for cells in rng.sample(solvable_3x3_states, 200):
            b = Board(3, 3, cells)
            assert manhattan(b) <= linear_conflict(b) <= dist_3x3[cells]

    def test_scramble_witness_bounds_solution(self):
        for seed in range(3):
            b, seq = scramble(4, 4, 30, seed)
            result = ida_star(b, "linear-conflict")
            assert linear_conflict(b) <= result.length <= len(seq)
            assert verify_sequence(b, result.moves).solved

    def test_node_limit(self):
        b, _ = scramble(3, 3, 80, 3)
        with pytest.raises(ResourceLimitError) as exc:
            ida_star(b, "manhattan", SearchLimits(max_nodes=5))
        assert exc.value.nodes_expanded is not None

    def test_depth_limit(self):
        b, _ = scramble(3, 3, 60, 21)
        d = ida_star(b, "linear-conflict").length
        if d > 1:
            with pytest.raises(ResourceLimitError):
                ida_star(b, "linear-conflict", SearchLimits(max_depth=d - 1))

    @pytest.mark.parametrize("heuristic", ["manhattan", "linear-conflict", "pdb"])
    def test_depth_limit_lower_bound(self, heuristic, pdb_pair_3x3, dist_3x3, solvable_3x3_states):
        h = pdb_pair_3x3 if heuristic == "pdb" else heuristic
        rng = random.Random(12)
        for cells in rng.sample(solvable_3x3_states, 20):
            d = dist_3x3[cells]
            if d == 0:
                continue
            with pytest.raises(ResourceLimitError) as exc:
                ida_star(Board(3, 3, cells), h, SearchLimits(max_depth=d - 1))
            assert exc.value.lower_bound == d

    def test_node_limit_lower_bound_is_proven(self, dist_3x3, solvable_3x3_states):
        rng = random.Random(13)
        for cells in rng.sample(solvable_3x3_states, 60):
            b = Board(3, 3, cells)
            for cap in (0, 10, 100, 1000):
                try:
                    ida_star(b, "manhattan", SearchLimits(max_nodes=cap))
                except ResourceLimitError as exc:
                    assert manhattan(b) <= exc.lower_bound <= dist_3x3[cells]

    @pytest.mark.parametrize("heuristic", ["manhattan", "linear-conflict", "pdb"])
    @pytest.mark.parametrize("k", [1, 2])
    def test_goal_is_never_an_expansion(self, heuristic, k, pdb_pair_3x3):
        # k moves out, the k nodes on the path are expanded and the goal
        # below them is only tested: a cap of k solves, k - 1 stops at k.
        h = pdb_pair_3x3 if heuristic == "pdb" else heuristic
        b = Board.goal(3, 3).apply_sequence([Move.UP, Move.LEFT][:k])
        result = ida_star(b, h, SearchLimits(max_nodes=k))
        assert (result.length, result.nodes_expanded) == (k, k)
        with pytest.raises(ResourceLimitError) as exc:
            ida_star(b, h, SearchLimits(max_nodes=k - 1))
        assert (exc.value.nodes_expanded, exc.value.lower_bound) == (k, k)

    def test_time_limit(self, dist_3x3):
        cells = max(dist_3x3, key=dist_3x3.get)
        with pytest.raises(ResourceLimitError):
            ida_star(Board(3, 3, cells), "manhattan", SearchLimits(max_time=0.0))

    def test_expired_deadline_stops_a_short_search(self):
        # Solved in 1,978 expansions, under the 2048 between clock reads.
        b, _ = scramble(3, 3, 60, 2)
        with pytest.raises(ResourceLimitError) as exc:
            ida_star(b, "linear-conflict", SearchLimits(max_time=0.0))
        assert exc.value.nodes_expanded == 1
        assert exc.value.lower_bound == linear_conflict(b)

    # Read at the search that called a correction function per child: the
    # cap is checked on every expansion, and the bound is the threshold.
    CAP_PINS = {
        "3x3": {
            "manhattan": [(1, 21), (2, 21), (8, 23), (61, 25), (401, 27)],
            "linear-conflict": [(1, 23), (2, 23), (8, 23), (61, 25), (401, 27)],
            "pdb": [(1, 29), (2, 29), (8, 29), (61, 29), None],  # solved in 180
        },
        "4x4": {
            "manhattan": [(1, 22), (2, 22), (8, 22), (61, 24), (401, 28)],
            "linear-conflict": [(1, 24), (2, 24), (8, 24), (61, 26), (401, 28)],
            "pdb": [(1, 26), (2, 26), (8, 26), (61, 28), (401, 30)],
        },
    }

    @pytest.mark.parametrize("shape", sorted(CAP_PINS))
    def test_node_cap_pinned(self, shape, pdb_pair_3x3):
        if shape == "3x3":  # a 31-move board
            board, pdbs = Board.parse("8 6 7\n2 5 4\n3 0 1"), pdb_pair_3x3
        else:  # the 34-move board of scramble -w 4 -h 4 --steps 40 --seed 7
            labels = range(1, 16)
            board = scramble(4, 4, 40, 7)[0]
            pdbs = [build_pdb(4, 4, labels[i : i + 3]) for i in range(0, 15, 3)]
        for name, expected in self.CAP_PINS[shape].items():
            pins = []
            for cap in (0, 1, 7, 60, 400):
                limits = SearchLimits(max_nodes=cap)
                try:
                    ida_star(board, pdbs if name == "pdb" else name, limits)
                    pins.append(None)
                except ResourceLimitError as exc:
                    assert str(exc) == f"IDA* exceeded {cap} expansions"
                    pins.append((exc.nodes_expanded, exc.lower_bound))
            assert pins == expected, name

    def test_clock_read_on_the_first_expansion_then_every_2048th(self, monkeypatch):
        reads = []

        def perf_counter():
            reads.append(None)
            return time.perf_counter()

        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=perf_counter))
        # IDA* and the oracle read the same clock: the start and the end,
        # plus expansions 1, 2049, ..., 30721 and 1. The 4x4
        # goal ball and Manhattan step table are built first, with no
        # deadline: their builds read the clock too
        # (test_deadline_read_while_the_goal_ball_is_built).
        _table(solver._goal_ball, 4, 4)
        _table(_step_table, 4, 4, False)
        for search, board, nodes, clock_reads in [
            (partial(ida_star, heuristic="manhattan"), scramble(4, 4, 40, 7)[0], 32549, 2 + 16),
            (bfs_optimal, scramble(4, 4, 30, 0)[0], 1384, 2 + 1),
        ]:
            reads.clear()
            result = search(board, limits=SearchLimits(max_time=float("inf")))
            assert result.nodes_expanded == nodes
            assert len(reads) == clock_reads
            reads.clear()
            assert search(board).nodes_expanded == nodes
            assert len(reads) == 2

    def test_path_past_the_recursion_limit_is_a_resource_limit(self, deep_board):
        # IDA* recurses once per move; the first bound, h(start) = 1039,
        # already passes the limit, so it is the bound reported.
        with pytest.raises(ResourceLimitError, match="recursion limit") as exc:
            ida_star(deep_board, "manhattan")
        assert exc.value.lower_bound == manhattan(deep_board) == 1039
        assert 0 < exc.value.nodes_expanded < 1039

    @pytest.mark.parametrize("field", ["max_nodes", "max_time", "max_depth"])
    def test_negative_limits_rejected(self, field):
        with pytest.raises(ValueError, match=f"{field} must be non-negative"):
            SearchLimits(**{field: -1})

    def test_nan_time_limit_rejected(self):
        # A NaN deadline compares false, which would mean "no limit".
        with pytest.raises(ValueError, match="max_time must be non-negative"):
            SearchLimits(max_time=float("nan"))

    def test_infinite_time_limit_allowed(self):
        b, _ = scramble(3, 3, 60, 3)
        limits = SearchLimits(max_time=float("inf"))
        assert ida_star(b, "manhattan", limits).length == bfs_optimal(b, limits).length

    def test_zero_limits_allowed(self):
        limits = SearchLimits(max_nodes=0, max_time=0.0, max_depth=0)
        assert ida_star(Board.goal(3, 3), "manhattan", limits).length == 0

    def test_wrong_dimension_pdb_rejected(self, pdb_pair_3x3):
        with pytest.raises(ValueError, match="heuristic is for"):
            ida_star(Board.goal(4, 4), pdb_pair_3x3)

    def test_all_2x3_with_each_heuristic(self, dist_2x3):
        pdbs = [build_pdb(3, 2, [1, 2, 3]), build_pdb(3, 2, [4, 5])]
        for cells, d in dist_2x3.items():
            b = Board(3, 2, cells)
            for h in ("manhattan", "linear-conflict", pdbs):
                assert ida_star(b, h).length == d


class TestFirstSolveDeadline:
    """A shape's first solve builds its step table within ``max_time``,
    after h(start) is known, under a clock that ticks one second per
    read: the build reads the deadline at once, then every 2048 steps of
    work. A deadline that passes stops the build with no expansion and
    the bound h(start), leaves the cyclic collector as it was and stores
    nothing; the next solve, with no limit, builds the table again."""

    @pytest.fixture
    def reads(self, monkeypatch):
        reads = []

        def perf_counter():
            reads.append(None)
            return float(len(reads))

        monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=perf_counter))
        return reads

    @staticmethod
    def solve_with_collector(collecting, search):
        """``search()``'s limit error, with the collector on or off, and
        whether it was left so."""
        was = gc.isenabled()
        (gc.enable if collecting else gc.disable)()
        try:
            with pytest.raises(ResourceLimitError) as exc:
                search()
            return exc.value, gc.isenabled() is collecting
        finally:
            (gc.enable if was else gc.disable)()

    # (h(start), length, nodes) of scramble(20, 20, 30, 0), the same as
    # before the build read the deadline.
    PINNED_20X20 = {"manhattan": (20, 26, 1278), "linear-conflict": (20, 26, 688)}

    @pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
    @pytest.mark.parametrize("max_time, clock_reads", [(0.001, 1), (2.5, 3)])
    @pytest.mark.parametrize("name", sorted(PINNED_20X20))
    def test_first_20x20_solve_stops_in_the_build(
        self, name, max_time, clock_reads, collecting, reads, empty_store
    ):
        # Past start + 0.001 at the build's first read; past start + 2.5
        # at its third, 4812 entries in, before the 76 shared Manhattan
        # rows of 401 entries are done. Only the tables h(start) read
        # are stored, beside those the scramble read.
        board = scramble(20, 20, 30, 0)[0]
        stored = set(empty_store)
        conflicts = name == "linear-conflict"
        h0, length, nodes = self.PINNED_20X20[name]
        error, kept = self.solve_with_collector(
            collecting, lambda: ida_star(board, name, SearchLimits(max_time=max_time))
        )
        assert str(error) == f"IDA* exceeded {max_time}s"
        assert (error.nodes_expanded, error.lower_bound) == (0, h0)
        assert kept
        assert len(reads) == 1 + clock_reads
        h0_tables = {(goal_tables, 20, 20)}
        if conflicts:
            h0_tables |= {(_lines, 20, 20), (_conflict_table, 20)}
        assert set(empty_store) == stored | h0_tables
        result = ida_star(board, name)
        assert (result.length, result.nodes_expanded) == (length, nodes)
        assert (_step_table, 20, 20, conflicts) in empty_store

    @staticmethod
    def five_3_tile_tables():
        """The 34-move board of scramble -w 4 -h 4 --steps 40 --seed 7, a
        fresh heuristic over five 3-tile tables, and its store key."""
        labels = range(1, 16)
        heuristic = PatternHeuristic([build_pdb(4, 4, labels[i : i + 3]) for i in range(0, 15, 3)])
        patterns = tuple((db.pattern_tiles, db.table) for db in heuristic.databases)
        return scramble(4, 4, 40, 7)[0], heuristic, patterns

    @pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
    def test_first_pattern_solve_stops_in_the_build(self, collecting, reads, empty_store):
        # Indexed first, with no clock: the solve then builds the step
        # table in the store, reading the deadline at its first cell.
        board, heuristic, patterns = self.five_3_tile_tables()
        assert heuristic(board) == 26
        error, kept = self.solve_with_collector(
            collecting, lambda: ida_star(board, heuristic, SearchLimits(max_time=0.001))
        )
        assert (error.nodes_expanded, error.lower_bound) == (0, 26)
        assert kept
        assert len(reads) == 2
        assert (pattern_db._pattern_steps, 4, 4, patterns) not in empty_store
        result = ida_star(board, heuristic)
        assert (result.length, result.nodes_expanded) == (34, 4907)
        assert (pattern_db._pattern_steps, 4, 4, patterns) in empty_store

    @pytest.mark.parametrize("max_time, clock_reads", [(0.001, 1), (2.5, 3)])
    def test_first_pattern_solve_stops_in_the_index(self, max_time, clock_reads, reads, empty_store):
        # The first solve over a set of tables indexes them under the
        # deadline, read at each table's first block and every 2048
        # entries: each 3-tile table's 16 blocks of 210 entries read it
        # twice, so 2.5 s passes at the second table's first block. h(start)
        # is not known yet, so the bound is 1, and no index is stored.
        board, heuristic, patterns = self.five_3_tile_tables()
        with pytest.raises(ResourceLimitError) as exc:
            ida_star(board, heuristic, SearchLimits(max_time=max_time))
        assert str(exc.value) == f"IDA* exceeded {max_time}s"
        assert (exc.value.nodes_expanded, exc.value.lower_bound) == (0, 1)
        assert len(reads) == 1 + clock_reads
        assert not [key for key in empty_store
                    if key[0] in (pattern_db._pattern_indexes, pattern_db._pattern_steps)]
        result = ida_star(board, heuristic)
        assert (result.length, result.nodes_expanded) == (34, 4907)
        assert (pattern_db._pattern_indexes, 4, 4, patterns) in empty_store


class TestAgainstPlainIDA:
    """``ida_star``'s moves and expansions equal those of a plain IDA*
    over tuple states that computes h from scratch at every child
    (``oracles.plain_ida_star``), on seeded scrambles of each shape."""

    # (width, height, scramble steps): 4x4 walks shorter than criterion
    # 8's 40, whose Manhattan searches run to millions of nodes.
    SHAPES = [(3, 3, 30), (2, 4, 30), (4, 2, 30), (3, 4, 30), (4, 4, 30)]
    SEEDS = range(4)

    @staticmethod
    def three_tile_tables(width, height):
        labels = range(1, width * height)
        return PatternHeuristic(
            [build_pdb(width, height, labels[i : i + 3]) for i in range(0, len(labels), 3)]
        )

    def check(self, width, height, steps, heuristic, h):
        for seed in self.SEEDS:
            board = scramble(width, height, steps, seed)[0]
            dirs, nodes = plain_ida_star(board.cells, width, height, h)
            # Capped, so a search that misses the goal fails, not hangs.
            result = ida_star(board, heuristic, SearchLimits(max_nodes=nodes))
            assert (result.moves, result.nodes_expanded) == (tuple(MOVE_ORDER[d] for d in dirs), nodes)

    @pytest.mark.parametrize("width, height, steps", SHAPES)
    def test_manhattan(self, width, height, steps):
        self.check(width, height, steps, "manhattan", lambda cells: tile_taxicab(cells, width, height))

    @pytest.mark.parametrize("width, height, steps", SHAPES)
    def test_linear_conflict(self, width, height, steps):
        self.check(width, height, steps, "linear-conflict",
                   lambda cells: linear_conflict(Board(width, height, cells)))

    @pytest.mark.parametrize("width, height, steps", SHAPES)
    def test_pattern_databases(self, width, height, steps):
        heuristic = self.three_tile_tables(width, height)
        self.check(width, height, steps, heuristic, lambda cells: heuristic(Board(width, height, cells)))

    def test_lone_2_tile_table(self):
        # h is 0 on many boards off the goal, so the goal test compares
        # the cells of many a child whose h is 0.
        heuristic = PatternHeuristic([build_pdb(3, 3, [1, 2])])
        self.check(3, 3, 12, heuristic, lambda cells: heuristic(Board(3, 3, cells)))


class TestBlankSteps:
    SHAPES = [(w, h) for w in range(2, 7) for h in range(2, 7)]

    @pytest.mark.parametrize("width, height", SHAPES)
    def test_matches_brute_force(self, width, height):
        undo = {0: 1, 1: 0, 2: 3, 3: 2}  # U <-> D, L <-> R
        steps = _blank_steps(width, height)
        assert len(steps) == width * height
        for blank, per_last in enumerate(steps):
            row, col = divmod(blank, width)
            moves = [(0, blank - width, row > 0), (1, blank + width, row < height - 1),
                     (2, blank - 1, col > 0), (3, blank + 1, col < width - 1)]
            legal = [(d, j) for d, j, ok in moves if ok]
            expected = [[(d, j) for d, j in legal if d != undo[last]] for last in range(4)]
            assert [list(entry) for entry in per_last] == expected + [legal]
        assert sum(len(per_last) for per_last in steps) == 5 * width * height

    @pytest.mark.parametrize("width, height", SHAPES)
    def test_one_move_rule(self, width, height):
        # Every search's moves are a single board's: the root entry at
        # each cell is the board's legal moves, in MOVE_ORDER, each with
        # the cell apply_move takes the blank to.
        steps = _blank_steps(width, height)
        n = width * height
        for blank in range(n):
            cells = list(range(1, n + 1))
            cells[blank], cells[-1] = n, cells[blank]
            board = Board(width, height, cells)
            legal = board.legal_moves()
            expected = [(d, board.apply_move(m).blank_index - 1)
                        for d, m in enumerate(MOVE_ORDER) if m in legal]
            assert list(steps[blank][-1]) == expected

    # Moves and expansions read from the search that pruned the undo move
    # by the blank's previous cell, before the per-shape step table.
    PINNED = {
        (3, 5): ("U R R U L U L U R R D D D D L L U R U L U U R D D D D R U L D R",
                 {"manhattan": 9185, "linear-conflict": 3755, "pdb": 776}),
        (5, 3): ("D R R R U L U R D L D R U L L L L U R R D D L L U R R U R R D D",
                 {"manhattan": 23969, "linear-conflict": 4842, "pdb": 12560}),
    }

    @pytest.mark.parametrize("width, height", sorted(PINNED))
    def test_unequal_shapes_pinned(self, width, height):
        board = scramble(width, height, 40, 0)[0]
        labels = range(1, width * height)
        pdbs = PatternHeuristic(
            [build_pdb(width, height, labels[i : i + 3]) for i in range(0, len(labels), 3)]
        )
        moves, nodes = self.PINNED[width, height]
        for name, expected in nodes.items():
            result = ida_star(board, pdbs if name == "pdb" else name)
            assert (format_moves(result.moves), result.nodes_expanded) == (moves, expected)

    def test_2x2_farthest_board_pinned(self):
        board = Board(2, 2, (4, 3, 2, 1))
        for heuristic in ("manhattan", "linear-conflict", [build_pdb(2, 2, [1, 2, 3])]):
            result = ida_star(board, heuristic)
            assert (format_moves(result.moves), result.nodes_expanded) == ("D R U L D R", 6)

    def test_other_shape_pdb_refused_by_incremental(self, pdb_pair_3x3):
        heuristic = PatternHeuristic(pdb_pair_3x3)
        board = Board.goal(4, 4)
        with pytest.raises(ValueError, match="heuristic is for 3x3, board is 4x4"):
            heuristic.incremental(board)
