from __future__ import annotations

import random
import tracemalloc
from itertools import permutations

import pytest

from permpuzzle import (
    Board,
    Move,
    MOVE_ORDER,
    Parity,
    ResourceLimitError,
    bfs_optimal,
    certificate,
    is_solvable,
    reachable_states,
    scramble,
    verify_sequence,
)

from permpuzzle import solver
from permpuzzle.board import _table
from permpuzzle.solver import BALL_STATES, _goal_ball, _PackedBFS, _rim_side

from oracles import exact_distances, inversion_sign


class TestParityRule:
    def test_lloyd_unsolvable(self, lloyd_board):
        assert not is_solvable(lloyd_board)

    def test_goal_solvable(self):
        for w, h in [(2, 2), (3, 3), (4, 4), (5, 3)]:
            assert is_solvable(Board.goal(w, h))

    def test_fig3_unsolvable(self, fig3_board):
        # sign(A) is Odd while the blank sits at home (Even distance).
        assert not is_solvable(fig3_board)

    def test_scrambles_always_solvable(self):
        for seed in range(10):
            b, _ = scramble(4, 4, 60, seed)
            assert is_solvable(b)

    def test_move_invariance(self):
        rng = random.Random(3)
        for _ in range(100):
            cells = list(range(1, 10))
            rng.shuffle(cells)
            b = Board(3, 3, tuple(cells))
            for m in b.legal_moves():
                assert is_solvable(b.apply_move(m)) == is_solvable(b)

    @pytest.mark.parametrize("width,height", [(2, 2), (3, 2)])
    def test_agrees_with_bfs_oracle_exhaustively(self, width, height):
        reachable = set(exact_distances(width, height))
        n = width * height
        solvable_count = 0
        for cells in permutations(range(1, n + 1)):
            b = Board(width, height, cells)
            expected = cells in reachable
            assert is_solvable(b) == expected
            solvable_count += expected
        assert solvable_count == len(reachable)


class TestCertificate:
    def test_lloyd(self, lloyd_board):
        cert = certificate(lloyd_board)
        assert cert.config_parity is Parity.ODD
        assert cert.blank_distance == 0
        assert cert.blank_parity is Parity.EVEN
        assert cert.solvable is False

    def test_goal(self):
        cert = certificate(Board.goal(4, 4))
        assert (cert.config_parity, cert.blank_distance, cert.blank_parity, cert.solvable) == (
            Parity.EVEN,
            0,
            Parity.EVEN,
            True,
        )

    def test_goal_plus_blank_up(self):
        cert = certificate(Board.goal(4, 4).apply_move(Move.UP))
        assert (cert.config_parity, cert.blank_distance, cert.blank_parity, cert.solvable) == (
            Parity.ODD,
            1,
            Parity.ODD,
            True,
        )

    def test_consistent_with_is_solvable(self):
        rng = random.Random(17)
        for _ in range(200):
            cells = list(range(1, 13))
            rng.shuffle(cells)
            b = Board(4, 3, tuple(cells))
            assert certificate(b).solvable == is_solvable(b)

    def test_blank_distance_bound(self):
        rng = random.Random(23)
        for _ in range(100):
            cells = list(range(1, 13))
            rng.shuffle(cells)
            b = Board(4, 3, tuple(cells))
            assert 0 <= certificate(b).blank_distance <= (4 - 1) + (3 - 1)

    @staticmethod
    def check_parity_path(b):
        # certificate reads board.cells directly; the Permutation's sign,
        # an inversion count and is_solvable must all agree with it.
        cert = certificate(b)
        assert cert.config_parity is b.to_permutation().sign()
        assert cert.config_parity.value == inversion_sign(b.cells)
        assert is_solvable(b) is cert.solvable

    def test_parity_path_on_every_2x3_board(self):
        for cells in permutations(range(1, 7)):
            self.check_parity_path(Board(2, 3, cells))

    @pytest.mark.parametrize("size", [4, 5])
    def test_parity_path_on_sampled_boards(self, size):
        rng = random.Random(size)
        cells = list(range(1, size * size + 1))
        for _ in range(300):
            rng.shuffle(cells)
            self.check_parity_path(Board(size, size, tuple(cells)))

    def test_lines_rendering(self, lloyd_board):
        assert certificate(lloyd_board).lines() == [
            "config_parity=Odd",
            "blank_distance=0",
            "blank_parity=Even",
            "solvable=false",
        ]


class TestEnumeration:
    def test_2x2(self):
        report = reachable_states(2, 2)
        assert report.count == 12
        assert report.max_depth == 6

    def test_2x3(self):
        report = reachable_states(3, 2)
        assert report.count == 360
        assert report.max_depth == 21

    @pytest.mark.parametrize("width, height", [(2, 2), (3, 2), (2, 3), (2, 4), (4, 2)])
    def test_matches_exhaustive_oracle(self, width, height):
        # Non-square shapes check the two-layer dedupe where rows and
        # columns differ; the oracle keeps every state.
        dist = exact_distances(width, height)
        report = reachable_states(width, height)
        assert report.count == len(dist)
        assert report.max_depth == max(dist.values())

    @pytest.mark.parametrize("width, height", [(2, 5), (5, 2)])
    def test_10_cells_above_the_default_ceiling(self, width, height):
        # Read from the packed-state BFS that enumerated before the region
        # search; 10!/2 states, past the default ceiling.
        report = reachable_states(width, height, max_states=2_000_000)
        assert (report.count, report.max_depth) == (1814400, 55)

    def test_refuses_4x4_by_default(self):
        with pytest.raises(ResourceLimitError):
            reachable_states(4, 4)

    def test_refuses_more_than_16_cells(self):
        # Both refuse past 16 cells before any search, whatever their
        # ceilings; the exact oracle because it packs a board 4 bits per cell.
        with pytest.raises(ResourceLimitError, match="at most 16 cells"):
            reachable_states(5, 4)
        with pytest.raises(ResourceLimitError, match="at most 16 cells"):
            bfs_optimal(scramble(5, 4, 3, 0)[0])

    def test_rejects_shapes_below_2x2(self):
        for width, height in ((1, 5), (5, 1)):
            with pytest.raises(ValueError, match="at least 2x2"):
                reachable_states(width, height)

    def test_refuses_when_ceiling_too_small(self):
        with pytest.raises(ResourceLimitError):
            reachable_states(3, 2, max_states=100)


class TestPackedSteps:
    SHAPES = [(2, 2), (3, 2), (2, 3), (3, 3), (4, 2), (2, 4), (4, 3), (3, 4), (4, 4), (8, 2), (2, 8)]

    @pytest.mark.parametrize("width, height", SHAPES)
    def test_slide_matches_apply_move(self, width, height):
        # Expanding a root takes every entry of the step table at its
        # blank, on boards of both parities: each child is the packed
        # board after the move, and unwinding that one step stops on the
        # parent, the only state in the map. A ball holding the last
        # child stops the layer there and hands that child back.
        bfs = _PackedBFS(_table(_goal_ball, width, height)[0], width)
        rng = random.Random(f"packed/{width}x{height}")
        cells = list(range(1, width * height + 1))
        for _ in range(50):
            rng.shuffle(cells)
            board = Board(width, height, cells)
            parent = bfs.pack(board.cells)
            root = [(parent, board.blank_index - 1, -1)]
            children, meet = bfs.expand(root, {parent: -1})
            assert meet is None
            assert {MOVE_ORDER[d] for _, _, d in children} == board.legal_moves()
            for child, j, d in children:
                assert child == bfs.pack(board.apply_move(MOVE_ORDER[d]).cells)
                assert bfs.unwind(child, j, d, {parent: -1}) == ([d], parent)
            last = children[-1]
            assert bfs.expand(root, {parent: -1}, {last[0]: 0}) == (children[:-1], last)


def path_home(value) -> list[Move]:
    """The moves a goal ball's value spells: minus a leading 1, then the
    directions home as octal digits, first move first."""
    code = oct(-value)
    assert code[:3] == "0o1"
    return [MOVE_ORDER[int(digit)] for digit in code[3:]]


def walk_home(ball, lasts: dict, board: Board) -> tuple[list[Move], list[Move]]:
    """The moves home a goal ball gives ``board``, in two parts: while its
    state has no code, the blank's move that undoes its last direction
    (``lasts`` maps each uncoded state to it); then the path that the
    code it reaches spells."""
    moves = []
    while (code := ball.get(_PackedBFS.pack(board.cells))) is None:
        moves.append(MOVE_ORDER[lasts[_PackedBFS.pack(board.cells)] ^ 1])
        board = board.apply_move(moves[-1])
    return moves, path_home(code)


class TestGoalBall:
    @staticmethod
    def check_whole_layers(width, height, size, radius, ceiling):
        # Exactly the states within the radius, and one more layer would
        # pass the ceiling unless the component is already whole.
        _, ball, inner, lasts, rim, below, r = _table(_goal_ball, width, height)
        dist = exact_distances(width, height)
        packed = {_PackedBFS.pack(c): d for c, d in dist.items()}
        assert (len(ball) + len(inner), r) == (size, radius)
        # Codes on the goal, on every fourth layer and on the rim, which
        # comes last; every other state is sorted into ``inner``.
        assert set(ball) == {s for s, d in packed.items() if d <= r and (d % 4 == 0 or d == r)}
        assert list(inner) == sorted(s for s, d in packed.items() if d < r and d % 4)
        assert len(lasts) == len(inner)
        rim_states = list(ball)[len(ball) - len(rim):]
        assert len(rim) == sum(1 for d in dist.values() if d == r)
        assert {packed[s] for s in rim_states} == {r}
        # Each rim byte is the cell of the blank, whose nibble is 0.
        assert all((state >> 4 * blank) & 15 == 0 for state, blank in zip(rim_states, rim))
        assert sorted(below) == sorted(s for s, d in packed.items() if d == r - 1)
        assert size <= ceiling
        next_size = sum(1 for d in dist.values() if d <= r + 1)
        assert next_size > ceiling or next_size == len(dist)

    @pytest.mark.parametrize("width, height, size, radius", [
        (2, 2, 12, 6), (3, 2, 360, 21), (3, 3, 11764, 16), (2, 4, 16249, 26), (4, 2, 16249, 26),
    ])
    def test_whole_layers_within_the_ceiling(self, monkeypatch, empty_store, width, height, size, radius):
        # Under a ceiling of 2^14 states, over an empty table store: the
        # build honours a ceiling other than the default.
        monkeypatch.setattr(solver, "BALL_STATES", 1 << 14)
        self.check_whole_layers(width, height, size, radius, 1 << 14)

    @pytest.mark.parametrize("width, height, size, radius", [
        (2, 2, 12, 6), (3, 2, 360, 21), (3, 3, 116088, 23), (2, 4, 20160, 36), (4, 2, 20160, 36),
    ])
    def test_whole_layers_within_the_default_ceiling(self, width, height, size, radius):
        self.check_whole_layers(width, height, size, radius, BALL_STATES)

    @staticmethod
    def check_larger_shape(width, height, size, radius, ceiling):
        # Read from the build, with no exact distances: the layer past the
        # rim, which the goal's side of a query grows from the rim and the
        # layer inside it, holds no ball state and would take the ball
        # over the ceiling.
        steps, ball, inner, _, rim, below, r = _table(_goal_ball, width, height)
        assert (len(ball) + len(inner), r) == (size, radius)
        seen, frontier = _rim_side(ball, rim, below)
        past, _ = _PackedBFS(steps, width).expand(frontier, seen)
        assert not {state for state, _, _ in past} & (set(ball) | set(inner))
        assert size <= ceiling < size + len(past)

    @pytest.mark.parametrize("width, height, size, radius", [
        (4, 4, 61865, 14), (3, 4, 55998, 16), (4, 3, 55998, 16),
        (2, 8, 64217, 18), (8, 2, 64217, 18),
    ])
    def test_larger_shapes_pinned(self, monkeypatch, empty_store, width, height, size, radius):
        # Under the earlier ceiling of 2^16 states, where the earlier
        # layouts pinned the same sizes and radii.
        monkeypatch.setattr(solver, "BALL_STATES", 1 << 16)
        self.check_larger_shape(width, height, size, radius, 1 << 16)

    @pytest.mark.parametrize("width, height, size, radius", [
        (4, 4, 122707, 15), (3, 4, 97800, 17), (4, 3, 97800, 17),
        (2, 8, 104949, 19), (8, 2, 104949, 19),
    ])
    def test_larger_shapes_pinned_at_the_default_ceiling(self, width, height, size, radius):
        self.check_larger_shape(width, height, size, radius, BALL_STATES)

    @staticmethod
    def traced_build(width, height):
        """The shape's ball, built from an empty store with its step
        tables, and the bytes it holds and its build's peak."""
        tracemalloc.start()
        try:
            table = _goal_ball(width, height)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return table, held, peak

    def test_3x3_ball_memory(self, empty_store):
        # 5.1 MB held and a 6.0 MB peak on CPython 3.11, at radius 23. At
        # radius 20, the earlier layout, which kept every state in one
        # dict, held 6.4 MB and peaked at 7.5 MB.
        table, held, peak = self.traced_build(3, 3)
        assert (len(table[1]), len(table[2])) == (42583, 73505)
        assert held < 7_000_000
        assert peak < 8_500_000

    def test_4x4_ball_memory(self, empty_store):
        # 8.1 MB held and a 9.7 MB peak on CPython 3.11, at radius 15. At
        # radius 14, the earlier layout held 8.3 MB and peaked at 9.9 MB.
        table, held, peak = self.traced_build(4, 4)
        assert (len(table[1]), len(table[2])) == (69121, 53586)
        assert held < 9_200_000
        assert peak < 11_000_000


class TestPathCodes:
    SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (4, 4)]

    @pytest.mark.parametrize("width, height", SHAPES)
    def test_every_ball_state_walks_home_in_its_distance(self, width, height):
        # Only the goal, every fourth layer and the rim hold codes; every
        # other state holds its blank's last direction, from 0 to 3. Every
        # state within the radius, each found by an independent search
        # from the goal, walks home in exactly its distance: its
        # directions up to a coded state, then that code. The goal's code
        # is 1, its path empty.
        _, ball, inner, lasts, _, _, r = _table(_goal_ball, width, height)
        goal = _PackedBFS.pack(range(1, width * height + 1))
        assert ball[goal] == -1
        assert all(v < 0 for v in ball.values())
        assert max(lasts, default=0) < 4
        dist = exact_distances(width, height, max_depth=r)
        assert len(dist) == len(ball) + len(inner)
        lasts = dict(zip(inner, lasts))
        for cells, d in dist.items():
            board = Board(width, height, cells)
            steps, coded = walk_home(ball, lasts, board)
            assert len(steps) == (0 if d == r else d % 4)
            assert len(steps + coded) == d
            assert verify_sequence(board, steps + coded).solved

    @pytest.mark.parametrize("width, height", SHAPES)
    def test_every_ball_state_answers_reading_at_most_3_uncoded_states(
        self, monkeypatch, width, height
    ):
        # The oracle answers every state within the radius with no
        # expansion and in its exact distance; ``bisect`` finds each
        # uncoded state it reads: one per layer down to a multiple of 4,
        # none on the rim.
        r = _table(_goal_ball, width, height)[-1]
        reads, real = [], solver.bisect_left

        def bisect_left(a, x):
            reads.append(x)
            return real(a, x)

        monkeypatch.setattr(solver, "bisect_left", bisect_left)
        for cells, d in exact_distances(width, height, max_depth=r).items():
            board = Board(width, height, cells)
            reads.clear()
            result = bfs_optimal(board)
            assert (result.length, result.nodes_expanded) == (d, 0)
            assert len(reads) == (0 if d == r else d % 4) <= 3
            assert verify_sequence(board, result.moves).solved


class TestVerifySequence:
    def test_goal_empty(self):
        report = verify_sequence(Board.goal(4, 4), [])
        assert report.solved
        assert report.failed_index is None

    def test_lloyd_never_solves(self, lloyd_board):
        rng = random.Random(99)
        for _ in range(50):
            seq = []
            b = lloyd_board
            for _ in range(40):
                m = rng.choice(sorted(b.legal_moves(), key=MOVE_ORDER.index))
                seq.append(m)
                b = b.apply_move(m)
            assert not verify_sequence(lloyd_board, seq).solved

    def test_random_walks_from_lloyd_never_reach_goal(self, lloyd_board):
        # 10^5 random legal moves spread over 2000 restarted walks; the
        # goal lies in the other parity class and is never hit.
        rng = random.Random(1)
        goal = Board.goal(4, 4)
        for _ in range(2000):
            b = lloyd_board
            for _ in range(50):
                m = rng.choice(sorted(b.legal_moves(), key=MOVE_ORDER.index))
                b = b.apply_move(m)
                assert b != goal

    def test_illegal_step_reports_index(self):
        report = verify_sequence(Board.goal(4, 4), [Move.UP, Move.RIGHT, Move.UP])
        assert not report.solved
        assert report.failed_index == 1
        assert report.reached == Board.goal(4, 4).apply_move(Move.UP)

    def test_non_move_reports_index(self):
        # A string is iterated item by item; "U" is text, not a Move.
        report = verify_sequence(Board.goal(3, 3), "UL")
        assert not report.solved
        assert report.failed_index == 0
        assert report.reached == Board.goal(3, 3)
        report = verify_sequence(Board.goal(3, 3), [Move.UP, ("L",)])
        assert report.failed_index == 1
        assert report.reached == Board.goal(3, 3).apply_move(Move.UP)

    def test_scramble_then_solver_output(self):
        b, _ = scramble(3, 3, 30, 4)
        result = bfs_optimal(b)
        report = verify_sequence(b, result.moves)
        assert report.solved
        assert report.reached == Board.goal(3, 3)
