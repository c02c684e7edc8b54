from __future__ import annotations

import gc
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from permpuzzle import (
    Board,
    IllegalMoveError,
    Move,
    MOVE_ORDER,
    ParseError,
    Parity,
    Permutation,
    format_moves,
    parse_moves,
    scramble,
    verify_sequence,
)

from permpuzzle.board import _TABLES, _illegal

from conftest import FIG3_CYCLES


def random_board(width: int, height: int, rng: random.Random) -> Board:
    cells = list(range(1, width * height + 1))
    rng.shuffle(cells)
    return Board(width, height, tuple(cells))


boards = st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3), (4, 4)]).flatmap(
    lambda wh: st.permutations(tuple(range(1, wh[0] * wh[1] + 1))).map(
        lambda cells: Board(wh[0], wh[1], tuple(cells))
    )
)


class TestGoal:
    def test_4x4_layout(self):
        g = Board.goal(4, 4)
        assert g.cells == tuple(range(1, 17))
        assert g.blank_index == 16

    def test_2x2(self):
        assert Board.goal(2, 2).cells == (1, 2, 3, 4)

    def test_solved_state_is_identity(self):
        assert Board.goal(3, 3).to_permutation() == Permutation.identity(9)

    def test_rejects_small_dimensions(self):
        with pytest.raises(ValueError):
            Board.goal(1, 4)
        with pytest.raises(ValueError):
            Board.goal(4, 1)


class TestParseFormat:
    def test_lloyd(self, lloyd_board):
        assert lloyd_board.cells == (*range(1, 14), 15, 14, 16)
        assert lloyd_board.blank_index == 16

    def test_fig3(self, fig3_board):
        assert fig3_board.cells == (3, 2, 13, 9, 6, 7, 12, 5, 10, 11, 8, 4, 15, 14, 1, 16)

    def test_duplicate_tile(self):
        with pytest.raises(ParseError, match="duplicate tile 3"):
            Board.parse("1 2\n3 3")

    def test_missing_blank(self):
        with pytest.raises(ParseError, match="missing blank"):
            Board.parse("1 2\n3 4")

    def test_two_blanks(self):
        with pytest.raises(ParseError, match="more than one blank"):
            Board.parse("1 0\n3 _")

    def test_ragged_rows(self):
        with pytest.raises(ParseError, match="ragged"):
            Board.parse("1 2 3\n4 0")

    def test_out_of_range_tile(self):
        with pytest.raises(ParseError, match="outside"):
            Board.parse("1 9\n3 0")

    def test_underscore_blank(self):
        assert Board.parse("1 2\n3 _") == Board.goal(2, 2)

    def test_goal_2x2_format(self):
        assert Board.goal(2, 2).format() == "1 2\n3 0"

    def test_lloyd_format_row(self, lloyd_board):
        assert lloyd_board.format().splitlines()[3] == "13 15 14 0"

    @given(boards)
    def test_round_trip(self, b):
        assert Board.parse(b.format()) == b

    def test_clearing_the_store_frees_what_parse_and_goal_test_read(self, empty_store):
        """Parsing a 300x300 board and testing it for the goal keep no
        table outside the per-shape store, so clearing it frees them all;
        its token labels alone take megabytes."""
        text = Board.goal(300, 300).format()
        tracemalloc.start()
        try:
            assert Board.parse(text).is_goal()
            empty_store.clear()
            gc.collect()
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 64 * 1024


class TestInputHardening:
    def test_bool_label_rejected(self):
        with pytest.raises(ValueError, match="True"):
            Board(2, 2, (True, 2, 3, 4))

    def test_non_ascii_digit_rejected(self):
        with pytest.raises(ParseError, match="invalid tile"):
            Board.parse("1 2\n\u0663 0")

    def test_zero_padded_zero_named_as_written(self):
        with pytest.raises(ParseError, match="tile 00 outside 1..3"):
            Board.parse("1 2\n3 00")

    def test_negative_zero_named_as_written(self):
        with pytest.raises(ParseError, match="invalid tile '-0'"):
            Board.parse("1 2\n3 -0")

    def test_overlong_tile_is_a_parse_error(self):
        # int() itself refuses strings of more than 4300 digits.
        with pytest.raises(ParseError, match="outside 1..3"):
            Board.parse("1 2\n0 " + "9" * 5000)

    def test_zero_padded_tile_accepted(self):
        assert Board.parse("1 2\n0003 0") == Board(2, 2, (1, 2, 3, 4))


def token_loop_parse(text: str) -> Board:
    """Board.parse as it read every token one at a time, before its fast
    path: the reference for its messages. The board comes from the
    validated public constructor."""
    rows = [line.split() for line in text.splitlines() if line.strip()]
    if not rows:
        raise ParseError("empty board")
    width = len(rows[0])
    for row in rows:
        if len(row) != width:
            raise ParseError(f"ragged rows: expected {width} columns, got {len(row)}")
    height = len(rows)
    if width < 2 or height < 2:
        raise ParseError("board must be at least 2x2")
    n = width * height
    cells = []
    seen = bytearray(n + 1)
    blank_seen = False
    for tok in (tok for row in rows for tok in row):
        if tok in ("0", "_"):
            if seen[n]:
                raise ParseError("more than one blank")
            seen[n] = 1
            blank_seen = True
            cells.append(n)
            continue
        if not (tok.isascii() and tok.isdigit()):
            raise ParseError(f"invalid tile {tok!r}")
        v = int(tok) if len(tok.lstrip("0")) <= len(str(n)) else 0
        if not 1 <= v <= n:
            raise ParseError(f"tile {tok} outside 1..{n - 1}")
        if seen[v]:
            raise ParseError(f"duplicate tile {v}")
        seen[v] = 1
        cells.append(v)
    if not blank_seen:
        raise ParseError("missing blank (0 or _)")
    return Board(width, height, tuple(cells))


@st.composite
def board_texts(draw):
    """A valid board's text with up to four token edits: leading zeros, a
    duplicate, a second blank or a missing one, a stray token, and ragged
    rows; rows are joined by assorted whitespace and blank lines."""
    width, height = draw(st.sampled_from([(2, 2), (3, 2), (2, 3), (3, 3), (4, 4), (5, 2)]))
    n = width * height
    cells = draw(st.permutations(range(1, n + 1)))
    tokens = [draw(st.sampled_from(["0", "_"])) if v == n else str(v) for v in cells]
    for _ in range(draw(st.integers(0, 4))):
        index = st.integers(0, len(tokens) - 1)
        i = draw(index)
        edit = draw(st.sampled_from(["pad", "copy", "blank", "label n", "stray", "drop", "add"]))
        if edit == "pad":
            tokens[i] = "0" * draw(st.integers(1, 3)) + tokens[i]
        elif edit == "copy":
            tokens[i] = tokens[draw(index)]
        elif edit == "blank":
            tokens[i] = draw(st.sampled_from(["0", "_"]))
        elif edit == "label n":
            tokens[i] = str(n)
        elif edit == "stray":
            stray = ["x", "-1", "+3", "1_0", "\u0663", str(n + 1), "9" * 30]
            tokens[i] = draw(st.sampled_from(stray))
        elif edit == "drop" and len(tokens) > 1:
            del tokens[i]
        elif edit == "add":
            tokens.insert(i, draw(st.sampled_from(["1", "0", "_", "01"])))
    rows = [tokens[k : k + width] for k in range(0, len(tokens), width)]
    sep = st.sampled_from([" ", "  ", "\t"])
    lines = [draw(sep).join(row) for row in rows]
    if draw(st.booleans()):
        lines.insert(draw(st.integers(0, len(lines))), draw(st.sampled_from(["", "  "])))
    return "\n".join(lines)


class TestTrustedConstruction:
    """``parse`` and ``apply_move`` build boards without re-validating them."""

    @settings(max_examples=400)
    @given(board_texts())
    def test_parse_matches_the_token_loop(self, text):
        try:
            expected = token_loop_parse(text)
        except ParseError as exc:
            with pytest.raises(ParseError) as got:
                Board.parse(text)
            assert str(got.value) == str(exc)
            return
        board = Board.parse(text)
        assert board == expected
        assert board.blank_index == expected.blank_index
        assert type(board.cells) is tuple

    @given(boards, st.lists(st.sampled_from(MOVE_ORDER), max_size=40))
    def test_apply_move_chain_matches_validated_construction(self, b, moves):
        for move in moves:
            if move not in b.legal_moves():
                continue
            b = b.apply_move(move)
            fresh = Board(b.width, b.height, b.cells)
            assert b == fresh
            assert b.blank_index == fresh.blank_index
            assert type(b.cells) is tuple
        assert b.is_goal() == (b.cells == tuple(range(1, b.size + 1)))


class TestPermutationBridge:
    def test_fig3_cycles(self, fig3_board):
        assert str(fig3_board.to_permutation().cycles()) == FIG3_CYCLES

    def test_lloyd_is_the_target_swap(self, lloyd_board):
        assert lloyd_board.to_permutation() == Permutation.transposition(16, 14, 15)

    def test_from_permutation_identity(self):
        assert Board.from_permutation(Permutation.identity(16), 4, 4) == Board.goal(4, 4)

    def test_from_permutation_fig3(self, fig3_board):
        a = Permutation.parse("(1 3 13 15)(4 9 10 11 8 5 6 7 12)", 16)
        assert Board.from_permutation(a, 4, 4) == fig3_board

    def test_degree_mismatch(self):
        with pytest.raises(ValueError, match="degree"):
            Board.from_permutation(Permutation.identity(9), 4, 4)

    @given(boards)
    def test_round_trip(self, b):
        assert Board.from_permutation(b.to_permutation(), b.width, b.height) == b


class TestMoves:
    def test_lloyd_blank_in_corner(self, lloyd_board):
        assert lloyd_board.legal_moves() == {Move.UP, Move.LEFT}

    def test_center_blank_has_all_four(self):
        b = Board(3, 3, (1, 2, 3, 4, 9, 5, 6, 7, 8))
        assert b.legal_moves() == set(MOVE_ORDER)

    def test_2x2_always_two_moves(self):
        rng = random.Random(7)
        for _ in range(20):
            assert len(random_board(2, 2, rng).legal_moves()) == 2

    def test_large_board_reads_no_move_table(self):
        # A single board's moves are worked out from the blank's row and
        # column, so no per-shape table is built, read or cached (the move
        # table traced about 190 B per cell); what is traced is the
        # boards' copies of the cells, 8 B per reference.
        width, height = 199, 201
        b = Board.goal(width, height)
        before = set(_TABLES)
        tracemalloc.start()
        try:
            moves = b.legal_moves()
            after = b.apply_move(Move.UP)
            walked = b.apply_sequence([Move.UP, Move.LEFT])
            report = verify_sequence(b, [Move.LEFT, Move.DOWN])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert moves == {Move.UP, Move.LEFT}
        assert after.blank_index == b.blank_index - width
        assert walked.blank_index == b.blank_index - width - 1
        assert report.failed_index == 1
        assert set(_TABLES) == before
        assert peak < 40 * width * height

    @given(boards)
    def test_move_count_matches_blank_position_class(self, b):
        row, col = divmod(b.blank_index - 1, b.width)
        on_edges = (row in (0, b.height - 1)) + (col in (0, b.width - 1))
        assert len(b.legal_moves()) == 4 - on_edges

    def test_blank_up_from_goal(self):
        after = Board.goal(4, 4).apply_move(Move.UP)
        assert after.blank_index == 12
        assert after.cells[15] == 12
        assert after.to_permutation() == Permutation.transposition(16, 16, 12)

    def test_illegal_move_names_direction(self):
        with pytest.raises(IllegalMoveError, match="DOWN"):
            Board.goal(4, 4).apply_move(Move.DOWN)

    @pytest.mark.parametrize("item", ["U", "UL", 0, None, ["U"]])
    def test_non_move_names_the_item(self, item):
        with pytest.raises(IllegalMoveError, match="not a Move") as exc:
            Board.goal(3, 3).apply_move(item)
        assert repr(item) in str(exc.value)
        assert exc.value.move == item

    @given(boards)
    def test_moves_invert(self, b):
        for m in b.legal_moves():
            assert b.apply_move(m).apply_move(m.inverse) == b

    def test_move_transposition_lloyd_up(self, lloyd_board):
        assert lloyd_board.move_transposition(Move.UP) == Permutation.transposition(16, 16, 12)

    def test_move_transposition_goal_left(self):
        assert Board.goal(4, 4).move_transposition(Move.LEFT) == Permutation.transposition(16, 16, 15)

    def test_move_transposition_illegal(self):
        with pytest.raises(IllegalMoveError):
            Board.goal(4, 4).move_transposition(Move.RIGHT)

    def test_action_compatibility(self):
        # The central theorem: applying a move on cells equals left-composing
        # the move's label transposition onto the configuration. On every
        # blank cell, a legal move is a one-step apply_sequence; any other
        # item raises _illegal's error, with no index.
        rng = random.Random(6)
        for width, height in [(2, 2), (2, 3), (3, 2), (3, 3), (4, 4)]:
            n = width * height
            for blank in range(n):
                cells = list(random_board(width, height, rng).cells)
                k = cells.index(n)
                cells[k], cells[blank] = cells[blank], n
                b = Board(width, height, tuple(cells))
                for m in (*MOVE_ORDER, "U", None):
                    if m in b.legal_moves():
                        after = b.apply_move(m)
                        assert after == b.apply_sequence([m])
                        rhs = b.move_transposition(m).compose(b.to_permutation())
                        assert rhs == after.to_permutation()
                        continue
                    for single in (b.apply_move, b.move_transposition):
                        with pytest.raises(IllegalMoveError) as exc:
                            single(m)
                        assert str(exc.value) == str(_illegal(m))
                        assert (exc.value.move, exc.value.index) == (m, None)

    @given(boards)
    def test_every_move_is_odd_and_flips_both_parities(self, b):
        n = b.size
        w, h = b.width, b.height

        def blank_dist(board):
            r, c = divmod(board.blank_index - 1, w)
            return (h - 1 - r) + (w - 1 - c)

        for m in b.legal_moves():
            assert b.move_transposition(m).sign() is Parity.ODD
            after = b.apply_move(m)
            assert after.to_permutation().sign() is b.to_permutation().sign() * Parity.ODD
            assert abs(blank_dist(after) - blank_dist(b)) == 1


class TestSequences:
    def test_empty_sequence(self, fig3_board):
        assert fig3_board.apply_sequence([]) == fig3_board

    def test_inverse_pair(self):
        g = Board.goal(4, 4)
        assert g.apply_sequence([Move.UP, Move.DOWN]) == g

    def test_illegal_index_reported(self):
        g = Board.goal(4, 4)
        with pytest.raises(IllegalMoveError) as exc:
            g.apply_sequence([Move.UP, Move.UP, Move.UP, Move.UP])
        assert exc.value.index == 3

    def test_non_move_index_reported(self):
        g = Board.goal(3, 3)
        message = "illegal move at index 1: not a Move: 'L'"
        with pytest.raises(IllegalMoveError, match=message) as exc:
            g.apply_sequence([Move.UP, "L"])
        assert exc.value.index == 1
        assert exc.value.move == "L"

    def test_matches_transposition_chain(self, fig3_board):
        # Replaying moves on cells equals the chained left-multiplication
        # of their transpositions onto the starting configuration.
        rng = random.Random(11)
        b = fig3_board
        p = fig3_board.to_permutation()
        for _ in range(12):
            m = rng.choice(sorted(b.legal_moves(), key=MOVE_ORDER.index))
            p = b.move_transposition(m).compose(p)
            b = b.apply_move(m)
        assert Board.from_permutation(p, 4, 4) == b


def fold_apply_move(board, moves):
    """A sequence replayed one ``apply_move`` at a time: the board
    reached, and the first illegal step's index and error, or None."""
    for k, move in enumerate(moves):
        try:
            board = board.apply_move(move)
        except IllegalMoveError as exc:
            return board, k, exc
    return board, None, None


replay_boards = st.tuples(st.integers(2, 5), st.integers(2, 5)).flatmap(
    lambda wh: st.permutations(tuple(range(1, wh[0] * wh[1] + 1))).map(
        lambda cells: Board(wh[0], wh[1], tuple(cells))
    )
)
# Mostly moves, with the odd item that is not a Move.
replay_items = st.sampled_from([*MOVE_ORDER] * 6 + ["U", 0, None, ("U",), True, 1.5])


class TestReplayMatchesTheFold:
    """``apply_sequence`` and ``verify_sequence`` walk one list of cells;
    both must agree with a fold of ``apply_move``."""

    @settings(max_examples=300)
    @given(replay_boards, st.lists(replay_items, max_size=60), st.booleans())
    def test_apply_sequence(self, start, moves, as_iterator):
        reached, k, exc = fold_apply_move(start, moves)
        seq = iter(moves) if as_iterator else moves
        if k is None:
            board = start.apply_sequence(seq)
            assert board == reached
            assert board.blank_index == reached.blank_index
            assert type(board.cells) is tuple
            return
        with pytest.raises(IllegalMoveError) as got:
            start.apply_sequence(seq)
        assert str(got.value) == f"illegal move at index {k}: {exc}"
        assert got.value.index == k
        assert got.value.move is moves[k]

    @settings(max_examples=300)
    @given(replay_boards, st.lists(replay_items, max_size=60), st.booleans())
    def test_verify_sequence(self, start, moves, as_iterator):
        reached, k, _ = fold_apply_move(start, moves)
        report = verify_sequence(start, iter(moves) if as_iterator else moves)
        assert report.reached == reached
        assert report.reached.blank_index == reached.blank_index
        assert report.failed_index == k
        assert report.solved == (k is None and reached.is_goal())

    def test_verify_solved_and_failed(self):
        b, moves = scramble(4, 4, 40, 7)
        back = [m.inverse for m in reversed(moves)]
        assert verify_sequence(b, back).solved
        # The blank ends on the goal's corner, so one more DOWN is illegal.
        report = verify_sequence(b, [*back, Move.DOWN, Move.UP])
        assert (report.solved, report.failed_index) == (False, len(back))
        assert report.reached == Board.goal(4, 4)


# sha256 of format() + "\n" + format_moves() + "\n" for each scramble of a
# shape, over steps 0, 1, 2, 40, 300 and seeds 0, 7, 123 (steps outer),
# recorded before scramble walked a cell list instead of a board per move.
SCRAMBLE_DIGESTS = {
    (2, 2): "bd74a16f7ea929c4934e299f338955635836642e5bba389ba49bbd596dbfbaae",
    (3, 2): "f7c06a062d89f314df363441ab8c3c8d675e2aef6c355b5b404c441a9f977d87",
    (3, 3): "8e8fc47154d00255fea1fb878d6601408be84d92e362280ff4bc39eff9c65d4a",
    (4, 4): "4f9afa51eb1256807569b04efe84704b87ca6ac34d2963f3c6e0d007d1a38053",
    (5, 3): "2c858afc88e1481d3fe1d70a4cd5a30d4afb4d16686b53311a83b6d935a94e9e",
    (3, 5): "0a583dd74616fc7035301b82ea855d721431041d51f53986df6baa9fa8ad4cc3",
    (8, 2): "087cc049c228aaebcf3e85a57f3730104e6929e0d58aee299329ed3c856efd4d",
    (2, 8): "6270d7bba5f6f3fba1237f4bbdc8692ca9780c9bf5944b3961fd065478f10b02",
    (20, 20): "b78188b66df636e4d1f44a703528b118208072aa6a6c5070d21b0c9470aaaee6",
}


class TestScramble:
    @pytest.mark.parametrize("shape", SCRAMBLE_DIGESTS)
    def test_output_pinned_byte_for_byte(self, shape):
        digest = hashlib.sha256()
        for steps in (0, 1, 2, 40, 300):
            for seed in (0, 7, 123):
                b, moves = scramble(*shape, steps, seed)
                digest.update(f"{b.format()}\n{format_moves(moves)}\n".encode())
        assert digest.hexdigest() == SCRAMBLE_DIGESTS[shape]

    def test_steps_checked_before_dimensions(self):
        with pytest.raises(ValueError, match="^steps must be non-negative$"):
            scramble(1, 4, -1, 0)
        with pytest.raises(ValueError, match="^board dimensions must be at least 2x2$"):
            scramble(1, 4, 3, 0)

    def test_result_is_a_valid_board(self):
        b, _ = scramble(5, 3, 77, 2)
        fresh = Board(b.width, b.height, b.cells)
        assert b == fresh
        assert b.blank_index == fresh.blank_index
        assert type(b.cells) is tuple

    def test_zero_steps(self):
        b, seq = scramble(4, 4, 0, 123)
        assert b == Board.goal(4, 4)
        assert seq == []

    def test_deterministic(self):
        assert scramble(4, 4, 100, 42) == scramble(4, 4, 100, 42)

    def test_sequence_is_a_witness(self):
        b, seq = scramble(3, 3, 50, 9)
        assert Board.goal(3, 3).apply_sequence(seq) == b

    def test_never_undoes_previous_move(self):
        _, seq = scramble(4, 4, 300, 5)
        assert all(b is not a.inverse for a, b in zip(seq, seq[1:]))

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError):
            scramble(3, 3, -1, 0)


class TestMoveText:
    def test_round_trip(self):
        seq = [Move.UP, Move.LEFT, Move.DOWN, Move.RIGHT]
        assert parse_moves(format_moves(seq)) == seq

    def test_bad_token(self):
        with pytest.raises(ParseError, match="invalid move token"):
            parse_moves("U X")
