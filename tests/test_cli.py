from __future__ import annotations

import random

import pytest
from click.testing import CliRunner

from permpuzzle import (
    Board,
    Move,
    ParseError,
    ResourceLimitError,
    UnsolvableError,
    bfs_optimal,
    certificate,
    parse_moves,
    pattern_db,
    scramble,
    verify_sequence,
)
from permpuzzle.cli import main

from conftest import FIG3_CYCLES, FIG3_TEXT, LLOYD_TEXT


@pytest.fixture
def runner():
    return CliRunner()


def test_version_without_package_metadata(runner):
    result = runner.invoke(main, ["--version"])
    assert result.exit_code == 0
    assert "0.1.0" in result.stdout


class TestSolvable:
    def test_lloyd_exits_one(self, runner, tmp_path):
        path = tmp_path / "lloyd.txt"
        path.write_text(LLOYD_TEXT)
        result = runner.invoke(main, ["solvable", str(path)])
        assert result.exit_code == 1
        assert "config_parity=Odd" in result.stdout
        assert "blank_parity=Even" in result.stdout
        assert "solvable=false" in result.stdout

    def test_goal_on_stdin_exits_zero(self, runner):
        goal = Board.goal(4, 4).format()
        result = runner.invoke(main, ["solvable", "-"], input=goal)
        assert result.exit_code == 0
        assert "solvable=true" in result.stdout

    def test_malformed_board_exits_two(self, runner):
        result = runner.invoke(main, ["solvable", "-"], input="1 2\n3 3")
        assert result.exit_code == 2
        assert "error:" in result.stderr

    def test_missing_file_exits_two(self, runner, tmp_path):
        result = runner.invoke(main, ["solvable", str(tmp_path / "nope.txt")])
        assert result.exit_code == 2


class TestCycles:
    def test_fig3_golden(self, runner):
        result = runner.invoke(main, ["cycles", "-"], input=FIG3_TEXT)
        assert result.exit_code == 0
        assert result.stdout.splitlines()[0] == FIG3_CYCLES

    def test_goal_all_singletons(self, runner):
        result = runner.invoke(main, ["cycles", "-"], input=Board.goal(4, 4).format())
        expected = "".join(f"({i})" for i in range(1, 17))
        assert result.stdout.splitlines()[0] == expected

    def test_lloyd_contains_target_swap(self, runner):
        result = runner.invoke(main, ["cycles", "-"], input=LLOYD_TEXT)
        assert result.stdout.splitlines()[0].endswith("(13)(14 15)(16)")

    def test_two_line_flag(self, runner):
        result = runner.invoke(main, ["cycles", "--two-line", "-"], input=LLOYD_TEXT)
        lines = result.stdout.splitlines()
        assert lines[0].endswith("(14 15)(16)")
        assert lines[1].split() == [str(i) for i in range(1, 17)]
        assert lines[2].split()[13:15] == ["15", "14"]


class TestSolve:
    def test_lloyd_exits_one_with_certificate_on_stderr(self, runner):
        result = runner.invoke(main, ["solve", "-"], input=LLOYD_TEXT)
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "config_parity=Odd" in result.stderr
        assert "solvable=false" in result.stderr

    def test_goal_empty_move_line(self, runner):
        result = runner.invoke(main, ["solve", "-"], input=Board.goal(4, 4).format())
        lines = result.stdout.splitlines()
        assert result.exit_code == 0
        assert lines[0] == ""
        assert lines[1].startswith("length=0 nodes=0 time=")

    def test_matches_bfs_oracle(self, runner):
        from permpuzzle import scramble

        b, _ = scramble(3, 3, 30, 12)
        result = runner.invoke(main, ["solve", "-"], input=b.format())
        assert result.exit_code == 0
        moves_line, summary = result.stdout.splitlines()
        moves = parse_moves(moves_line)
        assert verify_sequence(b, moves).solved
        assert len(moves) == bfs_optimal(b).length
        assert f"length={len(moves)}" in summary

    def test_node_limit_exits_three(self, runner):
        from permpuzzle import scramble

        b, _ = scramble(3, 3, 60, 5)
        result = runner.invoke(main, ["solve", "--max-nodes", "3", "-"], input=b.format())
        assert result.exit_code == 3

    def test_time_limit_exits_three(self, runner):
        from permpuzzle import scramble

        b, _ = scramble(4, 4, 60, 5)
        result = runner.invoke(
            main, ["solve", "--heuristic", "manhattan", "--max-time", "0.0", "-"],
            input=b.format(),
        )
        assert result.exit_code == 3

    def test_pdb_heuristic_requires_paths(self, runner):
        result = runner.invoke(
            main, ["solve", "--heuristic", "pdb", "-"], input=Board.goal(3, 3).format()
        )
        assert result.exit_code == 2

    @pytest.mark.parametrize("chosen", [[], ["--heuristic", "manhattan"]],
                             ids=["default", "manhattan"])
    def test_pdb_paths_require_pdb_heuristic(self, runner, tmp_path, chosen):
        # The file is never opened: a missing path gives the same error.
        result = runner.invoke(
            main, ["solve", *chosen, "--pdb", str(tmp_path / "missing.spdb"), "-"],
            input=Board.goal(3, 3).format(),
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == "error: --pdb requires --heuristic pdb\n"

    @pytest.mark.parametrize("option", ["--max-nodes", "--max-time"])
    def test_negative_limit_exits_two(self, runner, option):
        result = runner.invoke(main, ["solve", option, "-1", "-"], input=LLOYD_TEXT)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "must be non-negative" in result.stderr

    def test_nan_time_limit_exits_two(self, runner):
        from permpuzzle import scramble

        b, _ = scramble(4, 4, 60, 3)
        result = runner.invoke(main, ["solve", "--max-time", "nan", "-"], input=b.format())
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "max_time must be non-negative" in result.stderr

    def test_limit_exit_prints_lower_bound(self, runner):
        from permpuzzle import linear_conflict, scramble

        b, _ = scramble(4, 4, 60, 3)
        result = runner.invoke(main, ["solve", "--max-nodes", "3", "-"], input=b.format())
        assert result.exit_code == 3
        assert result.stdout == ""
        # The first iteration's bound: h(start), proven to be reached.
        assert result.stderr.splitlines() == [
            "error: IDA* exceeded 3 expansions",
            f"lower_bound={linear_conflict(b)}",
        ]

    def test_path_past_the_recursion_limit_exits_three(self, runner, deep_board):
        result = runner.invoke(
            main, ["solve", "--heuristic", "manhattan", "-"], input=deep_board.format()
        )
        assert result.exit_code == 3
        assert result.stdout == ""
        error, bound = result.stderr.splitlines()
        assert error.startswith("error: IDA* search deeper than the recursion limit")
        assert bound == "lower_bound=1039"

    def test_pdb_for_other_dimensions_exits_two(self, runner, tmp_path):
        path = tmp_path / "p.spdb"
        runner.invoke(main, ["pdb-build", "-w", "3", "-h", "2", "--tiles", "1,2", "--out", str(path)])
        result = runner.invoke(
            main,
            ["solve", "--heuristic", "pdb", "--pdb", str(path), "-"],
            input=Board.goal(3, 3).format(),
        )
        assert result.exit_code == 2
        assert "error: heuristic is for 3x2, board is 3x3" in result.stderr

    def test_unknown_heuristic_rejected(self, runner):
        result = runner.invoke(
            main, ["solve", "--heuristic", "euclid", "-"], input=Board.goal(3, 3).format()
        )
        assert result.exit_code == 2

    def test_goal_board_past_the_table_ceiling_solves(self, runner):
        # Its Manhattan step table would pass the byte ceiling, but a goal board needs none.
        result = runner.invoke(
            main, ["solve", "--heuristic", "manhattan", "-"], input=Board.goal(155, 155).format()
        )
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1].startswith("length=0 nodes=0 ")

    def test_unsolvable_board_past_the_table_ceiling_exits_one(self, runner):
        cells = list(Board.goal(100, 100).cells)
        cells[0], cells[1] = cells[1], cells[0]
        result = runner.invoke(main, ["solve", "-"], input=Board(100, 100, tuple(cells)).format())
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "config_parity=Odd" in result.stderr
        assert "solvable=false" in result.stderr


class TestScramble:
    def test_zero_steps_prints_goal(self, runner):
        result = runner.invoke(main, ["scramble", "-w", "4", "-h", "4", "--steps", "0"])
        assert result.exit_code == 0
        assert result.stdout.strip() == Board.goal(4, 4).format()

    def test_deterministic(self, runner):
        args = ["scramble", "-w", "3", "-h", "3", "--steps", "25", "--seed", "9"]
        assert runner.invoke(main, args).stdout == runner.invoke(main, args).stdout

    def test_bad_dimensions(self, runner):
        for args in (["-w", "1", "-h", "4"], ["--steps", "-1"]):
            result = runner.invoke(main, ["scramble", *args])
            assert result.exit_code == 2, args
            assert result.stdout == ""


class TestVerify:
    def test_goal_with_empty_moves(self, runner, tmp_path):
        moves = tmp_path / "moves.txt"
        moves.write_text("")
        result = runner.invoke(
            main, ["verify", "--moves", str(moves), "-"], input=Board.goal(4, 4).format()
        )
        assert result.exit_code == 0
        assert "solved=true" in result.stdout

    def test_lloyd_any_sequence_fails(self, runner, tmp_path):
        moves = tmp_path / "moves.txt"
        moves.write_text("U L D R U L")
        result = runner.invoke(main, ["verify", "--moves", str(moves), "-"], input=LLOYD_TEXT)
        assert result.exit_code == 1
        assert "solved=false" in result.stdout

    def test_illegal_move_reports_index(self, runner, tmp_path):
        moves = tmp_path / "moves.txt"
        moves.write_text("U R U")
        result = runner.invoke(
            main, ["verify", "--moves", str(moves), "-"], input=Board.goal(4, 4).format()
        )
        assert result.exit_code == 1
        assert "failed_index=1" in result.stdout

    def test_bad_token_exits_two(self, runner, tmp_path):
        moves = tmp_path / "moves.txt"
        moves.write_text("U Q")
        result = runner.invoke(
            main, ["verify", "--moves", str(moves), "-"], input=Board.goal(4, 4).format()
        )
        assert result.exit_code == 2


class TestEnumerate:
    def test_2x3(self, runner):
        for width, height, expected in (
            ("3", "2", "count=360 max_depth=21"),
            ("3", "3", "count=181440 max_depth=31"),
        ):
            result = runner.invoke(main, ["enumerate", "-w", width, "-h", height])
            assert result.exit_code == 0
            assert result.stdout.strip() == expected

    def test_one_wide_exits_two(self, runner):
        result = runner.invoke(main, ["enumerate", "-w", "1", "-h", "5"])
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_default_4x4_exits_three(self, runner):
        result = runner.invoke(main, ["enumerate"])
        assert result.exit_code == 3


class TestPdbBuild:
    def test_build_and_solve(self, runner, tmp_path):
        from permpuzzle import scramble

        p1 = tmp_path / "a.spdb"
        p2 = tmp_path / "b.spdb"
        r1 = runner.invoke(
            main, ["pdb-build", "-w", "3", "-h", "3", "--tiles", "1,2,3,4", "--out", str(p1)]
        )
        r2 = runner.invoke(
            main, ["pdb-build", "-w", "3", "-h", "3", "--tiles", "5,6,7,8", "--out", str(p2)]
        )
        assert r1.exit_code == 0 and r2.exit_code == 0
        assert "entries=3024" in r1.stdout
        assert p1.exists() and p2.exists()

        b, _ = scramble(3, 3, 40, 31)
        result = runner.invoke(
            main,
            ["solve", "--heuristic", "pdb", "--pdb", str(p1), "--pdb", str(p2), "-"],
            input=b.format(),
        )
        assert result.exit_code == 0
        moves = parse_moves(result.stdout.splitlines()[0])
        assert verify_sequence(b, moves).solved
        assert len(moves) == bfs_optimal(b).length

    def test_bad_tiles_exit_two(self, runner, tmp_path):
        result = runner.invoke(
            main, ["pdb-build", "-w", "3", "-h", "3", "--tiles", "1,x", "--out", str(tmp_path / "o")]
        )
        assert result.exit_code == 2

    # Tokens that int() reads but Board.parse does not: '_' between digits,
    # a sign and a digit of another script. On 4x4 each would name a tile.
    @pytest.mark.parametrize("tiles", ["1_0", "+3", "\u0663", "1,+2", "-0", "9" * 5000])
    def test_tiles_are_ascii_digits_only(self, runner, tmp_path, tiles):
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["pdb-build", "-w", "4", "-h", "4", "--tiles", tiles, "--out", str(out)]
        )
        assert result.exit_code == 2
        assert result.stderr == f"error: invalid tile list {tiles!r}\n"
        assert not out.exists()

    def test_one_wide_exits_two(self, runner, tmp_path):
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["pdb-build", "-w", "1", "-h", "5", "--tiles", "1", "--out", str(out)]
        )
        assert result.exit_code == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "width, height, tiles", [("256", "2", "1"), ("20", "20", "300")]
    )
    def test_shape_the_format_cannot_store_exits_two(self, runner, tmp_path, width, height, tiles):
        out = tmp_path / "o"
        result = runner.invoke(
            main, ["pdb-build", "-w", width, "-h", height, "--tiles", tiles, "--out", str(out)]
        )
        assert result.exit_code == 2
        assert result.stderr.startswith("error:")
        assert not out.exists()

    def test_progress_lines_on_stderr(self, runner, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        args = ["pdb-build", "-w", "3", "-h", "2", "--tiles", "1,2", "--out"]
        quiet = runner.invoke(main, args + [str(a)])
        loud = runner.invoke(main, args + [str(b), "--progress"])
        assert loud.exit_code == quiet.exit_code == 0
        assert (quiet.stdout, quiet.stderr) == (f"entries=30 out={a}\n", "")
        assert loud.stdout == f"entries=30 out={b}\n"
        assert a.read_bytes() == b.read_bytes()
        lines = loud.stderr.splitlines()
        assert lines[0] == "layer=0 placements=1 states=4"
        assert all(
            line.startswith(f"layer={d} placements=") and " states=" in line
            for d, line in enumerate(lines)
        )

    def test_oversized_build_exits_three(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["pdb-build", "-w", "4", "-h", "4", "--tiles", "1,2,3,4,5,6,7", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == 3

    @pytest.fixture
    def small_table_over_the_ceiling(self, runner, tmp_path, monkeypatch, empty_store):
        """``solve`` under the 3x2 ``{1,2,3}`` table, whose 216-byte index
        is one byte over the ceiling."""
        out = tmp_path / "a.spdb"
        args = ["pdb-build", "-w", "3", "-h", "2", "--tiles", "1,2,3", "--out", str(out)]
        assert runner.invoke(main, args).exit_code == 0
        monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", 6**3 - 1)
        return lambda board: runner.invoke(
            main, ["solve", "--heuristic", "pdb", "--pdb", str(out), "-"], input=board.format()
        )

    def test_indexes_over_the_byte_ceiling_exit_three(self, small_table_over_the_ceiling):
        result = small_table_over_the_ceiling(Board.goal(3, 2).apply_move(Move.UP))
        assert result.exit_code == 3
        assert result.stderr.startswith("error: pattern indexes need 216 bytes")

    def test_goal_board_past_the_index_ceiling_exits_zero(self, small_table_over_the_ceiling):
        result = small_table_over_the_ceiling(Board.goal(3, 2))
        assert result.exit_code == 0
        assert result.stdout.splitlines()[1].startswith("length=0 nodes=0 ")

    def test_unsolvable_board_past_the_index_ceiling_exits_one(self, small_table_over_the_ceiling):
        cells = list(Board.goal(3, 2).cells)
        cells[0], cells[1] = cells[1], cells[0]
        result = small_table_over_the_ceiling(Board(3, 2, tuple(cells)))
        assert result.exit_code == 1
        assert result.stdout == ""
        assert "config_parity=Odd" in result.stderr
        assert "solvable=false" in result.stderr

    def test_heuristic_table_over_the_byte_ceiling_exits_three(self, runner, monkeypatch, empty_store):
        monkeypatch.setattr(pattern_db, "DEFAULT_MAX_BYTES", 3263)
        # One move from the goal: a goal board returns before any table is built.
        board = Board.goal(2, 2).apply_move(Move.UP)
        result = runner.invoke(
            main, ["solve", "--heuristic", "manhattan", "-"], input=board.format()
        )
        assert result.exit_code == 3
        assert result.stderr.startswith("error: Manhattan step table needs 3264 bytes")

    def test_corrupt_pdb_exits_two(self, runner, tmp_path):
        bad = tmp_path / "bad.spdb"
        bad.write_bytes(b"nonsense")
        result = runner.invoke(
            main,
            ["solve", "--heuristic", "pdb", "--pdb", str(bad), "-"],
            input=Board.goal(3, 3).format(),
        )
        assert result.exit_code == 2


class TestCorruptPdbFuzz:
    """``solve --heuristic pdb`` over damaged copies of a valid 3x2 file.

    Every outcome must be a stated one (exit 0-3, no uncaught exception);
    a damaged header or a truncated file is always exit 2. A damaged table
    entry may leave a valid file whose bound is no longer admissible, so a
    solve may exit 0 with a longer path, which must still solve the board.
    """

    HEADER = 8 + 3 + 8  # magic, version, w, h, k; 3 tile labels; table length

    @pytest.fixture(scope="class")
    def good(self, tmp_path_factory):
        from permpuzzle import build_pdb, save_pdb

        path = tmp_path_factory.mktemp("fuzz") / "good.spdb"
        save_pdb(build_pdb(3, 2, [1, 2, 3]), path)
        return path.read_bytes()

    @staticmethod
    def solve(runner, tmp_path, data, board):
        path = tmp_path / "damaged.spdb"
        path.write_bytes(bytes(data))
        result = runner.invoke(
            main,
            ["solve", "--heuristic", "pdb", "--pdb", str(path), "--max-nodes", "20000", "-"],
            input=board.format(),
        )
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code in (0, 1, 2, 3)
        if result.exit_code == 0:
            moves = parse_moves(result.stdout.splitlines()[0])
            assert verify_sequence(board, moves).solved
        return result.exit_code

    def test_every_truncation_exits_two(self, runner, tmp_path, good):
        from permpuzzle import scramble

        board, _ = scramble(3, 2, 30, 4)
        assert len(good) == self.HEADER + 120
        for size in range(len(good)):
            assert self.solve(runner, tmp_path, good[:size], board) == 2, size

    def test_byte_flips(self, runner, tmp_path, good):
        from permpuzzle import scramble

        rng = random.Random(5)
        for i in range(300):
            board, _ = scramble(3, 2, 30, i)
            data = bytearray(good)
            pos = i % self.HEADER if i < 3 * self.HEADER else rng.randrange(len(good))
            data[pos] = rng.choice([v for v in range(256) if v != good[pos]])
            code = self.solve(runner, tmp_path, data, board)
            if pos < self.HEADER:
                assert code == 2, (pos, data[pos])


class TestNonUtf8Input:
    """Bytes that are not UTF-8 are an input error (exit 2), not a traceback."""

    BAD = b"\xff\xfe\x00"

    @pytest.mark.parametrize("command", [["solvable"], ["cycles"], ["solve"]])
    def test_board_file(self, runner, tmp_path, command):
        path = tmp_path / "board.txt"
        path.write_bytes(self.BAD)
        result = runner.invoke(main, [*command, str(path)])
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code == 2
        assert result.stderr.startswith(f"error: cannot read {path}")

    @pytest.mark.parametrize("command", [["solvable"], ["cycles"], ["solve"]])
    def test_board_on_stdin(self, runner, command):
        result = runner.invoke(main, [*command, "-"], input=self.BAD)
        assert result.exit_code == 2
        assert result.stderr.startswith("error: cannot read -")

    def test_verify_board(self, runner, tmp_path):
        board, moves = tmp_path / "board.txt", tmp_path / "moves.txt"
        board.write_bytes(self.BAD)
        moves.write_text("U")
        result = runner.invoke(main, ["verify", "--moves", str(moves), str(board)])
        assert result.exit_code == 2
        assert result.stdout == ""

    def test_verify_move_file(self, runner, tmp_path):
        moves = tmp_path / "moves.txt"
        moves.write_bytes(b"U L " + self.BAD)
        result = runner.invoke(
            main, ["verify", "--moves", str(moves), "-"], input=Board.goal(3, 3).format()
        )
        assert result.exception is None or isinstance(result.exception, SystemExit)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith(f"error: cannot read {moves}")


class TestMalformedInputFuzz:
    """Damaged boards and move files through every command that reads them.

    Starting from a valid 3x3 board and move file, each case is a
    truncation, a random byte string, a ragged copy (a token dropped or
    added) or a copy with one token replaced by a bad one. Every outcome
    must be a stated one: exit 0-3 and no uncaught exception; a board
    that parses and solves prints moves that solve it.
    """

    BAD_TOKENS = ["x", "-1", "+3", "1.5", "99", "1_0", "\u0663", "0x1", "__",
                  "\x00", "9" * 5000, "UU", "u", "\ufeff", "\u00a0"]

    @staticmethod
    def mutants(text: str, rng: random.Random):
        for size in range(len(text)):
            yield text[:size].encode()
        for _ in range(40):
            yield bytes(rng.randrange(256) for _ in range(rng.randrange(1, 40)))
        # Ragged rows (a token dropped or added), then each bad token three
        # times in place of one token.
        edits = ["drop", "add"] * 10 + TestMalformedInputFuzz.BAD_TOKENS * 3
        for edit in edits:
            rows = [line.split() for line in text.splitlines()]
            row = rng.choice(rows)
            if edit == "drop":
                row.pop(rng.randrange(len(row)))
            elif edit == "add":
                row.insert(rng.randrange(len(row) + 1), rng.choice(["1", "5", "0", "_"]))
            else:
                row[rng.randrange(len(row))] = edit
            yield "\n".join(" ".join(r) for r in rows).encode()

    @staticmethod
    def run(runner, args, stdin=None):
        result = runner.invoke(main, args, input=stdin)
        assert result.exception is None or isinstance(result.exception, SystemExit), (
            args, stdin, result.exception)
        assert result.exit_code in (0, 1, 2, 3), (args, stdin)
        return result

    def test_boards(self, runner, tmp_path):
        from permpuzzle import scramble

        board, moves = scramble(3, 3, 30, 7)
        good_moves = tmp_path / "moves.txt"
        good_moves.write_text(" ".join(m.value for m in moves))
        text = board.format() + "\n"
        path = tmp_path / "board.txt"
        rng = random.Random(11)
        for i, data in enumerate(self.mutants(text, rng)):
            path.write_bytes(data)
            source, stdin = (str(path), None) if i % 2 else ("-", data)
            for command in (["solvable"], ["cycles"], ["verify", "--moves", str(good_moves)]):
                self.run(runner, [*command, source], stdin)
            result = self.run(runner, ["solve", "--max-nodes", "20000", source], stdin)
            if result.exit_code == 0:
                parsed = Board.parse(data.decode())
                solution = parse_moves(result.stdout.splitlines()[0])
                assert verify_sequence(parsed, solution).solved

    def test_move_files(self, runner, tmp_path):
        from permpuzzle import scramble

        board, _ = scramble(3, 3, 30, 7)
        moves = bfs_optimal(board).moves
        text = " ".join(m.value for m in moves) + "\n"
        path = tmp_path / "moves.txt"
        rng = random.Random(13)
        for data in self.mutants(text, rng):
            path.write_bytes(data)
            self.run(runner, ["verify", "--moves", str(path), "-"], board.format())


class TestPipeline:
    def test_scramble_solve_verify_round_trip(self, runner, tmp_path):
        for seed in (0, 1, 2):
            scrambled = runner.invoke(
                main,
                ["scramble", "-w", "3", "-h", "3", "--steps", "30", "--seed", str(seed)],
            )
            assert scrambled.exit_code == 0
            board_text = scrambled.stdout

            solved = runner.invoke(main, ["solve", "-"], input=board_text)
            assert solved.exit_code == 0
            moves_path = tmp_path / f"moves{seed}.txt"
            moves_path.write_text(solved.stdout.splitlines()[0])

            verified = runner.invoke(
                main, ["verify", "--moves", str(moves_path), "-"], input=board_text
            )
            assert verified.exit_code == 0
            assert "solved=true" in verified.stdout


class TestErrorContract:
    """Every command maps each library error to its exit code and stderr.

    The one library call a command makes is patched to raise; the board,
    moves and files handed to it are valid, so the error comes only from
    that call.
    """

    LLOYD = certificate(Board.parse(LLOYD_TEXT))
    ERRORS = {
        "value": (ValueError("x"), 2, "error: x\n"),
        "parse": (ParseError("x"), 2, "error: x\n"),
        "limit": (ResourceLimitError("x"), 3, "error: x\n"),
        "bound": (ResourceLimitError("x", lower_bound=7), 3, "error: x\nlower_bound=7\n"),
        "unsolvable": (UnsolvableError("x", certificate=LLOYD), 1,
                       "\n".join(LLOYD.lines()) + "\n"),
    }
    # The call each command makes, patched to raise, and the command's arguments.
    COMMANDS = {
        "solvable": ("permpuzzle.cli.certificate", ["solvable", "-"]),
        "cycles": ("permpuzzle.board.Board.to_permutation", ["cycles", "-"]),
        "solve": ("permpuzzle.cli.ida_star", ["solve", "-"]),
        "solve-pdb": ("permpuzzle.cli.load_pdb",
                      ["solve", "--heuristic", "pdb", "--pdb", "a.spdb", "-"]),
        "scramble": ("permpuzzle.cli.scramble", ["scramble"]),
        "verify": ("permpuzzle.cli.verify_sequence", ["verify", "--moves", "MOVES", "-"]),
        "enumerate": ("permpuzzle.cli.reachable_states", ["enumerate", "-w", "2", "-h", "2"]),
        "pdb-build": ("permpuzzle.cli.build_pdb",
                      ["pdb-build", "-w", "3", "-h", "2", "--tiles", "1", "--out", "OUT"]),
    }

    @pytest.mark.parametrize("error", ERRORS)
    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_error_type_exits_with_its_code(self, runner, tmp_path, monkeypatch,
                                                 command, error):
        target, args = self.COMMANDS[command]
        exc, code, stderr = self.ERRORS[error]

        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(target, fail)
        moves = tmp_path / "moves.txt"
        moves.write_text("")
        paths = {"MOVES": str(moves), "OUT": str(tmp_path / "out.spdb")}
        result = runner.invoke(
            main, [paths.get(arg, arg) for arg in args], input=Board.goal(3, 3).format()
        )
        assert isinstance(result.exception, SystemExit), result.exception
        assert result.exit_code == code
        assert result.stdout == ""
        assert result.stderr == stderr
        assert not (tmp_path / "out.spdb").exists()


class TestCiErrorOutputs:
    """The error outputs the CI workflow's smoke steps pin, byte for byte."""

    @pytest.mark.parametrize("width, height, states", [
        ("5", "2", "1814400"), ("4", "4", "10461394944000"),
    ])
    def test_enumerate_past_the_ceiling(self, runner, width, height, states):
        result = runner.invoke(main, ["enumerate", "-w", width, "-h", height])
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == (
            f"error: {width}x{height} has {states} reachable states, over the 1000000 ceiling\n"
        )

    @pytest.fixture
    def seed7(self):
        return scramble(4, 4, 40, 7)[0].format()

    def test_deadline_already_past(self, runner, seed7):
        result = runner.invoke(main, ["solve", "--max-time", "0", "-"], input=seed7)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr == "error: IDA* exceeded 0.0s\nlower_bound=24\n"

    def test_node_cap(self, runner, seed7):
        result = runner.invoke(main, ["solve", "--max-nodes", "1000", "-"], input=seed7)
        assert result.exit_code == 3
        assert result.stdout == ""
        assert result.stderr.splitlines()[-1] == "lower_bound=30"

    @pytest.fixture(scope="class")
    def table(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("ci") / "t.spdb"
        result = CliRunner().invoke(
            main, ["pdb-build", "-w", "3", "-h", "3", "--tiles", "1,2,3", "--out", str(path)]
        )
        assert result.exit_code == 0
        return path

    def pdb_solve(self, runner, shape, paths):
        board = scramble(shape, shape, 20, 1)[0].format()
        args = ["solve", "--heuristic", "pdb"]
        for path in paths:
            args += ["--pdb", str(path)]
        return runner.invoke(main, [*args, "-"], input=board)

    def test_truncated_table(self, runner, tmp_path, table):
        cut = tmp_path / "cut.spdb"
        cut.write_bytes(table.read_bytes()[:100])
        result = self.pdb_solve(runner, 3, [cut])
        assert result.exit_code == 2
        assert result.stderr == "error: truncated table: expected 504 bytes, got 81\n"

    def test_table_for_another_shape(self, runner, table):
        result = self.pdb_solve(runner, 4, [table])
        assert result.exit_code == 2
        assert result.stderr == "error: heuristic is for 3x3, board is 4x4\n"

    def test_one_table_twice(self, runner, table):
        result = self.pdb_solve(runner, 3, [table, table])
        assert result.exit_code == 2
        assert result.stderr == (
            "error: patterns overlap on tiles [1, 2, 3]; additivity requires disjoint patterns\n"
        )
