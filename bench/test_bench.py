"""Tests of the benchmark's own pieces: python3 -m pytest bench"""

from __future__ import annotations

import collections
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from run import Board, Case, Outcome, Tally, attempt, check_answer  # noqa: E402
from permpuzzle import SearchResult  # noqa: E402
from spans import PARENT, BOARD, Tracer, layer_self_time, self_times  # noqa: E402


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(100) == 90
    assert run.tail_percentile(99) == 89
    assert run.tail_percentile(1000) == 99
    assert run.tail_percentile(20) == 50
    assert run.tail_percentile(10) == 0


def span(name, start, end, parent=-1):
    return [name, start, end, parent, 0, "main", None]


def test_self_time_subtracts_nested_children():
    spans = [
        span("bench.board", 0.0, 10.0),
        span("board.parse", 1.0, 3.0, parent=0),
        span("solver.ida_star", 4.0, 9.0, parent=0),
        span("heuristics.h", 5.0, 6.0, parent=2),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 4.0, 1.0])
    assert layer_self_time(spans) == pytest.approx(
        {"bench": 3.0, "board": 2.0, "solver": 4.0, "heuristics": 1.0})


def test_self_time_counts_overlapping_children_once():
    spans = [span("a.x", 0.0, 10.0), span("b.y", 2.0, 6.0, 0), span("b.z", 4.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(2.0)


def test_tracer_links_parents_and_shares_board_id():
    tracer = Tracer(True)
    with tracer.span("bench.board", board=7):
        with tracer.span("board.parse"):
            pass
    with tracer.span("bench.tour", board=8):
        pass
    assert [s[PARENT] for s in tracer.spans] == [-1, 0, -1]
    assert [s[BOARD] for s in tracer.spans] == [7, 7, 8]
    off = Tracer(False)
    with off.span("board.parse"):
        pass
    assert off.spans == []


def scramble_case(**kw):
    return Case(0, "1 2\n3 0", True, witness=kw.pop("witness", 6), **kw)


def test_checker_rejects_wrong_length():
    right = Outcome(0.0, None, 4)
    assert check_answer(scramble_case(ref_length=4), right, True, 2) is None
    assert "reference" in check_answer(scramble_case(ref_length=6), right, True, 2)
    assert "exact" in check_answer(scramble_case(exact=2), right, True, 2)
    assert "outside" in check_answer(scramble_case(), right, True, 5)
    assert "parity" in check_answer(scramble_case(), Outcome(0.0, None, 5), True, 1)
    assert "replay" in check_answer(scramble_case(), right, False, 2)


def test_checker_rejects_missing_unsolvable_error():
    unsolvable = Case(0, "2 1\n3 0", False)
    found = attempt(lambda case: SearchResult((), 0, 0.0), unsolvable)
    assert found.failure == "missing UnsolvableError"
    assert attempt(lambda case: None, unsolvable).failure is None
    solve = run.OracleWorkload().solve_fn(Tracer(False))
    assert attempt(solve, unsolvable).failure is None


def test_fail_frac_counts_exceptions():
    def solve(case):
        if case.index == 2:
            raise ValueError("boom")
        return run.ida_star(Board.parse(case.text), "manhattan")

    cases = [Case(i, "1 2\n0 3", True) for i in range(4)]
    tally = Tally()
    samples = []
    for case in cases:
        outcome = attempt(solve, case)
        samples.append([outcome.seconds])
        tally.add(f"board {case.index}", outcome.failure)
    assert tally.failures == ["board 2: ValueError: boom"]
    metrics = run.end_to_end(cases, samples, 1.0, 20.0, tally)
    assert metrics["ok_frac"]["value"] == pytest.approx(0.75)


def test_oracle_draws_share_one_distance_mix():
    dist = run.distances_3x3()
    assert len(dist) == 181440 and max(dist.values()) == 31
    mixes = []
    for seed in (0, 1):
        cases = run.draw_3x3(seed, 100, dist)
        assert sum(c.solvable for c in cases) == 100 == sum(not c.solvable for c in cases)
        for case in cases:
            assert run.certificate(Board.parse(case.text)).solvable == case.solvable
        mixes.append(collections.Counter(c.exact for c in cases if c.solvable))
    assert mixes[0] == mixes[1]
    assert [c.text for c in run.draw_3x3(0, 100, dist)] == [c.text for c in
                                                         run.draw_3x3(0, 100, dist)]


def test_compare_verdicts_and_wins():
    import compare

    parent = [1.0, 1.01, 0.99, 1.0, 1.02]
    assert compare.verdict(parent, [1.4, 1.41, 1.39, 1.4, 1.42], True, 0.25) == "REGRESSION"
    assert compare.verdict(parent, [1.1, 1.11, 1.09, 1.1, 1.12], True, 0.25) == "ok"
    assert compare.verdict(parent, [1.4, 1.41, 1.39, 1.4, 1.42], False, 0.25) == "ok"
    wide = [0.5, 1.0, 1.5, 1.0, 2.0]
    assert compare.verdict(wide, [1.0, 1.2, 0.9, 1.1, 1.0], True, 0.25) == "unresolved"
    assert compare.verdict(wide, [0.3, 0.31, 0.29, 0.3, 0.3], True, 0.25) == "ok"
    assert compare.win_rate({0: 1.0, 1: 1.0, 2: 2.0}, {0: 0.9, 1: 1.0, 3: 0.1}, True) == "1/2"
