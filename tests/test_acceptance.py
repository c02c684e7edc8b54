"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines and
the reported wall times.
"""

from __future__ import annotations

import random
import statistics
import time
from itertools import permutations

import pytest
from click.testing import CliRunner

from permpuzzle import (
    Board,
    Parity,
    Permutation,
    bfs_optimal,
    build_pdb,
    certificate,
    ida_star,
    is_solvable,
    linear_conflict,
    load_pdb,
    pdb_heuristic,
    reachable_states,
    save_pdb,
    scramble,
    verify_sequence,
)
from permpuzzle.cli import main

from conftest import FIG3_CYCLES, FIG3_TEXT, LLOYD_TEXT
from oracles import exact_distances, inversion_sign


def _report(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number}: {detail}"


def test_criterion_1_lloyd_unsolvability():
    lloyd = Board.parse(LLOYD_TEXT)
    certificate(lloyd)  # warm caches before timing
    t0 = time.perf_counter()
    cert = certificate(lloyd)
    elapsed = time.perf_counter() - t0
    runner = CliRunner()
    result = runner.invoke(main, ["solvable", "-"], input=LLOYD_TEXT)
    ok = (
        cert.config_parity is Parity.ODD
        and cert.blank_parity is Parity.EVEN
        and not cert.solvable
        and result.exit_code == 1
        and "config_parity=Odd" in result.stdout
        and "blank_parity=Even" in result.stdout
        and elapsed < 0.010
    )
    _report(1, ok, f"Lloyd board certified unsolvable (Odd vs Even), exit 1, "
                   f"decision in {elapsed * 1000:.3f} ms")


def test_criterion_2_golden_cycle_notation():
    result = CliRunner().invoke(main, ["cycles", "-"], input=FIG3_TEXT)
    line = result.stdout.splitlines()[0] if result.stdout else ""
    ok = result.exit_code == 0 and line == FIG3_CYCLES
    _report(2, ok, f"cycles output {line!r} matches the golden string exactly")


def test_criterion_3_parity_rule_oracle_equivalence(dist_3x3):
    t0 = time.perf_counter()
    sizes = [(2, 2, None), (3, 2, None), (3, 3, dist_3x3)]
    counts = []
    mismatches = 0
    for width, height, dist in sizes:
        reachable = set(dist if dist is not None else exact_distances(width, height))
        n = width * height
        solvable_count = 0
        for cells in permutations(range(1, n + 1)):
            decided = is_solvable(Board(width, height, cells))
            if decided != (cells in reachable):
                mismatches += 1
            solvable_count += decided
        counts.append(solvable_count)
    elapsed = time.perf_counter() - t0
    ok = mismatches == 0 and counts == [12, 360, 181440] and elapsed < 60.0
    _report(3, ok, f"parity rule == BFS oracle on 24+720+362880 boards, "
                   f"solvable counts {counts}, {elapsed:.1f}s")


def test_criterion_4_puzzle_diameter():
    t0 = time.perf_counter()
    report = reachable_states(3, 3)
    elapsed = time.perf_counter() - t0
    cli = CliRunner().invoke(main, ["enumerate", "-w", "3", "-h", "3"])
    ok = (
        report.count == 181440
        and report.max_depth == 31
        and cli.exit_code == 0
        and cli.stdout.strip() == "count=181440 max_depth=31"
        and elapsed < 30.0
    )
    _report(4, ok, f"3x3 enumeration count={report.count} "
                   f"max_depth={report.max_depth} in {elapsed:.1f}s")


def test_criterion_5_solver_optimality(dist_2x3, dist_3x3, solvable_3x3_states):
    t0 = time.perf_counter()
    pdbs_2x3 = [build_pdb(3, 2, [1, 2, 3]), build_pdb(3, 2, [4, 5])]
    pdbs_3x3 = [build_pdb(3, 3, [1, 2, 3, 4]), build_pdb(3, 3, [5, 6, 7, 8])]
    failures = 0

    for cells, d in dist_2x3.items():
        b = Board(3, 2, cells)
        if bfs_optimal(b).length != d:
            failures += 1
        for heuristic in ("manhattan", "linear-conflict", pdbs_2x3):
            if ida_star(b, heuristic).length != d:
                failures += 1

    rng = random.Random(2024)
    sample = rng.sample(solvable_3x3_states, 200)
    for cells in sample:
        b = Board(3, 3, cells)
        d = dist_3x3[cells]
        for heuristic in ("manhattan", "linear-conflict", pdbs_3x3):
            if ida_star(b, heuristic).length != d:
                failures += 1
    # Tie bfs_optimal itself to the exhaustive table on a subsample.
    for cells in sample[:20]:
        if bfs_optimal(Board(3, 3, cells)).length != dist_3x3[cells]:
            failures += 1

    elapsed = time.perf_counter() - t0
    ok = failures == 0 and elapsed < 120.0
    _report(5, ok, f"IDA* (manhattan, linear-conflict, pdb) optimal on all 360 "
                   f"solvable 2x3 and 200 seeded 3x3 boards, {failures} failures, "
                   f"{elapsed:.1f}s")


def test_criterion_6_action_compatibility():
    rng = random.Random(606)
    pairs = 0
    failures = 0
    for width, height in [(2, 2), (3, 2), (2, 3), (3, 3), (4, 3), (4, 4)]:
        n = width * height
        for _ in range(750):
            cells = list(range(1, n + 1))
            rng.shuffle(cells)
            b = Board(width, height, tuple(cells))
            for m in b.legal_moves():
                lhs = b.apply_move(m).to_permutation()
                rhs = b.move_transposition(m).compose(b.to_permutation())
                pairs += 1
                if lhs != rhs:
                    failures += 1
    ok = pairs >= 10_000 and failures == 0
    _report(6, ok, f"to_permutation(apply_move) == compose(move_transposition, "
                   f"to_permutation) on {pairs} (board, move) pairs, {failures} failures")


def test_criterion_7_group_axioms_and_sign_homomorphism():
    rng = random.Random(707)

    def random_perm():
        images = list(range(1, 17))
        rng.shuffle(images)
        return Permutation(tuple(images))

    e = Permutation.identity(16)
    trials = 1000
    failures = 0
    for _ in range(trials):
        a, b, c = random_perm(), random_perm(), random_perm()
        if a.compose(b.compose(c)) != a.compose(b).compose(c):
            failures += 1
        if e.compose(a) != a or a.compose(e) != a:
            failures += 1
        if a.inverse().compose(a) != e or a.compose(a.inverse()) != e:
            failures += 1
        if a.compose(b).sign() is not a.sign() * b.sign():
            failures += 1
        if a.sign() is not Parity.of(inversion_sign(a.images)):
            failures += 1
    ok = failures == 0
    _report(7, ok, f"group axioms + sign homomorphism + inversion-count "
                   f"agreement on {trials} random triples at degree 16, "
                   f"{failures} failures")


def test_criterion_8_end_to_end_4x4_performance():
    times = []
    failures = 0
    nodes = length = 0
    for seed in range(100):
        b, witness = scramble(4, 4, 40, seed)
        t0 = time.perf_counter()
        result = ida_star(b, "linear-conflict")
        times.append(time.perf_counter() - t0)
        nodes += result.nodes_expanded
        length += result.length
        if not (linear_conflict(b) <= result.length <= len(witness)):
            failures += 1
        if not verify_sequence(b, result.moves).solved:
            failures += 1
    median = statistics.median(times)
    # Node and length totals do not depend on the machine and are pinned;
    # wall time is reported, not asserted.
    ok = failures == 0 and (nodes, length) == (2_358_058, 3114)
    _report(8, ok, f"100 seeded 40-move 4x4 scrambles solved optimally "
                   f"(h(start) <= length <= witness, all replay to goal); "
                   f"{nodes} nodes, total length {length}; "
                   f"median {median:.2f}s, max {max(times):.2f}s, "
                   f"total {sum(times):.1f}s")


def test_criterion_9_pdb_integrity(dist_3x3, solvable_3x3_states, tmp_path):
    dbs = [build_pdb(3, 3, [1, 2, 3, 4]), build_pdb(3, 3, [5, 6, 7, 8])]
    rng = random.Random(909)
    overestimates = 0
    for cells in rng.sample(solvable_3x3_states, 1000):
        if pdb_heuristic(Board(3, 3, cells), dbs) > dist_3x3[cells]:
            overestimates += 1

    round_trip_ok = True
    for i, db in enumerate(dbs):
        path = tmp_path / f"pdb{i}.spdb"
        save_pdb(db, path)
        loaded = load_pdb(path)
        second = tmp_path / f"pdb{i}b.spdb"
        save_pdb(loaded, second)
        if loaded != db or path.read_bytes() != second.read_bytes():
            round_trip_ok = False

    ok = overestimates == 0 and round_trip_ok
    _report(9, ok, f"disjoint 3x3 pair {{1,2,3,4}}/{{5,6,7,8}}: "
                   f"{overestimates} overestimates on 1000 boards vs exhaustive "
                   f"BFS distances; save/load bit-exact")
