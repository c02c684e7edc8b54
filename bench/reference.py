"""Regenerate reference.json: answers for the boards of the default seed (0).

Usage (from the repository root):

    python3 bench/reference.py

For the 4x4 boards of run.py's default size and of criterion 8 (40-step
scrambles, 100 boards) it stores the optimal length per board and the node
count per heuristic; for the 3x3 oracle boards, the length and the BFS node
count. It refuses to write anything unless every solver agrees on every
length: IDA* with Manhattan, linear conflict and the 4-4-4-3 pattern
databases on 4x4, and bfs_optimal, IDA* and the benchmark's own exact
distances on 3x3.
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace

import run
from run import Board, Outcome, bfs_optimal, check_answer, ida_star, verify_sequence
from spans import Tracer


def answers(solver, cases):
    lengths, nodes = [], []
    for case in cases:
        board = Board.parse(case.text)
        result = solver(board)
        outcome = Outcome(0.0, None, result.length)
        solved = verify_sequence(board, result.moves).solved
        reason = check_answer(replace(case, ref_length=None), outcome, solved, None)
        if reason:
            sys.exit(f"board {case.index}: {reason}")
        lengths.append(result.length)
        nodes.append(result.nodes_expanded)
    return lengths, nodes


def main() -> int:
    off = Tracer(False)
    out_dir = run.HERE / "out"
    out_dir.mkdir(exist_ok=True)
    ref: dict = {"4x4": {}}
    for steps, count in ((run.STEPS, run.BOARDS_4X4), (40, 100)):
        entry = {"boards": count, "nodes": {}}
        for name in ("solve-md", "solve-lc", "solve-pdb"):
            wl = run.WORKLOADS[name]()
            wl.setup(0, count, steps, off, out_dir, lambda: None)
            lengths, entry["nodes"][name] = answers(lambda b: ida_star(b, wl.heuristic), wl.cases)
            if entry.setdefault("length", lengths) != lengths:
                sys.exit(f"{name} disagrees on optimal lengths at {steps} steps")
            print(f"{steps} steps {name}: {sum(entry['nodes'][name])} nodes", flush=True)
        ref["4x4"][str(steps)] = entry

    oracle = run.OracleWorkload()
    oracle.setup(0, run.BOARDS_3X3, None, off, out_dir, lambda: None)
    solvable = [c for c in oracle.cases if c.solvable]
    lengths, bfs_nodes = answers(bfs_optimal, solvable)
    for heuristic in ("manhattan", "linear-conflict"):
        if answers(lambda b: ida_star(b, heuristic), solvable)[0] != lengths:
            sys.exit(f"ida_star({heuristic}) disagrees with bfs_optimal on 3x3")
    ref["3x3"] = {"boards": run.BOARDS_3X3, "length": lengths, "bfs_nodes": bfs_nodes}
    print(f"3x3: {len(lengths)} solvable boards, {sum(bfs_nodes)} BFS nodes")
    run.REFERENCE.write_text(json.dumps(ref, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
