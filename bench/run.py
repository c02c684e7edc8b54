"""permpuzzle benchmark: four solve/oracle workloads, checked answers.

Usage (from the repository root):

    python3 bench/run.py --workload solve-lc --seed 0 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 3          # every workload

Each workload runs single-threaded in its own process and calls only the
public functions of the package under ``src/``. ``--seed`` picks the
boards; the package sees only the board text generated here. With
``--trace 0`` the run repeats passes over its boards for ``--seconds`` and
reports the end-to-end metrics; with ``--trace 1`` it makes one pass with
spans around every call into a layer (see ``spans.py``) and reports the
per-layer metrics. The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the full
record (run metadata, node counts, spans) goes to ``--out-dir``.
"""

from __future__ import annotations

from time import perf_counter

T_START = perf_counter()

import argparse
import bisect
import functools
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
from array import array
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

try:
    from click.testing import CliRunner

    import permpuzzle
    from permpuzzle import (
        Board,
        PatternHeuristic,
        UnsolvableError,
        bfs_optimal,
        build_pdb,
        certificate,
        format_moves,
        ida_star,
        linear_conflict,
        load_pdb,
        manhattan,
        reachable_states,
        save_pdb,
        scramble,
        verify_sequence,
    )
    from permpuzzle.cli import main as cli_main
except ImportError as exc:  # reported by main(); a bare checkout has no src/
    permpuzzle = None
    IMPORT_ERROR = exc

from spans import BOARD, COUNT, END, NAME, PHASE, START, Tracer, layer_self_time

IMPORT_S = perf_counter() - T_START

# 4x4 boards are scramble(4, 4, STEPS, seed * SEED_STRIDE + i): seed 0 gives
# the criterion-8 RNG seeds 0, 1, ... With 40 steps (criterion 8 itself)
# per-board work spans four orders of magnitude, so 100 boards give a
# median that moves by ~40% from one seed to the next and a linear-conflict
# pass takes ~50 s. With 20-step walks, 2000 boards move the median by ~5%
# at ~6 s per pass; --steps 40 --boards 100 reproduces criterion 8 exactly.
STEPS = 20
BOARDS_4X4 = 2000
SEED_STRIDE = 1_000_000
# Solvable 3x3 boards per run, drawn with exact-distance quotas, and as many
# unsolvable ones for the reject path.
BOARDS_3X3 = 100
SETUP_REPS = 3
# Whole passes a run makes even past --seconds: every board is timed at least
# twice, and a pass of oracle-3x3 (~18 s) does not sit in one host-speed phase.
MIN_PASSES = 2
# Boards per traced run that also get the per-layer probes (CLI, heuristics
# from scratch, reject twin, short-scramble BFS).
TOUR_BOARDS = 100
TOUR_STEPS = 10
# Never used while the benchmark or a change is tuned; later claims are
# checked on it once.
HELD_OUT_SEED = 424242
PDB_PARTITION = ((1, 2, 5, 6), (3, 4, 7, 8), (9, 10, 13, 14), (11, 12, 15))
# Shared hosts change speed by up to 1.8x within seconds (process time slows
# as much as wall time), which swamps a 25% bound. So end-to-end times are
# scaled to a nominal host: every CALIBRATE_EVERY_S a run times a fixed
# pure-Python kernel that calls nothing of the package, and each wall time
# is multiplied by (NOMINAL_KERNEL_S over the median of the KERNEL_WINDOW
# kernel times nearest to it) to the workload's ``host_exponent``: how
# strongly its time follows the kernel's from one host state to another
# (NOTES.md has the measurements). Raw values stay in the run record.
CALIBRATE_EVERY_S = 0.1
KERNEL_WINDOW = 7
NOMINAL_KERNEL_S = 0.0015
REFERENCE = HERE / "reference.json"

END_TO_END = {
    "solve_ms_p50": "ms",
    "solve_ms_p90": "ms",
    "boards_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
LAYERS = ("bench", "board", "perm", "solvability", "heuristics", "pattern_db", "solver", "cli")


@dataclass
class Case:
    """One board as the benchmark generated it, with what it knows about it."""

    index: int
    text: str
    solvable: bool
    witness: int | None = None  # scramble length: an upper bound of the same parity
    exact: int | None = None  # distance from the benchmark's own 3x3 BFS
    ref_length: int | None = None
    ref_nodes: int | None = None


@dataclass
class Outcome:
    seconds: float
    failure: str | None
    length: int | None = None
    nodes: int | None = None
    moves: tuple = ()


def board_text(cells, width: int) -> str:
    n = len(cells)
    return "\n".join(
        " ".join("0" if v == n else str(v) for v in cells[r : r + width])
        for r in range(0, n, width)
    )


def tail_percentile(samples: int, beyond: int = 10) -> int:
    """Highest whole percentile with at least ``beyond`` samples above it."""
    for p in range(99, 0, -1):
        if samples * (100 - p) / 100 >= beyond:
            return p
    return 0


def percentile(values, p: int) -> float:
    """Value at percentile ``p`` (inclusive method, as statistics.quantiles)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def check_answer(case: Case, outcome: Outcome, replay_solved: bool, h0: int | None) -> str | None:
    """Why a solvable board's answer is wrong, or None when it is right."""
    length = outcome.length
    if not replay_solved:
        return "replay does not reach the goal"
    if case.ref_length is not None and length != case.ref_length:
        return f"length {length} != reference {case.ref_length}"
    if case.exact is not None and length != case.exact:
        return f"length {length} != exact distance {case.exact}"
    if case.witness is not None:
        if h0 is not None and not h0 <= length <= case.witness:
            return f"length {length} outside [h(start)={h0}, witness={case.witness}]"
        if (case.witness - length) % 2:
            return f"length {length} has the wrong parity for witness {case.witness}"
    return None


def attempt(solve, case: Case) -> Outcome:
    """Time one board; an exception or a wrong reject becomes a failure."""
    t0 = perf_counter()
    try:
        result = solve(case)
    except Exception as exc:  # a failed board must not stop the run
        return Outcome(perf_counter() - t0, f"{type(exc).__name__}: {exc}")
    seconds = perf_counter() - t0
    if result is None:
        failure = "unexpected UnsolvableError" if case.solvable else None
        return Outcome(seconds, failure)
    if not case.solvable:
        return Outcome(seconds, "missing UnsolvableError")
    return Outcome(seconds, None, result.length, result.nodes_expanded, result.moves)


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------


class SolveWorkload:
    """4x4 scrambles: Board.parse, then ida_star with one heuristic."""

    width = height = 4
    lookup = build_rss_mb = None
    h_span = "heuristics.h_start"
    host_exponent = 1.0

    def __init__(self, name: str, heuristic: str):
        self.name = name
        self.heuristic_name = heuristic

    def setup(self, seed, count, steps, tracer, out_dir, tick):
        self.cases = []
        for i in range(count):
            with tracer.span("board.scramble", board=i):
                board, witness = scramble(4, 4, steps, seed * SEED_STRIDE + i)
            self.cases.append(
                Case(i, board_text(board.cells, 4), True, witness=len(witness))
            )
        if self.heuristic_name == "pdb":
            self.heuristic, self.build_rss_mb = build_tables(
                4, 4, PDB_PARTITION, tracer, out_dir, tick)
            self.h_start = self.lookup = self.heuristic
            self.h_span = "pattern_db.h_start"
        else:
            self.heuristic = self.heuristic_name
            self.h_start = manhattan if self.heuristic_name == "manhattan" else linear_conflict
        ref = load_reference().get("4x4", {}).get(str(steps))
        if seed == 0 and ref and self.name in ref["nodes"]:
            for case, length, nodes in zip(self.cases, ref["length"], ref["nodes"][self.name]):
                case.ref_length, case.ref_nodes = length, nodes
        return []

    def solve_fn(self, tracer):
        heuristic = self.heuristic

        def solve(case):
            with tracer.span("board.parse"):
                board = Board.parse(case.text)
            with tracer.span("solver.ida_star") as span:
                result = ida_star(board, heuristic)
                span[COUNT] = result.nodes_expanded
            return result

        return solve

class OracleWorkload:
    """Uniformly random 3x3 boards of both parities: certificate, then bfs_optimal."""

    name = "oracle-3x3"
    width = height = 3
    lookup = build_rss_mb = h_start = None
    # Its dict-heavy BFS slows about as the square root of the kernel's time.
    host_exponent = 0.5

    def __init__(self):
        self.distances = distances_3x3()

    def setup(self, seed, count, steps, tracer, out_dir, tick):
        failures = []
        with tracer.span("solvability.reachable_states") as span:
            report = reachable_states(3, 3)
            span[COUNT] = report.count
        if (report.count, report.max_depth) != (181440, 31):
            failures.append(f"reachable_states(3, 3) = {report}, expected 181440 / 31")
        self.cases = draw_3x3(seed, count, self.distances)
        ref = load_reference().get("3x3")
        if seed == 0 and ref and ref["boards"] == count:
            solvable = [c for c in self.cases if c.solvable]
            for case, length, nodes in zip(solvable, ref["length"], ref["bfs_nodes"]):
                case.ref_length, case.ref_nodes = length, nodes
        return failures

    def solve_fn(self, tracer):
        def solve(case):
            with tracer.span("board.parse"):
                board = Board.parse(case.text)
            with tracer.span("solvability.certificate"):
                certificate(board)
            with tracer.span("solver.bfs_optimal") as span:
                try:
                    result = bfs_optimal(board)
                except UnsolvableError:
                    span[NAME] = "solver.bfs_reject"
                    return None
                span[COUNT] = result.nodes_expanded
            return result

        return solve

WORKLOADS = {
    "solve-md": lambda: SolveWorkload("solve-md", "manhattan"),
    "solve-lc": lambda: SolveWorkload("solve-lc", "linear-conflict"),
    "solve-pdb": lambda: SolveWorkload("solve-pdb", "pdb"),
    "oracle-3x3": OracleWorkload,
}

def distances_3x3() -> dict[bytes, int]:
    """Exact distance of every solvable 3x3 board, by a plain BFS from the goal.

    Independent of the package: it stratifies the oracle workload's draws
    and checks every length bfs_optimal returns.
    """
    goal = bytes(range(1, 10))
    dist = {goal: 0}
    frontier = [goal]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for state in frontier:
            blank = state.index(9)
            r, c = divmod(blank, 3)
            for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
                if 0 <= nr < 3 and 0 <= nc < 3:
                    cell = nr * 3 + nc
                    child = bytearray(state)
                    child[blank], child[cell] = child[cell], 9
                    child = bytes(child)
                    if child not in dist:
                        dist[child] = depth
                        nxt.append(child)
        frontier = nxt
    return dist


def draw_3x3(seed: int, solvable: int, dist: dict[bytes, int]) -> list[Case]:
    """Uniform random permutations, stratified by exact distance.

    The solvable draws fill fixed quotas proportional to the distance
    histogram of all solvable boards (largest remainders), so every seed
    gets the same mix of distances and bfs_optimal's cost per board depends
    little on the seed. Unsolvable draws are kept until there are as many as
    solvable ones; each keeps its place in the draw order.
    """
    hist: dict[int, int] = {}
    for d in dist.values():
        hist[d] = hist.get(d, 0) + 1
    total = len(dist)
    quota = {d: solvable * k // total for d, k in hist.items()}
    by_remainder = sorted(hist, key=lambda d: (-(solvable * hist[d] % total), d))
    for d in by_remainder[: solvable - sum(quota.values())]:
        quota[d] += 1
    rng = random.Random(f"oracle-3x3/{seed}")
    cases: list[Case] = []
    unsolvable = 0
    cells = list(range(1, 10))
    while sum(quota.values()) or unsolvable < solvable:
        rng.shuffle(cells)
        d = dist.get(bytes(cells))
        if d is None:
            if unsolvable == solvable:
                continue
            unsolvable += 1
        elif quota[d]:
            quota[d] -= 1
        else:
            continue
        cases.append(Case(len(cases), board_text(cells, 3), d is not None, exact=d))
    return cases


def build_tables(width, height, partition, tracer, out_dir, tick):
    """build_pdb for each pattern, then save_pdb and load_pdb (the CLI path).

    Calls ``tick`` after each build. Returns the summed heuristic over the
    loaded tables and the peak RSS right after the builds.
    """
    tables = []
    for tiles in partition:
        with tracer.span("pattern_db.build_pdb") as span:
            tables.append(build_pdb(width, height, tiles))
            span[COUNT] = len(tables[-1].table)
        tick()
    rss = peak_rss_mb()
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        paths = [os.path.join(tmp, f"p{i}.spdb") for i in range(len(tables))]
        for db, path in zip(tables, paths):
            with tracer.span("pattern_db.save_pdb"):
                save_pdb(db, path)
        loaded = []
        for path in paths:
            with tracer.span("pattern_db.load_pdb"):
                loaded.append(load_pdb(path))
    if loaded != tables:
        raise RuntimeError("load_pdb(save_pdb(db)) differs from db")
    return PatternHeuristic(loaded), rss


def kernel_seconds() -> float:
    """Time of a fixed pure-Python loop over ints, a list, a dict and tuples."""
    t0 = perf_counter()
    table = list(range(64))
    counts: dict[int, int] = {}
    acc = 0
    for i in range(8000):
        j = table[i & 63] ^ (i >> 3)
        counts[j & 255] = counts.get(j & 255, 0) + 1
        acc += len((i, j))
    return perf_counter() - t0


class HostSpeed:
    """Kernel times through a run, to scale wall times to the nominal host."""

    def __init__(self):
        self.at: list[float] = []
        self.kernel: list[float] = []

    def sample(self, times: int = 1):
        for _ in range(times):
            self.at.append(perf_counter())
            self.kernel.append(kernel_seconds())

    def tick(self):
        if perf_counter() - self.at[-1] >= CALIBRATE_EVERY_S:
            self.sample()

    def scale(self, when: float) -> float:
        """Factor for a wall time measured at ``when``."""
        k = bisect.bisect_right(self.at, when)
        half = KERNEL_WINDOW // 2
        near = self.kernel[max(k - half, 0) : k + half + 1]
        return NOMINAL_KERNEL_S / statistics.median(near)

    def summary(self) -> dict:
        ms = sorted(k * 1000 for k in self.kernel)
        return {"samples": len(ms), "kernel_ms_min": ms[0],
                "kernel_ms_p50": statistics.median(ms), "kernel_ms_max": ms[-1]}


@functools.cache
def load_reference() -> dict:
    try:
        return json.loads(REFERENCE.read_text())
    except FileNotFoundError:
        return {}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------


class Tally:
    """Attempts, failures and node counts of one run."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self.nodes_total = 0
        self.nodes_changed = 0

    def add(self, what: str, failure: str | None):
        self.attempted += 1
        if failure:
            self.failures.append(f"{what}: {failure}")


def verify_first(wl, case, outcome, tracer, tally):
    """Full check of a board's first answer, outside the timed region."""
    if outcome.failure or not case.solvable:
        tally.add(f"board {case.index}", outcome.failure)
        return
    board = Board.parse(case.text)
    with tracer.span("solvability.verify_sequence", board=case.index):
        solved = verify_sequence(board, outcome.moves).solved
    h0 = None
    if wl.h_start is not None:
        with tracer.span(wl.h_span, board=case.index):
            h0 = wl.h_start(board)
    tally.add(f"board {case.index}", check_answer(case, outcome, solved, h0))
    tally.nodes_total += outcome.nodes or 0
    if case.ref_nodes is not None and outcome.nodes != case.ref_nodes:
        tally.nodes_changed += 1


def run_setup(wl, args, tracer, out_dir, speed):
    """Set up SETUP_REPS times; returns raw and scaled set-up seconds.

    A set-up is scaled by the median of the kernel times just before,
    during (between pattern-database builds) and just after it.
    """
    speed.sample(KERNEL_WINDOW)
    imports = IMPORT_S * speed.scale(speed.at[0]) ** wl.host_exponent
    times, scaled, failures = [], [], []
    for rep in range(SETUP_REPS):
        tracer.enabled = args.trace and rep == 0
        first = len(speed.kernel) - KERNEL_WINDOW
        t0 = perf_counter()
        failures = wl.setup(args.seed, args.boards, args.steps, tracer, out_dir, speed.sample)
        times.append(perf_counter() - t0)
        speed.sample(KERNEL_WINDOW)
        factor = NOMINAL_KERNEL_S / statistics.median(speed.kernel[first:])
        scaled.append(times[-1] * factor ** wl.host_exponent)
    tracer.enabled = bool(args.trace)
    return (IMPORT_S + statistics.median(times), imports + statistics.median(scaled),
            times, failures)


def timed_passes(wl, cases, seconds, tally, speed):
    """Passes over the boards until ``seconds`` have gone, at least MIN_PASSES.

    Returns each board's raw and host-scaled times, the pass count and the
    peak RSS after the first pass, before the benchmark's own sample arrays
    grow with the number of passes.
    """
    solve = wl.solve_fn(Tracer(False))
    board, start_at, took = array("l"), array("d"), array("d")
    lengths: list[int | None] = [None] * len(cases)
    deadline = perf_counter() + seconds
    passes = 0
    while passes < MIN_PASSES or perf_counter() < deadline:
        for case in cases:
            if passes >= MIN_PASSES and perf_counter() >= deadline:
                break
            speed.tick()
            start = perf_counter()
            outcome = attempt(solve, case)
            board.append(case.index)
            start_at.append(start)
            took.append(outcome.seconds)
            if passes == 0:
                lengths[case.index] = outcome.length
                verify_first(wl, case, outcome, Tracer(False), tally)
            else:
                same = outcome.failure is None and outcome.length == lengths[case.index]
                tally.add(f"board {case.index} pass {passes}",
                          None if same else outcome.failure or "length changed between passes")
        if passes == 0:
            rss = peak_rss_mb()
        passes += 1
    speed.sample(KERNEL_WINDOW)
    raw: list[list[float]] = [[] for _ in cases]
    scaled: list[list[float]] = [[] for _ in cases]
    for index, start, seconds in zip(board, start_at, took):
        raw[index].append(seconds)
        scaled[index].append(seconds * speed.scale(start) ** wl.host_exponent)
    return raw, scaled, passes, rss


def end_to_end(cases, samples, setup_s, rss_mb, tally) -> dict:
    per_board = [statistics.median(s) for c, s in zip(cases, samples) if c.solvable]
    ms = [t * 1000 for t in per_board]
    values = {
        "solve_ms_p50": statistics.median(ms),
        "solve_ms_p90": percentile(ms, 90),
        "boards_per_s": len(per_board) / sum(per_board),
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "ok_frac": 1 - len(tally.failures) / tally.attempted,
    }
    return {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}


def traced_pass(wl, cases, seed, tracer, tally, out_dir):
    """One pass, each board once untraced and once traced; then the probes."""
    untraced = wl.solve_fn(Tracer(False))
    traced = wl.solve_fn(tracer)
    spent = {False: 0.0, True: 0.0}
    tracer.phase = "main"
    for case in cases:
        for on in (False, True) if case.index % 2 == 0 else (True, False):
            if on:
                with tracer.span("bench.board", board=case.index):
                    outcome = attempt(traced, case)
            else:
                outcome = attempt(untraced, case)
            spent[on] += outcome.seconds
        verify_first(wl, case, outcome, tracer, tally)
    tracer.phase = "tour"
    extras = tour_once(wl, tracer, out_dir)
    for case in cases[:TOUR_BOARDS]:
        with tracer.span("bench.tour", board=case.index):
            try:
                failure = tour_board(wl, case, seed, extras["lookup"], tracer)
            except Exception as exc:  # a failed probe must not stop the run
                failure = f"{type(exc).__name__}: {exc}"
        tally.add(f"tour {case.index}", failure)
    extras["overhead"] = spent[True] / spent[False]
    return extras


def tour_once(wl, tracer, out_dir):
    """Probes run once per traced run, so every layer shows on every workload."""
    extras = {}
    with tracer.span("solvability.reachable_states") as span:
        span[COUNT] = reachable_states(3, 3).count
    small, rss = build_tables(wl.width, wl.height, ((1, 2, 3),), tracer, out_dir, lambda: None)
    extras["lookup"] = wl.lookup or small
    extras["build_rss_mb"] = wl.build_rss_mb or rss
    return extras


def tour_board(wl, case, seed, lookup, tracer) -> str | None:
    """Per-layer probes on one board; returns a failure reason or None."""
    board = Board.parse(case.text)
    with tracer.span("heuristics.manhattan"):
        manhattan(board)
    with tracer.span("heuristics.linear_conflict"):
        linear_conflict(board)
    with tracer.span("solvability.certificate"):
        certificate(board)
    perm = board.to_permutation()
    with tracer.span("perm.sign"):
        perm.sign()
    with tracer.span("pattern_db.lookup"):
        lookup(board)
    with tracer.span("board.scramble"):
        short, walk = scramble(wl.width, wl.height, TOUR_STEPS,
                               seed * SEED_STRIDE + SEED_STRIDE // 2 + case.index)
    with tracer.span("solver.bfs_optimal") as span:
        result = bfs_optimal(short)
        span[COUNT] = result.nodes_expanded
    if result.length > len(walk) or not verify_sequence(short, result.moves).solved:
        return f"bfs_optimal on a {TOUR_STEPS}-move scramble: bad answer"
    if not case.solvable:
        return None
    cells = list(board.cells)
    i, j = [k for k, v in enumerate(cells) if v != len(cells)][:2]
    cells[i], cells[j] = cells[j], cells[i]
    twin = Board(board.width, board.height, tuple(cells))
    with tracer.span("solver.bfs_reject"):
        try:
            bfs_optimal(twin)
            return "missing UnsolvableError on a parity twin"
        except UnsolvableError:
            pass
    with tracer.span("solver.ida_star") as span:
        lib = ida_star(board, "manhattan")
        span[COUNT] = lib.nodes_expanded
    if case.exact is not None and lib.length != case.exact:
        return f"ida_star length {lib.length} != exact distance {case.exact}"
    with tracer.span("cli.solve"):
        res = CliRunner().invoke(cli_main, ["solve", "-", "--heuristic", "manhattan"],
                                 input=case.text)
    lines = res.stdout.splitlines()
    want = f"length={lib.length} nodes={lib.nodes_expanded} "
    if res.exit_code != 0 or len(lines) != 2 or lines[0] != format_moves(lib.moves) \
            or not lines[1].startswith(want):
        return f"CLI output {res.stdout!r} differs from the library's answer"
    return None


def per_layer(spans, extras) -> dict:
    """Per-layer metrics from the spans of a traced run."""

    def pick(name):
        own = [s for s in spans if s[NAME] == name and s[PHASE] != "tour"]
        return own or [s for s in spans if s[NAME] == name]

    def dur(s):
        return s[END] - s[START]

    def p50(name, scale):
        return statistics.median(dur(s) for s in pick(name)) * scale

    def total(name):
        chosen = pick(name)
        return sum(map(dur, chosen)), sum(s[COUNT] or 0 for s in chosen)

    ida_s, nodes = total("solver.ida_star")
    bfs_s, bfs_nodes = total("solver.bfs_optimal")
    enum_s, states = total("solvability.reachable_states")
    build_s, entries = total("pattern_db.build_pdb")
    lib = {s[BOARD]: dur(s) for s in spans if s[NAME] == "solver.ida_star" and s[PHASE] == "tour"}
    cli = [dur(s) - lib[s[BOARD]] for s in spans if s[NAME] == "cli.solve"]
    values = {
        "solver.nodes": (nodes, "count"),
        "solver.nodes_per_s": (nodes / ida_s, "1/s"),
        "solver.ida_star_s": (ida_s, "s"),
        "solver.bfs_optimal_s": (bfs_s, "s"),
        "solver.bfs_nodes": (bfs_nodes, "count"),
        "solver.bfs_nodes_per_s": (bfs_nodes / bfs_s, "1/s"),
        "solver.reject_us_p50": (p50("solver.bfs_reject", 1e6), "us"),
        "solvability.enumerate_s": (enum_s, "s"),
        "solvability.enumerate_states_per_s": (states / enum_s, "1/s"),
        "solvability.certificate_us_p50": (p50("solvability.certificate", 1e6), "us"),
        "perm.sign_us_p50": (p50("perm.sign", 1e6), "us"),
        "board.parse_us_p50": (p50("board.parse", 1e6), "us"),
        "board.scramble_ms_p50": (p50("board.scramble", 1e3), "ms"),
        "heuristics.manhattan_us_p50": (p50("heuristics.manhattan", 1e6), "us"),
        "heuristics.linear_conflict_us_p50": (p50("heuristics.linear_conflict", 1e6), "us"),
        "pattern_db.build_s": (build_s, "s"),
        "pattern_db.build_entries_per_s": (entries / build_s, "1/s"),
        "pattern_db.build_rss_mb": (extras["build_rss_mb"], "MB"),
        "pattern_db.save_load_ms": (
            (total("pattern_db.save_pdb")[0] + total("pattern_db.load_pdb")[0]) * 1e3, "ms"),
        "pattern_db.lookup_us_p50": (p50("pattern_db.lookup", 1e6), "us"),
        "cli.solve_overhead_ms_p50": (statistics.median(cli) * 1e3, "ms"),
        "trace.overhead_frac": (extras["overhead"], "ratio"),
    }
    self_s = layer_self_time(spans)
    for layer in LAYERS:
        values[f"{layer}.self_s"] = (self_s.get(layer, 0.0), "s")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_one(args) -> int:
    if permpuzzle is None or not Path(permpuzzle.__file__).resolve().is_relative_to(SRC):
        why = IMPORT_ERROR if permpuzzle is None else f"permpuzzle found outside {SRC}"
        print(f"error: cannot import permpuzzle from {SRC}: {why}", file=sys.stderr)
        return 2
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    wl = WORKLOADS[args.workload]()
    if args.boards is None:
        args.boards = BOARDS_3X3 if isinstance(wl, OracleWorkload) else BOARDS_4X4
    tracer = Tracer(bool(args.trace))
    tally = Tally()
    speed = HostSpeed()
    raw_setup_s, setup_s, setup_times, failures = run_setup(wl, args, tracer, out_dir, speed)
    for failure in failures:
        tally.add("setup", failure)
    cases = wl.cases
    gc.collect()
    gc.freeze()
    if args.trace:
        extras = traced_pass(wl, cases, args.seed, tracer, tally, out_dir)
        metrics = per_layer(tracer.spans, extras)
        passes = 1
    else:
        raw, scaled, passes, rss = timed_passes(wl, cases, args.seconds, tally, speed)
        metrics = end_to_end(cases, scaled, setup_s, rss, tally)
        meta["raw_metrics"] = {k: m["value"] for k, m in
                               end_to_end(cases, raw, raw_setup_s, rss, tally).items()}
    meta.update(
        boards=len(cases),
        solvable_boards=sum(c.solvable for c in cases),
        steps=args.steps if isinstance(wl, SolveWorkload) else None,
        board_seeds=(f"scramble(4, 4, {args.steps}, {args.seed * SEED_STRIDE}"
                     f"..{args.seed * SEED_STRIDE + len(cases) - 1})"
                     if isinstance(wl, SolveWorkload) else f"Random('oracle-3x3/{args.seed}')"),
        passes=passes,
        tail_percentile=tail_percentile(sum(c.solvable for c in cases)),
        setup_reps_s=setup_times,
        import_s=IMPORT_S,
        host_speed=speed.summary(),
        nodes_total=tally.nodes_total,
        nodes_changed_vs_reference=tally.nodes_changed,
        failures=tally.failures[:20],
    )
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }
    record = {"meta": meta, "result": result}
    if args.trace:
        record["spans"] = tracer.spans
    path = out_dir / f"{args.workload}_s{args.seed}_t{args.trace}.json"
    path.write_text(json.dumps(record))
    for failure in tally.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    if tally.nodes_changed:
        print(f"behaviour change: {tally.nodes_changed} boards expand a different number "
              "of nodes than the reference", file=sys.stderr)
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"{args.workload:11} {name:36} {value:>14} {m['unit']}")
    print(f"record: {path}")
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    status = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--out-dir", args.out_dir]
        if args.steps != STEPS:
            cmd += ["--steps", str(args.steps)]
        if args.boards is not None:
            cmd += ["--boards", str(args.boards)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines or not json.loads(lines[-1])["correct"]:
            print(f"{name}: exit {proc.returncode}, incorrect or missing result")
            status = 1
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steps", type=int, default=STEPS,
                        help="scramble length of the 4x4 boards (criterion 8: 40)")
    parser.add_argument("--boards", type=int, default=None,
                        help=f"4x4 boards (default {BOARDS_4X4}) or solvable 3x3 "
                             f"boards (default {BOARDS_3X3}) per run")
    parser.add_argument("--out-dir", default=str(HERE / "out"),
                        help="where run records are written")
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
