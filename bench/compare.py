"""Compare two sets of benchmark runs, e.g. the parent commit and a change.

Usage (from the repository root):

    python3 bench/compare.py PARENT_DIR CHANGE_DIR

Each directory holds the records run.py writes (``--out-dir``). Per
workload and end-to-end metric it prints each side's median and quartiles
and a verdict against the bound in BENCHMARK.json:

* ``REGRESSION``: the change's median is worse than the parent's by more
  than the bound;
* ``unresolved``: either side's spread (quartile distance over median) is
  wider than the bound, and not every change run beats every parent run;
* ``ok``: neither.

``wins`` is the share of seeds run on both sides where the change is
better; ties count for neither side. Per-layer metrics from traced runs are
listed without a verdict. Node-count changes (behaviour changes, not
failures) are listed per workload and seed. Exit code 1 flags a regression.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory):
    """{(workload, trace): {seed: record}} for every record in ``directory``."""
    runs = defaultdict(dict)
    for path in sorted(Path(directory).glob("*.json")):
        record = json.loads(path.read_text())
        meta = record["meta"]
        runs[meta["workload"], meta["trace"]][meta["seed"]] = record
    return runs


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def verdict(a, b, lower_better: bool, bound: float) -> str:
    _, med_a, _ = quartiles(a)
    _, med_b, _ = quartiles(b)
    worse = (med_b - med_a) if lower_better else (med_a - med_b)
    all_better = (max(b) < min(a)) if lower_better else (min(b) > max(a))
    if worse > bound * abs(med_a):
        return "REGRESSION"
    if max(spread(a), spread(b)) > bound and not all_better:
        return "unresolved"
    return "ok"


def win_rate(a_by_seed, b_by_seed, lower_better: bool) -> str:
    seeds = sorted(set(a_by_seed) & set(b_by_seed))
    wins = sum(
        (b_by_seed[s] < a_by_seed[s]) if lower_better else (b_by_seed[s] > a_by_seed[s])
        for s in seeds
    )
    return f"{wins}/{len(seeds)}"


def values(records, metric):
    return {seed: r["result"]["metrics"][metric]["value"] for seed, r in records.items()
            if metric in r["result"]["metrics"]}


def fmt(values_) -> str:
    q1, med, q3 = quartiles(values_)
    return f"{med:12.5g} [{q1:.5g}, {q3:.5g}]"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    parent, change = load(argv[0]), load(argv[1])
    spec = json.loads(BENCHMARK.read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regression = False
    for (workload, trace) in sorted(set(parent) & set(change)):
        a_runs, b_runs = parent[workload, trace], change[workload, trace]
        print(f"\n== {workload} ({'traced' if trace else 'untraced'}; "
              f"{len(a_runs)} parent runs, {len(b_runs)} change runs)")
        metrics = next(iter(b_runs.values()))["result"]["metrics"]
        for metric in metrics:
            a, b = values(a_runs, metric), values(b_runs, metric)
            if not a or not b:
                continue
            line = f"  {metric:36} {fmt(list(a.values()))}  ->  {fmt(list(b.values()))}"
            if metric in bounds and not trace:
                m = bounds[metric]
                lower = m["better"] == "lower"
                v = verdict(list(a.values()), list(b.values()), lower, m["bound"])
                regression |= v == "REGRESSION"
                line += f"  wins {win_rate(a, b, lower)}  bound {m['bound']}  {v}"
            print(line)
        for seed in sorted(set(a_runs) & set(b_runs)):
            na = a_runs[seed]["meta"]["nodes_total"]
            nb = b_runs[seed]["meta"]["nodes_total"]
            if na != nb:
                print(f"  behaviour change: seed {seed} nodes {na} -> {nb}")
        for seed, r in sorted(b_runs.items()):
            changed = r["meta"]["nodes_changed_vs_reference"]
            if changed:
                print(f"  behaviour change: seed {seed}: {changed} boards differ "
                      "from reference.json in node count")
    return 1 if regression else 0


if __name__ == "__main__":
    sys.exit(main())
