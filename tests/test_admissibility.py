"""Every heuristic against exact distances on every state of 2x4, 4x2 and 3x3.

Admissible: h(s) <= d(s) for every reachable state. Consistent:
|h(s) - h(s')| <= 1 across every legal move. Manhattan and linear
conflict are both. Additive pattern databases are admissible only: an
entry is the minimum over the blank's cells, and that minimum can jump by
more than one when the blank crosses a pattern tile (37,704 of the 3x3
{1,2,3,4}+{5,6,7,8} move edges, 7,146 of the 4x2 {1,2,3}+{4..7} ones,
counted in both directions). IDA* stays optimal on admissibility alone.
"""

from __future__ import annotations

import pytest

from permpuzzle import Board, PatternHeuristic, build_pdb, linear_conflict, manhattan

from oracles import exact_distances, neighbors

# (width, height): 2x4 and 4x2 keep rows and columns of unequal length.
PARTITIONS = {
    (2, 4): ([1, 2, 3, 4], [5, 6, 7]),
    (4, 2): ([1, 2, 3], [4, 5, 6, 7]),
    (3, 3): ([1, 2, 3, 4], [5, 6, 7, 8]),
}


@pytest.fixture(scope="module")
def distances(dist_3x3):
    return {(3, 3): dist_3x3, (2, 4): exact_distances(2, 4), (4, 2): exact_distances(4, 2)}


@pytest.fixture(scope="module")
def values(distances):
    """``values(shape, name)``: the named heuristic on every reachable state."""
    cache = {}

    def get(shape, name):
        if (shape, name) not in cache:
            if name == "pdb":
                h = PatternHeuristic([build_pdb(*shape, p) for p in PARTITIONS[shape]])
            else:
                h = {"manhattan": manhattan, "linear-conflict": linear_conflict}[name]
            cache[shape, name] = {cells: h(Board(*shape, cells)) for cells in distances[shape]}
        return cache[shape, name]

    return get


@pytest.mark.parametrize("shape", list(PARTITIONS), ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", ["manhattan", "linear-conflict", "pdb"])
def test_admissible_on_every_state(distances, values, shape, name):
    h = values(shape, name)
    over = [cells for cells, d in distances[shape].items() if h[cells] > d]
    assert not over, f"{len(over)} states overestimated, e.g. {over[0]}"


@pytest.mark.parametrize("shape", list(PARTITIONS), ids=lambda s: f"{s[0]}x{s[1]}")
@pytest.mark.parametrize("name", ["manhattan", "linear-conflict"])
def test_consistent_across_every_move(values, shape, name):
    h = values(shape, name)
    jumps = [
        (cells, child)
        for cells in h
        for child in neighbors(cells, *shape)
        if abs(h[cells] - h[child]) > 1
    ]
    assert not jumps, f"{len(jumps)} moves change h by more than 1, e.g. {jumps[0]}"
