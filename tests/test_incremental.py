"""The incremental heuristic IDA* runs on, checked against from-scratch values.

Each heuristic reaches the search as ``(h0, cost, fix)``; a child's value
is ``fix(h + cost[t][z] - cost[t][j], t, j, z)`` (``h + ...`` alone when
``fix`` is None). Random walks compare that running value with the
heuristic recomputed on the whole board at every step.
"""

from __future__ import annotations

from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from permpuzzle import (
    Board,
    PatternHeuristic,
    build_pdb,
    ida_star,
    linear_conflict,
    manhattan,
    scramble,
)
from permpuzzle.board import move_targets
from permpuzzle.solver import _resolve_heuristic

# (width, height): 2x4 and 4x2 keep rows and columns of unequal length.
SHAPES = [(2, 4), (4, 2), (3, 3), (4, 4)]


@lru_cache(maxsize=None)
def three_tile_patterns(width: int, height: int) -> PatternHeuristic:
    """Disjoint patterns of three consecutive labels (the last may be shorter)."""
    labels = range(1, width * height)
    return PatternHeuristic(
        [build_pdb(width, height, labels[i : i + 3]) for i in range(0, len(labels), 3)]
    )


walks = st.sampled_from(SHAPES).flatmap(
    lambda wh: st.tuples(
        st.just(wh),
        st.permutations(tuple(range(1, wh[0] * wh[1] + 1))),
        st.lists(st.integers(0, 3), max_size=60),
    )
)


@settings(max_examples=60, deadline=None)
@given(walks)
def test_incremental_value_equals_from_scratch(walk):
    (width, height), cells, steps = walk
    n = width * height
    board = Board(width, height, tuple(cells))
    ph = three_tile_patterns(width, height)
    checks = [("manhattan", manhattan), ("linear-conflict", linear_conflict), (ph, ph)]

    tiles = list(cells)
    position = [0] * (n + 1)
    for cell, label in enumerate(tiles):
        position[label] = cell
    terms = [_resolve_heuristic(h, board, tiles, position) for h, _ in checks]
    values = [h0 for h0, _, _ in terms]
    assert values == [scratch(board) for _, scratch in checks]

    targets = move_targets(width, height)
    for step in steps:
        blank = position[n]
        legal = [j for j in targets[blank * 4 : blank * 4 + 4] if j >= 0]
        j = legal[step % len(legal)]
        t = tiles[j]
        for i, (_, cost, fix) in enumerate(terms):
            h = values[i] + cost[t][blank] - cost[t][j]
            values[i] = h if fix is None else fix(h, t, j, blank)
        tiles[blank], tiles[j] = t, n
        position[t], position[n] = blank, j
        now = Board(width, height, tuple(tiles))
        assert values == [scratch(now) for _, scratch in checks]


# 3x5 and 5x3: rows and columns have different lengths, so their line keys
# use different bases, neither of them the 4x4 base 5.
unequal_walks = st.sampled_from([(3, 5), (5, 3)]).flatmap(
    lambda wh: st.tuples(
        st.just(wh),
        st.permutations(tuple(range(1, wh[0] * wh[1] + 1))),
        st.lists(st.integers(0, 3), max_size=60),
    )
)


@settings(max_examples=40, deadline=None)
@given(unequal_walks)
def test_incremental_value_equals_from_scratch_unequal_bases(walk):
    test_incremental_value_equals_from_scratch.hypothesis.inner_test(walk)


# Summed IDA* expansions over scramble(4, 4, 20, i), i < 200, recorded with
# the earlier search that kept one copied loop per heuristic. Any change
# means the move order, the pruning or a heuristic's values changed.
PINNED_NODES = {"manhattan": 40213, "linear-conflict": 25438, "pdb": 28236}


@pytest.mark.parametrize("name", sorted(PINNED_NODES))
def test_node_counts_pinned(name):
    heuristic = three_tile_patterns(4, 4) if name == "pdb" else name
    total = sum(
        ida_star(scramble(4, 4, 20, i)[0], heuristic).nodes_expanded for i in range(200)
    )
    assert total == PINNED_NODES[name]
