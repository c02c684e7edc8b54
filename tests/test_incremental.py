"""The incremental heuristic IDA* runs on, checked against from-scratch values.

Each heuristic reaches the search as ``(h0, steps, regs)``. Sliding the
tile at ``j`` into the blank at ``z`` reads ``row[t]`` from
``_table(*steps)[z][-1]``'s ``(d, j, row)``, ``steps`` being the step
table's store key: an int is the change of h; an entry
``(dh, s, off, T, more)`` adds ``dh + T[regs[s] + off] - T[regs[s]]``
(every PDB index and conflict table answers every key) and shifts
``regs[s]`` by ``off``, and ``regs[s2]`` by ``o2`` when ``more`` is a
pair ``(s2, o2)``.
Random walks compare that running value, and the registers, with the
heuristic rebuilt on the whole board at every step; then they walk back
to the start and find the registers as they were.
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
from permpuzzle.board import _table
from permpuzzle.solver import _check_heuristic

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


def slide(terms, state, blank: int, j: int, t: int) -> None:
    """Move tile ``t`` from ``j`` into ``blank`` in every ``(h, regs)`` of
    ``state``, reading each heuristic's own step table."""
    for i, (_, steps, _) in enumerate(terms):
        (entry,) = [row[t] for _, cell, row in _table(*steps)[blank][-1] if cell == j]
        h, regs = state[i]
        if not isinstance(entry, int):
            dh, s, off, table, more = entry
            entry = dh + table[regs[s] + off] - table[regs[s]]
            regs[s] += off
            if more:
                s2, o2 = more
                regs[s2] += o2
        state[i] = (h + entry, regs)


@settings(max_examples=60, deadline=None)
@given(walks)
def test_incremental_value_equals_from_scratch(walk):
    (width, height), cells, choices = walk
    n = width * height
    ph = three_tile_patterns(width, height)
    checks = [("manhattan", manhattan), ("linear-conflict", linear_conflict), (ph, ph)]

    def scratch(tiles):
        """Each heuristic's ``(h, regs)`` rebuilt from the whole board."""
        now = Board(width, height, tuple(tiles))
        terms = [_check_heuristic(h, now)(now) for h, _ in checks]
        assert [h0 for h0, _, _ in terms] == [value(now) for _, value in checks]
        return [(h0, regs) for h0, _, regs in terms]

    board = Board(width, height, tuple(cells))
    terms = [_check_heuristic(h, board)(board) for h, _ in checks]
    state = [(h0, list(regs)) for h0, _, regs in terms]
    start = scratch(cells)
    assert state == start

    tiles = list(cells)
    blank = tiles.index(n)
    walked = []
    for choice in choices:
        # The blank's neighbours from its coordinates, in U, D, L, R order.
        row, col = divmod(blank, width)
        legal = [j for j, ok in ((blank - width, row > 0), (blank + width, row < height - 1),
                                 (blank - 1, col > 0), (blank + 1, col < width - 1)) if ok]
        j = legal[choice % len(legal)]
        slide(terms, state, blank, j, tiles[j])
        tiles[blank], tiles[j] = tiles[j], n
        walked.append(blank)
        blank = j
        assert state == scratch(tiles)

    # Back through the same cells: every register returns to its start.
    for z in reversed(walked):
        slide(terms, state, blank, z, tiles[z])
        tiles[blank], tiles[z] = tiles[z], n
        blank = z
        assert state == scratch(tiles)
    assert state == start


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


@pytest.mark.parametrize("width, height", [(2, 2), (3, 3), (3, 4), (4, 4)])
def test_register_entries_carry_at_most_one_more_pair(width, height):
    """A tile lies in at most one crossed line and one along line, so a
    linear-conflict entry's ``more`` is ``()`` or one flat ``(s2, o2)``
    pair on another register; a pattern database's is always ``()``."""
    board = Board.goal(width, height)
    for heuristic in ("linear-conflict", three_tile_patterns(width, height)):
        _, steps, regs = _check_heuristic(heuristic, board)(board)
        entries = [e for per_cell in _table(*steps) for _, _, row in per_cell[-1]
                   for e in row if not isinstance(e, int)]
        assert entries
        pairs = 0
        for _, s, _, _, more in entries:
            if heuristic == "linear-conflict" and more:
                s2, o2 = more
                assert s2 != s and 0 <= s2 < len(regs) and isinstance(o2, int)
                pairs += 1
            else:
                assert more == ()
        # A tile both crosses and runs along a slide's lines somewhere.
        assert bool(pairs) == (heuristic == "linear-conflict")
