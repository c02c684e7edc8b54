"""Independent brute-force oracles the tests check the library against.

Nothing here goes through the code paths under test: reachability and
distances come from a plain tuple-based BFS, signs from inversion
counting, composition from pointwise evaluation, pattern databases from
Dijkstra over a dict with ``itertools.permutations`` as the ranking.
"""

from __future__ import annotations

import heapq
from collections import deque
from functools import lru_cache
from itertools import permutations


def inversion_sign(images) -> int:
    """0 for even, 1 for odd, by counting inversions (O(n^2))."""
    inv = 0
    n = len(images)
    for i in range(n):
        for j in range(i + 1, n):
            if images[i] > images[j]:
                inv += 1
    return inv & 1


def compose_pointwise(outer, inner):
    """Images of x -> outer(inner(x)) evaluated point by point."""
    return tuple(outer[inner[x - 1] - 1] for x in range(1, len(outer) + 1))


def transposition_word_sign(images) -> int:
    """Parity by explicitly decomposing into transpositions and counting.

    Repeatedly swaps the value at each out-of-place slot home; each swap
    is one transposition.
    """
    work = list(images)
    swaps = 0
    for i in range(len(work)):
        while work[i] != i + 1:
            j = work[i] - 1
            work[i], work[j] = work[j], work[i]
            swaps += 1
    return swaps & 1


def neighbors(cells: tuple[int, ...], width: int, height: int):
    """All states one legal slide away; blank is the largest label."""
    n = width * height
    z = cells.index(n)
    r, c = divmod(z, width)
    out = []
    for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
        nr, nc = r + dr, c + dc
        if 0 <= nr < height and 0 <= nc < width:
            j = nr * width + nc
            t = list(cells)
            t[z], t[j] = t[j], t[z]
            out.append(tuple(t))
    return out


def exact_distances(width: int, height: int, max_depth: int | None = None) -> dict[tuple[int, ...], int]:
    """Exhaustive BFS from the goal: every reachable state's true distance,
    or only those of at most ``max_depth`` moves."""
    n = width * height
    goal = tuple(range(1, n + 1))
    dist = {goal: 0}
    queue = deque([goal])
    while queue:
        state = queue.popleft()
        d = dist[state] + 1
        if max_depth is not None and d > max_depth:
            break
        for child in neighbors(state, width, height):
            if child not in dist:
                dist[child] = d
                queue.append(child)
    return dist


def tile_taxicab(cells, width: int, height: int) -> int:
    """Manhattan distance recomputed from scratch, blank excluded."""
    n = width * height
    total = 0
    for cell, label in enumerate(cells):
        if label == n:
            continue
        r, c = divmod(cell, width)
        gr, gc = divmod(label - 1, width)
        total += abs(r - gr) + abs(c - gc)
    return total


def pattern_table(width: int, height: int, tiles) -> bytes:
    """A pattern database by Dijkstra over a dict of (blank, cells) states.

    Sliding a pattern tile costs 1; every other blank move costs 0. An
    entry is the least distance over the blank's cells, capped at 0xFE;
    placements never reached read 0xFF. Entries are ordered as
    ``itertools.permutations(range(n), k)`` lists the placements, which
    is lexicographic.
    """
    n = width * height
    start = (n - 1, tuple(t - 1 for t in tiles))
    dist = {start: 0}
    heap = [(0, start)]
    while heap:
        d, state = heapq.heappop(heap)
        if d > dist[state]:
            continue
        blank, cells = state
        r, c = divmod(blank, width)
        for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1)):
            nr, nc = r + dr, c + dc
            if not (0 <= nr < height and 0 <= nc < width):
                continue
            j = nr * width + nc
            moved = tuple(blank if x == j else x for x in cells)
            child, nd = (j, moved), d + (moved != cells)
            if nd < dist.get(child, nd + 1):
                dist[child] = nd
                heapq.heappush(heap, (nd, child))
    best: dict[tuple[int, ...], int] = {}
    for (_, cells), d in dist.items():
        best[cells] = min(d, best.get(cells, d))
    return bytes(
        min(best[p], 0xFE) if p in best else 0xFF
        for p in permutations(range(n), len(tiles))
    )


@lru_cache(maxsize=None)
def _placement_ranks(n: int, k: int) -> dict[tuple[int, ...], int]:
    return {p: r for r, p in enumerate(permutations(range(n), k))}


def placement_rank(n: int, cells) -> int:
    """Where ``itertools.permutations(range(n), k)`` lists the placement
    ``cells``: the order :func:`pattern_table` stores entries in."""
    return _placement_ranks(n, len(cells))[tuple(cells)]


def pattern_entry(table, tiles, cells) -> int:
    """The entry of ``table`` for the cells ``tiles`` occupy on a board."""
    return table[placement_rank(len(cells), [cells.index(t) for t in tiles])]


def plain_ida_star(cells, width: int, height: int, h):
    """IDA* over tuple states, with ``h(cells)`` computed from scratch for
    every child: ``(directions, expansions)``, each direction an index
    into U, D, L, R (the blank's moves, as in :func:`neighbors`).

    Each call expands one state, counted, and tries the blank's moves in
    U, D, L, R order, leaving out the one that undoes the last move. A
    child whose f = g + h passes the bound is not entered; the least such
    f is the next iteration's bound. A child that fits is the goal when
    ``h == 0 and cells == goal``, tested before it is expanded. The goal
    itself expands nothing.
    """
    n = width * height
    goal = tuple(range(1, n + 1))
    start = tuple(cells)
    if start == goal:
        return [], 0
    path: list[int] = []
    nodes = 0

    def search(state, blank, g, bound, undo):
        nonlocal nodes
        nodes += 1
        least = float("inf")
        r, c = divmod(blank, width)
        for d, (dr, dc) in enumerate(((-1, 0), (1, 0), (0, -1), (0, 1))):
            nr, nc = r + dr, c + dc
            if d == undo or not (0 <= nr < height and 0 <= nc < width):
                continue
            j = nr * width + nc
            child = list(state)
            child[blank], child[j] = child[j], n
            child = tuple(child)
            child_h = h(child)
            f = g + 1 + child_h
            if f > bound:
                least = min(least, f)
                continue
            if child_h == 0 and child == goal:
                path.append(d)
                return -1
            found = search(child, j, g + 1, bound, d ^ 1)
            if found == -1:
                path.append(d)
                return -1
            least = min(least, found)
        return least

    bound = h(start)
    while True:
        bound = search(start, start.index(n), 0, bound, -1)
        if bound == -1:
            return path[::-1], nodes
