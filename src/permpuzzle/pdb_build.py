"""Pattern database construction: a BFS over blank regions.

:func:`build_pdb` runs a layer-by-layer BFS over (tile set, tile order,
blank region) states. The blank's cost-0 region is a component of the
cells the pattern leaves free, which depends only on the set of pattern
cells: C(n,k) sets, against P(n,k) placements. One pass over the sets
records each region's size and its cost-1 slides as flat arrays; the
search then moves only between regions, indexing a placement as
``set * k! + order`` (``order`` ranks the tiles' order over the sorted
cells). The build holds at most P(n,k)·(n+2) bytes: the table, one
``seen`` byte per (placement, region) (at most n - k regions per set),
the per-set arrays, and the returned copy of the table, which is
written in rank order after the last layer.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from array import array

from .board import move_targets
from .pattern_db import (
    DEFAULT_MAX_BYTES,
    UNREACHED,
    PatternDatabase,
    _check_bytes,
    _check_pattern,
    rank_weights,
)

__all__ = ["build_pdb"]


def _uint_code(limit: int) -> str:
    """An unsigned ``array`` type code that holds values below ``limit``."""
    return "I" if limit <= 1 << 32 else "Q"


def _slide_shift(k: int, pa: int, pz: int):
    """``(low, span, delta)``: how a slide moves a set's order id.

    The slid tile leaves position ``pa`` of the sorted cells and lands at
    ``pz`` of the child's, so sigma loses its element at ``pa`` and gains
    it at ``pz``. Only the Lehmer digits from ``min(pa, pz)`` through
    ``max(pa, pz)`` change, and their new values depend on those digits
    alone: the new order id is ``order + delta[order // low % span]``.
    """
    m, top = min(pa, pz), max(pa, pz)
    length = k - m
    low = math.factorial(k - 1 - top)
    span = math.perm(length, top - m + 1)
    delta = array("q", bytes(8 * span))
    for window in range(span):
        rest, digits = window, []
        for radix in range(length - top + m, length + 1):
            rest, digit = divmod(rest, radix)
            digits.append(digit)
        free, suffix = list(range(length)), []
        for digit in reversed(digits):
            suffix.append(free.pop(digit))
        suffix += free
        suffix.insert(pz - m, suffix.pop(pa - m))
        moved = 0
        for j in range(top - m + 1):
            x = suffix[j]
            moved = moved * (length - j) + sum(1 for y in suffix[j + 1 :] if y < x)
        delta[window] = (moved - window) * low
    return low, span, delta


def _regions(width: int, height: int, home):
    """Per-set tables for :func:`build_pdb`, for the pattern whose home
    cells are ``home``.

    Sets are numbered in ``itertools.combinations`` order. A set's free
    cells split into components, the blank's cost-0 regions, numbered by
    their smallest cell; ``cmax`` is the most any set has. Region
    ``x = set * cmax + component`` owns ``size[x]`` cells and the cost-1
    slides out of it, ``plain[plain_at[x]:plain_at[x + 1]]`` and likewise
    ``shifted``: each is the child region times k!, to which the order id
    is added; a shifted slide also adds the :func:`_slide_shift` delta
    ``shifts[shift_ids[e]]``. Returns ``(start, cmax, size, plain,
    plain_at, shifted, shift_ids, shifted_at, shifts)``; ``start`` is the
    goal's state: the tiles home, sigma the identity, the blank on the
    last cell.
    """
    n, k = width * height, len(home)
    fact = math.factorial(k)
    sets = math.comb(n, k)
    targets = move_targets(width, height)
    neighbours = [[d for d in targets[4 * c : 4 * c + 4] if d >= 0] for c in range(n)]
    full = (1 << n) - 1
    left = sum(1 << c for c in range(0, n, width))
    off_left, off_right = full ^ left, full ^ (left << (width - 1))

    def components(free):
        """The components of a mask of free cells, by smallest cell."""
        found = []
        while free:
            region = free & -free
            while True:
                grown = free & (region | (region << 1 & off_left) | (region >> 1 & off_right)
                                | region << width | region >> width)
                if grown == region:
                    break
                region = grown
            found.append(region)
            free ^= region
        return found

    # The combinations() index of ascending cells c_j is sets - 1 - sum_j at[j][c_j].
    at = [[math.comb(n - 1 - c, k - j) for c in range(n)] for j in range(k)]

    def set_of(cells):
        return sets - 1 - sum(map(operator.getitem, at, cells))

    # The component masks of every set that has two or more.
    split, cmax = {}, 1
    for s, cells in enumerate(itertools.combinations(range(n), k)):
        found = components(full ^ sum(1 << c for c in cells))
        if len(found) > 1:
            split[s] = found
            cmax = max(cmax, len(found))

    def component_of(s, cell):
        comp = 0
        if s in split:
            while not split[s][comp] >> cell & 1:
                comp += 1
        return comp

    code = _uint_code(math.perm(n, k) * cmax)
    size = array("H", bytes(2 * sets * cmax))
    plain, shifted, shift_ids = array(code), array(code), array("B")
    plain_at, shifted_at = array(code, [0]), array(code, [0])
    shift_of, shifts = {}, []
    for s, cells in enumerate(itertools.combinations(range(n), k)):
        found = split.get(s) or [full ^ sum(1 << c for c in cells)]
        for comp, region in enumerate(found):
            size[s * cmax + comp] = region.bit_count()
            for pa, a in enumerate(cells):
                for z in neighbours[a]:
                    if not region >> z & 1:
                        continue
                    # The tile on a slides to z: its place among the sorted cells.
                    pz = bisect.bisect_left(cells, z) - (z > a)
                    if pz == pa:
                        child = s + at[pa][a] - at[pa][z]
                    else:
                        moved = list(cells)
                        del moved[pa]
                        moved.insert(pz, z)
                        child = set_of(moved)
                    base = (child * cmax + component_of(child, a)) * fact
                    if pz == pa:
                        plain.append(base)
                        continue
                    if (pa, pz) not in shift_of:
                        shift_of[pa, pz] = len(shifts)
                        shifts.append(_slide_shift(k, pa, pz))
                    shifted.append(base)
                    shift_ids.append(shift_of[pa, pz])
            plain_at.append(len(plain))
            shifted_at.append(len(shifted))
        for _ in range(len(found), cmax):
            plain_at.append(len(plain))
            shifted_at.append(len(shifted))
    s = set_of(home)
    start = (s * cmax + component_of(s, n - 1)) * fact
    return start, cmax, size, plain, plain_at, shifted, shift_ids, shifted_at, shifts


def build_pdb(
    width: int,
    height: int,
    pattern_tiles,
    *,
    max_bytes: int = DEFAULT_MAX_BYTES,
    progress=None,
) -> PatternDatabase:
    """Exhaustive backward search from the goal.

    Moving the blank across a non-pattern tile costs nothing; moving it
    across a pattern tile costs one. The blank's cost-0 regions are the
    components of the cells the pattern leaves free, so the search runs
    over (tile set, tile order, region) states, where every move costs
    one, a layer at a time. A placement's index is ``set * k! + order``:
    ``set`` numbers the tile sets in ``itertools.combinations`` order and
    ``order`` is the lexicographic rank of sigma, the pattern tile on
    each cell of the set in ascending cell order. The first layer to
    settle a placement gives its entry, capped at 0xFE; the search runs
    until no layer queues a state, so only placements that cannot occur
    from the goal keep 0xFF.

    The build holds at most P(n,k)·(n+2) bytes, per-set arrays included;
    ``ResourceLimitError`` is raised before allocating when that passes
    ``max_bytes``. ``progress(distance, placements, states)``, if given,
    receives the running settled counts after each layer, ``states``
    counting (placement, blank cell) pairs.
    """
    tiles = tuple(sorted(pattern_tiles))
    _check_pattern(width, height, tiles)
    n = width * height
    k = len(tiles)

    table_len = math.perm(n, k)
    _check_bytes("pattern build needs", table_len * (n + 2), max_bytes)

    fact = math.factorial(k)
    (index, cmax, size, plain, plain_at, shifted, shift_ids, shifted_at,
     shifts) = _regions(width, height, [t - 1 for t in tiles])
    dist = bytearray([UNREACHED]) * table_len
    # seen[region * k! + order]: 2 settled; 1 or 3 queued, by the layer's parity.
    seen = bytearray(table_len * cmax)
    seen[index] = 1
    mark, d, placements, states = 1, 0, 0, 0
    while index >= 0:
        level, queue = min(d, 0xFE), mark ^ 2
        while index >= 0:
            seen[index] = 2
            x, order = divmod(index, fact)
            placement = x // cmax * fact + order
            if dist[placement] == UNREACHED:
                dist[placement] = level
                placements += 1
            states += size[x]
            for base in plain[plain_at[x] : plain_at[x + 1]]:
                child = base + order
                if not seen[child]:
                    seen[child] = queue
            for e in range(shifted_at[x], shifted_at[x + 1]):
                low, span, delta = shifts[shift_ids[e]]
                child = shifted[e] + order + delta[order // low % span]
                if not seen[child]:
                    seen[child] = queue
            index = seen.find(mark, index + 1)
        if progress is not None:
            progress(d, placements, states)
        mark, d = queue, d + 1
        index = seen.find(mark)
    del seen, size, plain, plain_at, shifted, shift_ids, shifted_at, shifts

    table = _rank_order(dist, n, k)
    del dist
    return PatternDatabase(width, height, tiles, bytes(table))


def _rank_order(dist: bytearray, n: int, k: int) -> bytearray:
    """``dist``, indexed by ``set * k! + order``, re-indexed by rank.

    Put tile sigma[j] on a set's j-th smallest cell. Tile i's rank digit
    is its cell less the number of tiles before i on cells below it, so
    the rank splits into ``sum_j (cells[j] - j) * w[sigma[j]]``, from the
    cells the set leaves free below each of its own, and R(sigma), the
    rank on the set {0, ..., k-1}: ``sum_j (j + e_j) * w[sigma[j]] -
    sum_v v * w[v]``, e being sigma's Lehmer digits. ``permutations(w)``
    yields ``w[sigma[.]]`` with sigma in lexicographic order, and
    ``product()`` the digits ``j + e_j`` in the same order. Each term is
    packed as k! fixed-width fields of one int, so a set's k! ranks take
    k multiplications.
    """
    fact = math.factorial(k)
    weights, code = rank_weights(n, k), _uint_code(len(dist))
    flat = array(code, itertools.chain.from_iterable(itertools.permutations(weights)))
    columns = [int.from_bytes(flat[j::k], sys.byteorder) for j in range(k)]
    del flat
    label_sum = sum(v * w for v, w in enumerate(weights))
    digits = itertools.product(*(range(j, k) for j in range(k)))
    first = array(code, (sum(map(operator.mul, f, w)) - label_sum
                         for f, w in zip(digits, itertools.permutations(weights))))
    first = int.from_bytes(first, sys.byteorder)
    table = bytearray([UNREACHED]) * len(dist)
    nbytes = fact * array(code).itemsize
    base = 0
    for cells in itertools.combinations(range(n), k):
        ranks = first
        for j, c in enumerate(cells):
            ranks += (c - j) * columns[j]
        ranks = array(code, ranks.to_bytes(nbytes, sys.byteorder))
        for rank, entry in zip(ranks, dist[base : base + fact]):
            table[rank] = entry
        base += fact
    return table
