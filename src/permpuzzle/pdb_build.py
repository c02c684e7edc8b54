"""Pattern database construction: a BFS over blank regions, a region at a time.

:func:`build_pdb` runs a layer-by-layer BFS over (tile set, tile order,
blank region) states. The blank's cost-0 region is a component of the
cells the pattern leaves free, which depends only on the set of pattern
cells: C(n,k) sets, against P(n,k) placements. One pass over the sets,
kept per shape and size in the per-shape store (``board._table``),
numbers their regions consecutively, a run per set, and records each
region's set, size and cost-1 slides. A layer maps each region to one
int whose bit ``o`` is tile order ``o``, so a slide carries all k!
orders at once: an OR when it keeps the order, else a few
mask-and-shift ops per adjacent swap first. Up to k = 4 a layer moves
all the orders that slides of one kind carry as one packed int, a field
per slide (:func:`_layers`). The build settles each layer's new
placements as one int of bits, ORed into the bit planes of their
entries, and holds the planes, one visited int per region and one
placed int per set; after the last layer the planes become the table,
indexed ``set * k! + order``, which is then written in rank order.
Nothing holds a byte per state.

The layers come from :func:`_layers`, which
:func:`~permpuzzle.solvability.reachable_states` also runs, with every
tile but the blank in the pattern: there each region is one cell of the
blank, and the bits set across the layers count the goal's component.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
import sys
from array import array
from collections import defaultdict
from itertools import compress, repeat
from operator import and_, mul, rshift

from .board import _blank_steps, _table
from .pattern_db import UNREACHED, PatternDatabase, _check_bytes, _check_pattern, rank_weights

__all__ = ["build_pdb"]


def _uint_code(limit: int) -> str:
    """An unsigned ``array`` type code that holds values below ``limit``."""
    return "I" if limit <= 1 << 32 else "Q"


def _swap_moves(k: int, p: int):
    """``(shift, masks, amounts)``: swapping the tiles at positions ``p``
    and ``p + 1`` of the sorted cells, as big-int ops on a set of orders.

    Order o is bit o. Only o's Lehmer digits x at p and y at p + 1
    change: to (y + 1, x) when y >= x, else to (y, x - 1). They form a
    window of place value ``low`` inside blocks of (k - p)! orders, so
    the bits that move by the same amount are one periodic mask, and
    there are 2(k - 1 - p) amounts. With the masks pre-shifted left by
    ``shift``, the moved set is the sum over the pairs of
    ``((orders << shift) & mask) >> amount``.
    """
    fact, radix = math.factorial(k), k - 1 - p
    low = math.factorial(radix - 1)
    block = (radix + 1) * radix * low
    ones, every = (1 << low) - 1, ((1 << fact) - 1) // ((1 << block) - 1)
    moves = defaultdict(int)
    for x in range(radix + 1):
        for y in range(radix):
            to = (y + 1) * radix + x if y >= x else y * radix + x - 1
            moves[(to - x * radix - y) * low] |= ones << (x * radix + y) * low
    shift = max(moves)
    return shift, [m * every << shift for m in moves.values()], [shift - d for d in moves]


def _regions(width: int, height: int, k: int):
    """Per-set tables for :func:`_layers`, the search of every k-tile
    :func:`build_pdb` on the shape and, with k = n - 1, of
    :func:`~permpuzzle.solvability.reachable_states`. Both read them
    through the per-shape store (``board._table``), so each shape and
    size is built once per process, whatever runs between its users.
    They are far smaller than the build charge that admits them: 0.13 MB
    for 4x4 with k = 4, 0.72 MB with k = 6 (``tracemalloc``, held after
    the call).

    Sets are numbered in ``itertools.combinations`` order. A set's free
    cells split into components, the blank's cost-0 regions. Regions are
    numbered consecutively, set by set, and a set's by their smallest
    cell, so every number names a real region: 2,442 of them for 4x4 with
    k = 4, 16,412 with k = 6. Region ``x`` belongs to set ``owner[x]``,
    owns ``size[x]`` cells and the cost-1 slides out of it,
    ``plain[plain_at[x]:plain_at[x + 1]]`` and likewise ``shifted``, each
    the child region. A shifted slide moves the tile from position ``pa``
    of the sorted cells to ``pz``, a run of adjacent swaps: its orders go
    through the :func:`_swap_moves` of each, listed in
    ``kinds[shift_ids[e]]``. ``field`` is the ``array`` code whose items
    hold k! orders shifted by the widest swap, the one at p = 0, or ''
    when none does (k > 4). Returns ``(start, owner, size, plain,
    plain_at, shifted, shift_ids, shifted_at, kinds, field)``; only
    ``start`` depends on the tiles: ``start(home)`` is the goal's region
    for the pattern whose home cells are ``home``, the blank on the last
    cell.
    """
    n = width * height
    sets = math.comb(n, k)
    neighbours = [[j for _, j in per_last[-1]] for per_last in _table(_blank_steps, width, height)]
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

    code = _uint_code(sets * (n - k))  # a set has at most n - k regions

    # Every set's components, by smallest cell; set s's are regions first[s] on.
    found = [components(full ^ sum(1 << c for c in cells))
             for cells in itertools.combinations(range(n), k)]
    first = array(code, itertools.accumulate(map(len, found), initial=0))
    owner = array(code, itertools.chain.from_iterable(map(repeat, range(sets), map(len, found))))

    def region_of(s, cell):
        comps, comp = found[s], 0
        while not comps[comp] >> cell & 1:
            comp += 1
        return first[s] + comp

    size = array("H", map(int.bit_count, itertools.chain.from_iterable(found)))
    plain, shifted, shift_ids = array(code), array(code), array("B")
    plain_at, shifted_at = array(code, [0]), array(code, [0])
    swaps = [_swap_moves(k, p) for p in range(k - 1)]
    shift_of, kinds = {}, []
    for s, cells in enumerate(itertools.combinations(range(n), k)):
        for region in found[s]:
            for pa, a in enumerate(cells):
                for z in neighbours[a]:
                    if not region >> z & 1:
                        continue
                    # The tile on a slides to z: its place among the sorted cells.
                    pz = bisect.bisect_left(cells, z) - (z > a)
                    if pz == pa:
                        plain.append(region_of(s + at[pa][a] - at[pa][z], a))
                        continue
                    moved = list(cells)
                    del moved[pa]
                    moved.insert(pz, z)
                    if (pa, pz) not in shift_of:
                        shift_of[pa, pz] = len(kinds)
                        run = range(pa, pz) if pa < pz else range(pa - 1, pz - 1, -1)
                        kinds.append([swaps[p] for p in run])
                    shifted.append(region_of(set_of(moved), a))
                    shift_ids.append(shift_of[pa, pz])
            plain_at.append(len(plain))
            shifted_at.append(len(shifted))

    def start(home):
        # The home set's components again, so that no mask outlives the build.
        comps = components(full ^ sum(1 << c for c in home))
        return first[set_of(home)] + [region >> n - 1 & 1 for region in comps].index(1)

    bits = math.factorial(k) + swaps[0][0] if swaps else 0
    field = next((code for code in "BHIQ" if 0 < bits <= 8 * array(code).itemsize), "")
    return start, owner, size, plain, plain_at, shifted, shift_ids, shifted_at, kinds, field


def _layers(tables, home):
    """The BFS over :func:`_regions` ``tables`` from the goal of the
    pattern whose home cells are ``home``, a layer at a time, every move
    costing one.

    Each layer is a list that maps every region to an int whose bit
    ``o`` is set when the layer first reaches tile order ``o`` there; it
    is the caller's to read until it asks for the next one. The search
    holds three such lists, the visited one among them, and the slide
    tables; it ends after the last non-empty layer.

    When the tables' ``field`` is an ``array`` code (k <= 4), a layer
    first lists, for each kind of shifted slide, the orders and child
    region of every such slide out of it, in two arrays. Each kind's
    orders then go through its swaps once, as one int of byte-aligned
    fields, and come back with one ``array`` read: a few big-int ops per
    kind and layer in place of a few per slide. On its own that took the
    four 4-4-4-3 builds from 154 to 117 ms in-process (medians of 30
    alternating rounds). Wider fields keep one chain of swaps per slide:
    packed as bytes, they took a 5-tile 4x4 build 24% less time, but a
    6-tile one 26% more and the 5x2 8-tile one 3.3 times as long, whose
    fields are 1,224 and 71,280 bits wide.
    """
    start, _, size, plain, plain_at, shifted, shift_ids, shifted_at, kinds, field = tables
    regions = range(len(size))
    frontier = [0] * len(size)
    frontier[start(home)] = 1  # the goal's order, the identity, is 0
    seen = frontier.copy()
    # Per kind, the orders and the child region of each of its slides in a layer.
    batches = [(array(field), array(shifted.typecode)) for _ in kinds] if field else []
    one = (1).to_bytes(array(field).itemsize, "little") if field else b""
    while any(frontier):
        yield frontier
        reached = [0] * len(size)
        for x in compress(regions, frontier):
            orders = frontier[x]
            for y in plain[plain_at[x] : plain_at[x + 1]]:
                reached[y] |= orders
            if field:
                for e in range(shifted_at[x], shifted_at[x + 1]):
                    sources, targets = batches[shift_ids[e]]
                    sources.append(orders)
                    targets.append(shifted[e])
            else:
                for e in range(shifted_at[x], shifted_at[x + 1]):
                    moved = orders
                    for shift, masks, amounts in kinds[shift_ids[e]]:
                        moved = sum(map(rshift, map(and_, repeat(moved << shift), masks), amounts))
                    reached[shifted[e]] |= moved
        for chain, (sources, targets) in zip(kinds, batches):
            if targets:
                ones = int.from_bytes(one * len(targets), "little")
                packed = int.from_bytes(sources, "little")
                for shift, masks, amounts in chain:
                    fields = map(mul, masks, repeat(ones))  # each mask in every field
                    packed = sum(map(rshift, map(and_, repeat(packed << shift), fields), amounts))
                packed = array(field, packed.to_bytes(len(one) * len(targets), "little"))
                for y, orders in zip(targets, packed):
                    reached[y] |= orders
                del sources[:], targets[:]
        for y in compress(regions, reached):
            reached[y] &= ~seen[y]
            seen[y] |= reached[y]
        frontier = reached


def build_pdb(
    width: int,
    height: int,
    pattern_tiles,
    *,
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

    A layer settles what it reaches first: per set, the orders no layer
    placed before, written as one int of k!-bit fields, each rounded up
    to whole bytes. That int is ORed into each bit plane ``b`` whose bit
    the layer's entry has; after the last layer the planes and the
    placed sets become the entries, a block at a time (:func:`_entries`).

    The build is charged P(n,k)·(n+2) bytes, and ``ResourceLimitError``
    is raised before allocating when that passes
    ``pattern_db.DEFAULT_MAX_BYTES``, read at the call. The
    charge is not a bound on what the build holds: on small shapes
    ``tracemalloc`` peaks above it (53.3 KB against 33,264 bytes for
    ``build_pdb(3, 3, [1, 2, 3, 4])`` from an empty store).
    ``progress(distance, placements, states)``, if given, receives the
    running settled counts after each layer, ``states`` counting
    (placement, blank cell) pairs.
    """
    tiles = tuple(sorted(pattern_tiles))
    _check_pattern(width, height, tiles)
    n = width * height
    k = len(tiles)

    table_len = math.perm(n, k)
    _check_bytes("pattern build needs", table_len * (n + 2))

    fact = math.factorial(k)
    tables = _table(_regions, width, height, k)
    owner, size = tables[1:3]
    sets, stride = math.comb(n, k), -(-fact // 8)
    placed = [0] * sets
    # Bit ``set * 8 * stride + order`` of planes[b] is bit b of that entry.
    planes, placements, states = [0] * 8, 0, 0
    for d, frontier in enumerate(_layers(tables, [t - 1 for t in tiles])):
        fresh, last = bytearray(sets * stride), None
        for x in compress(range(len(size)), frontier):
            orders, s = frontier[x], owner[x]
            states += size[x] * orders.bit_count()
            new = orders & ~placed[s]
            if new:
                placed[s] |= new
                if s == last:  # another region of the same set
                    new |= int.from_bytes(fresh[at], "little")
                at, last = slice(s * stride, s * stride + stride), s
                fresh[at] = new.to_bytes(stride, "little")
        new = int.from_bytes(fresh, "little")
        del fresh
        placements += new.bit_count()
        for b in range(8):
            if min(d, 0xFE) >> b & 1:
                planes[b] |= new
        if progress is not None:
            progress(d, placements, states)
    del frontier, new
    settled = int.from_bytes(b"".join(p.to_bytes(stride, "little") for p in placed), "little")
    rows = [(UNREACHED, ~settled & ((1 << 8 * sets * stride) - 1))]
    rows += [(1 << b, plane) for b, plane in enumerate(planes) if plane]
    del placed, settled, planes
    dist = _entries(rows, sets * stride)
    del rows
    if 8 * stride != fact:  # k <= 3: drop each set's padding
        dist = b"".join(dist[at : at + fact] for at in range(0, len(dist), 8 * stride))
    table = _rank_order(dist, n, k)
    del dist
    return PatternDatabase(width, height, tiles, bytes(table))


def _entries(rows, nbytes: int) -> bytearray:
    """The ``8 * nbytes`` entries that ``rows`` hold as bits: each row is
    ``(value, mask)``, and entry ``i`` is the OR of the values of the rows
    whose mask has bit ``i`` set. Each mask turns into bytes in place, one
    at a time, and each bit into a byte through its binary digit, 2^15
    entries at a time, so the copies beside the entries stay small."""
    onehot, block = bytes.maketrans(b"01", b"\0\1"), 1 << 12
    for i, (value, mask) in enumerate(rows):
        rows[i] = value, mask.to_bytes(nbytes, "little")
    dist = bytearray(8 * nbytes)
    for lo in range(0, nbytes, block):
        entries = 0
        for value, raw in rows:
            bits = raw[lo : lo + block]
            digits = format(int.from_bytes(bits, "little"), f"0{8 * len(bits)}b")
            entries |= int.from_bytes(digits.encode().translate(onehot), "big") * value
        dist[8 * lo : 8 * (lo + block)] = entries.to_bytes(8 * len(bits), "little")
    return dist


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
    k multiplications, and the next set of a run that differs only in
    its last cell one addition. A run's ranks come back with one
    ``array`` read and go to the table in one loop over its entries.
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
    # combinations() lists the sets that differ in their last cell only
    # one after another, and each step of that cell adds the last column.
    for prefix in itertools.combinations(range(n - 1), k - 1):
        cells = prefix + (prefix[-1] + 1 if prefix else 0,)
        ranks = first + sum((c - j) * column for j, (c, column) in enumerate(zip(cells, columns)))
        run = itertools.accumulate(repeat(columns[-1], n - 1 - cells[-1]), initial=ranks)
        ranks = array(code, b"".join(r.to_bytes(nbytes, sys.byteorder) for r in run))
        for rank, entry in zip(ranks, dist[base : base + len(ranks)]):
            table[rank] = entry
        base += len(ranks)
    return table
