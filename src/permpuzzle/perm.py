"""Exact algebra on permutations of {1..n}.

Points are 1-based at the API boundary. A permutation is stored as the
tuple of images of 1..n; composition follows the left-action convention:
``(a * b)(x) = a(b(x))``, i.e. ``b`` acts first.

One helper does each job. :func:`_check_degree` is the one check of a
degree, and :func:`_check_bijection` the one check that values hold
each of 1..n at most once, as ints; a :class:`Permutation`'s images, a
:class:`CycleDecomposition`'s points and a board's tile labels all pass
through it. :func:`_cycled` is the one place cycles are written into
images, and :func:`_canonical` the one canonical cycle walk. A
:class:`CycleDecomposition` is valid exactly when it is the canonical
decomposition of the bijection its cycles describe: every point of 1..n
once, each cycle from its least point, cycles in order of that point,
fixed points as 1-cycles.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import ParseError

__all__ = ["Parity", "Permutation", "CycleDecomposition"]


class Parity(Enum):
    """Sign of a permutation: even or odd number of transpositions."""

    EVEN = 0
    ODD = 1

    @classmethod
    def of(cls, count: int) -> "Parity":
        """Parity of an integer count of transpositions (or moves)."""
        return _PARITIES[count & 1]

    def __mul__(self, other: "Parity") -> "Parity":
        # Parity composition: Even is the identity, Odd*Odd = Even.
        return Parity(self.value ^ other.value)

    def __str__(self) -> str:
        return "Even" if self is Parity.EVEN else "Odd"


_PARITIES = (Parity.EVEN, Parity.ODD)


def _point(tok: str) -> int:
    """A point written in ASCII digits, as a board's tiles are: ``int``
    alone would also take a sign, underscores and other scripts' digits."""
    try:
        if tok.isascii() and tok.isdigit():
            return int(tok)
    except ValueError:  # past int()'s digit limit
        pass
    raise ParseError(f"invalid point {tok!r}")


def _check_degree(n) -> None:
    """Raise ``ValueError`` unless ``n`` is an int, not a bool, of at
    least 1."""
    if type(n) is not int:  # bool is an int subclass
        raise ValueError(f"degree must be an int, got {n!r}")
    if n < 1:
        raise ValueError("degree must be at least 1")


def _check_bijection(values, n: int, what: str) -> None:
    """Raise ``ValueError`` naming ``what`` unless each of ``values`` is
    an int in 1..n and none appears twice; whether they cover 1..n is
    the caller's count."""
    seen = bytearray(n + 1)
    for v in values:
        if type(v) is not int or not 1 <= v <= n:  # bool is an int subclass
            raise ValueError(f"{what} {v!r} outside 1..{n}")
        if seen[v]:
            raise ValueError(f"{what} {v} appears twice")
        seen[v] = 1


def _cycled(n: int, cycles) -> list[int]:
    """The images of 1..n that send each point of a cycle to the next
    and its last point to its first; points in no cycle stay fixed.
    The cycles must be disjoint, non-empty and within 1..n."""
    images = list(range(1, n + 1))
    for cycle in cycles:
        for a, b in zip(cycle, cycle[1:]):
            images[a - 1] = b
        images[cycle[-1] - 1] = cycle[0]
    return images


def _canonical(images) -> tuple[tuple[int, ...], ...]:
    """The cycles of the bijection sending i to ``images[i-1]``, each
    from its least point, in order of that point, fixed points as
    1-cycles. ``images`` must hold 1..n once each."""
    step, out = [0, *images], []  # step[p] is p's image, or 0 once p is walked
    for start in range(1, len(step)):
        cycle, p = [], start
        while step[p]:
            cycle.append(p)
            step[p], p = 0, step[p]
        if cycle:
            out.append(tuple(cycle))
    return tuple(out)


def cycle_parity(images) -> Parity:
    """Sign of the permutation sending point i to ``images[i-1]``: the
    parity of (n - number of cycles, fixed points included). ``images``
    must hold 1..n once each, as a :class:`Permutation`'s or a board's
    cells do; nothing here checks it."""
    step = [0, *images]  # step[p] is p's image, or 0 once p is visited
    cycles = 0
    for p in range(1, len(step)):
        if step[p]:
            cycles += 1
            while step[p]:
                step[p], p = 0, step[p]
    return Parity.of(len(images) - cycles)


@dataclass(frozen=True, slots=True)
class Permutation:
    """A bijection on {1..n}; ``images[i-1]`` is the image of point ``i``."""

    images: tuple[int, ...]

    def __post_init__(self):
        # Every constructor path validates the bijection property.
        images = tuple(self.images)
        object.__setattr__(self, "images", images)
        _check_degree(len(images))
        _check_bijection(images, len(images), "image")

    @property
    def degree(self) -> int:
        return len(self.images)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        """The permutation fixing every point of {1..n}."""
        _check_degree(n)
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        """The 2-cycle (i j) on {1..n}."""
        _check_degree(n)
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"points {i}, {j} must lie in 1..{n}")
        if i == j:
            raise ValueError("a transposition needs two distinct points")
        return cls(_cycled(n, ((i, j),)))

    @classmethod
    def parse(cls, text: str, degree: int) -> "Permutation":
        """Parse cycle or two-line notation at an explicit degree.

        Cycle notation: parenthesized groups of whitespace-separated
        points; omitted points are fixed, singletons are allowed. The
        empty string is the identity. Two-line notation: two rows of
        ``degree`` integers, each row a permutation of 1..degree. A point
        is ASCII digits, leading zeros allowed; anything else raises
        ``ParseError``.
        """
        _check_degree(degree)
        stripped = text.strip()
        if not stripped:
            return cls.identity(degree)
        if stripped.startswith("("):
            return cls._parse_cycles(stripped, degree)
        return cls._parse_two_line(stripped, degree)

    @classmethod
    def _parse_cycles(cls, text: str, degree: int) -> "Permutation":
        used, cycles = bytearray(degree + 1), []
        # Each ')' ends a group; the last piece is the text after the last ')'.
        groups = text.split(")")
        last = len(groups) - 1
        for k, group in enumerate(groups):
            lead, bracket, body = group.partition("(")
            if lead.strip() or not (bracket or k == last):
                # Text before a group's '(', or a ')' that no '(' opened.
                raise ParseError(f"malformed cycle notation: unexpected {(lead.strip() or ')')[0]!r}")
            if k == last:
                if bracket:
                    raise ParseError("malformed cycle notation: unclosed '('")
                break
            if "(" in body:
                raise ParseError("malformed cycle notation: nested '('")
            tokens = body.split()
            if not tokens:
                raise ParseError("malformed cycle notation: empty cycle")
            points = []
            for tok in tokens:
                p = _point(tok)
                if not 1 <= p <= degree:
                    raise ParseError(f"point {p} outside 1..{degree}")
                if used[p]:
                    raise ParseError(f"point {p} repeated")
                used[p] = 1
                points.append(p)
            cycles.append(points)
        return cls(_cycled(degree, cycles))

    @classmethod
    def _parse_two_line(cls, text: str, degree: int) -> "Permutation":
        rows = [row for row in text.splitlines() if row.strip()]
        if len(rows) != 2:
            raise ParseError(
                f"two-line notation requires exactly two rows, got {len(rows)}"
            )
        parsed = []
        for row in rows:
            values = [_point(tok) for tok in row.split()]
            if len(values) != degree:
                raise ParseError(
                    f"row has {len(values)} entries, expected {degree}"
                )
            if sorted(values) != list(range(1, degree + 1)):
                raise ParseError("two-line row is not a permutation of 1..n")
            parsed.append(values)
        top, bottom = parsed
        images = [0] * degree
        for src, dst in zip(top, bottom):
            images[src - 1] = dst
        return cls(tuple(images))

    # ------------------------------------------------------------------
    # Group operations
    # ------------------------------------------------------------------

    def apply(self, x: int) -> int:
        """Image of point ``x`` (1-based), an int as every point is."""
        if type(x) is not int or not 1 <= x <= len(self.images):
            raise ValueError(f"point {x!r} outside 1..{len(self.images)}")
        return self.images[x - 1]

    __call__ = apply

    def compose(self, inner: "Permutation") -> "Permutation":
        """Composition with ``self`` outermost: result(x) = self(inner(x))."""
        if len(self.images) != len(inner.images):
            raise ValueError(
                f"degree mismatch: {len(self.images)} vs {len(inner.images)}"
            )
        own = self.images
        return Permutation(tuple(own[v - 1] for v in inner.images))

    def __mul__(self, other: "Permutation") -> "Permutation":
        return self.compose(other)

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for i, v in enumerate(self.images):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    def sign(self) -> Parity:
        """Even iff the permutation factors into an even number of transpositions.

        Computed by :func:`cycle_parity`, which the solvability
        certificate also calls on a board's cells; an independent
        inversion-count oracle cross-checks it in the test suite.
        """
        return cycle_parity(self.images)

    def cycles(self) -> "CycleDecomposition":
        """Canonical disjoint-cycle decomposition, fixed points included.

        Its slots are set with no second check, as
        ``board._trusted_board`` sets a board's: :func:`_canonical`'s
        walk is canonical by construction."""
        dec = object.__new__(CycleDecomposition)
        object.__setattr__(dec, "degree", len(self.images))
        object.__setattr__(dec, "cycles", _canonical(self.images))
        return dec

    # ------------------------------------------------------------------
    # Notation
    # ------------------------------------------------------------------

    def format(self, style: str = "cycle") -> str:
        """Render as ``cycle`` or ``two-line`` notation; re-parses to self."""
        if style == "cycle":
            return str(self.cycles())
        if style == "two-line":
            top = " ".join(str(i) for i in range(1, len(self.images) + 1))
            bottom = " ".join(str(v) for v in self.images)
            return f"{top}\n{bottom}"
        raise ValueError(f"unknown style {style!r}; use 'cycle' or 'two-line'")

    def __str__(self) -> str:
        return self.format("cycle")


@dataclass(frozen=True, slots=True)
class CycleDecomposition:
    """Disjoint cycles partitioning {1..n}, in canonical order.

    Each cycle starts with its smallest point; cycles are sorted by first
    point; fixed points appear as singletons. The constructor accepts
    exactly such cycles (as tuples or lists, stored as tuples) and raises
    ``ValueError`` on anything else.
    """

    degree: int
    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        cycles = tuple(map(tuple, self.cycles))
        object.__setattr__(self, "cycles", cycles)
        n = self.degree
        _check_degree(n)
        if not all(cycles):
            raise ValueError("empty cycle")
        points = [p for cycle in cycles for p in cycle]
        _check_bijection(points, n, "point")
        if len(points) != n:
            raise ValueError("cycles do not cover every point")
        if _canonical(_cycled(n, cycles)) != cycles:
            raise ValueError("cycles are not the canonical decomposition")

    def to_permutation(self) -> Permutation:
        return Permutation(_cycled(self.degree, self.cycles))

    def __str__(self) -> str:
        return "".join(
            "(" + " ".join(str(p) for p in cycle) + ")" for cycle in self.cycles
        )
