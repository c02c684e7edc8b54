"""Exact algebra on permutations of {1..n}.

Points are 1-based at the API boundary. A permutation is stored as the
tuple of images of 1..n; composition follows the left-action convention:
``(a * b)(x) = a(b(x))``, i.e. ``b`` acts first.
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
        n = len(images)
        if n < 1:
            raise ValueError("degree must be at least 1")
        seen = bytearray(n + 1)
        for v in images:
            if type(v) is not int or not 1 <= v <= n:  # bool is an int subclass
                raise ValueError(f"image {v!r} outside 1..{n}")
            if seen[v]:
                raise ValueError(f"value {v} appears twice; not a bijection")
            seen[v] = 1

    @property
    def degree(self) -> int:
        return len(self.images)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "Permutation":
        """The permutation fixing every point of {1..n}."""
        if n < 1:
            raise ValueError("degree must be at least 1")
        return cls(tuple(range(1, n + 1)))

    @classmethod
    def transposition(cls, n: int, i: int, j: int) -> "Permutation":
        """The 2-cycle (i j) on {1..n}."""
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"points {i}, {j} must lie in 1..{n}")
        if i == j:
            raise ValueError("a transposition needs two distinct points")
        images = list(range(1, n + 1))
        images[i - 1], images[j - 1] = j, i
        return cls(tuple(images))

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
        if degree < 1:
            raise ValueError("degree must be at least 1")
        stripped = text.strip()
        if not stripped:
            return cls.identity(degree)
        if stripped.startswith("("):
            return cls._parse_cycles(stripped, degree)
        return cls._parse_two_line(stripped, degree)

    @classmethod
    def _parse_cycles(cls, text: str, degree: int) -> "Permutation":
        images = list(range(1, degree + 1))
        used = bytearray(degree + 1)
        i = 0
        while i < len(text):
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch != "(":
                raise ParseError(f"malformed cycle notation: unexpected {ch!r}")
            close = text.find(")", i + 1)
            if close < 0:
                raise ParseError("malformed cycle notation: unclosed '('")
            body = text[i + 1 : close]
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
            for a, b in zip(points, points[1:]):
                images[a - 1] = b
            images[points[-1] - 1] = points[0]
            i = close + 1
        return cls(tuple(images))

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
        """Image of point ``x`` (1-based)."""
        if not 1 <= x <= len(self.images):
            raise ValueError(f"point {x} outside 1..{len(self.images)}")
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
        """Canonical disjoint-cycle decomposition, fixed points included."""
        images = self.images
        n = len(images)
        seen = bytearray(n + 1)
        out: list[tuple[int, ...]] = []
        for start in range(1, n + 1):
            if seen[start]:
                continue
            cycle = [start]
            seen[start] = 1
            p = images[start - 1]
            while p != start:
                cycle.append(p)
                seen[p] = 1
                p = images[p - 1]
            out.append(tuple(cycle))
        return CycleDecomposition(n, tuple(out))

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
    point; fixed points appear as singletons.
    """

    degree: int
    cycles: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.degree
        seen = bytearray(n + 1)
        previous_first = 0
        for cycle in self.cycles:
            if not cycle:
                raise ValueError("empty cycle")
            if cycle[0] != min(cycle):
                raise ValueError(f"cycle {cycle} does not start at its minimum")
            if cycle[0] <= previous_first:
                raise ValueError("cycles not sorted by first point")
            previous_first = cycle[0]
            for p in cycle:
                if not 1 <= p <= n:
                    raise ValueError(f"point {p} outside 1..{n}")
                if seen[p]:
                    raise ValueError(f"point {p} appears twice")
                seen[p] = 1
        if sum(len(c) for c in self.cycles) != n:
            raise ValueError("cycles do not cover every point")

    def to_permutation(self) -> Permutation:
        images = list(range(1, self.degree + 1))
        for cycle in self.cycles:
            for a, b in zip(cycle, cycle[1:]):
                images[a - 1] = b
            images[cycle[-1] - 1] = cycle[0]
        return Permutation(tuple(images))

    def __str__(self) -> str:
        return "".join(
            "(" + " ".join(str(p) for p in cycle) + ")" for cycle in self.cycles
        )
