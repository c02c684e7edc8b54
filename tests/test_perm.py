from __future__ import annotations

import itertools

import pytest
from hypothesis import given, strategies as st

from permpuzzle import CycleDecomposition, Parity, ParseError, Permutation

from conftest import FIG3_CYCLES

FIG3_IMAGES = (3, 2, 13, 9, 6, 7, 12, 5, 10, 11, 8, 4, 15, 14, 1, 16)

DEGREE_NOT_INT = [
    (Permutation.parse, ("(1)", True)),
    (Permutation.parse, ("", True)),
    (Permutation.identity, (True,)),
    (CycleDecomposition, (True, ((1,),))),
    (CycleDecomposition, (2.0, ((1,), (2,)))),
    (Permutation.parse, ("(1 2)", 2.0)),
    (Permutation.transposition, (3.0, 1, 2)),
    (Permutation.identity, (2.0,)),
]

perms = st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.permutations(tuple(range(1, n + 1)))
).map(lambda xs: Permutation(tuple(xs)))

perms16 = st.permutations(tuple(range(1, 17))).map(lambda xs: Permutation(tuple(xs)))

perm_pairs = st.integers(min_value=1, max_value=16).flatmap(
    lambda n: st.tuples(
        st.permutations(tuple(range(1, n + 1))),
        st.permutations(tuple(range(1, n + 1))),
    )
).map(lambda ab: (Permutation(tuple(ab[0])), Permutation(tuple(ab[1]))))


def fig3() -> Permutation:
    return Permutation(FIG3_IMAGES)


class TestConstruction:
    def test_identity_degree_one(self):
        assert Permutation.identity(1).images == (1,)

    def test_identity_degree_four(self):
        assert Permutation.identity(4).images == (1, 2, 3, 4)

    def test_identity_rejects_degree_zero(self):
        with pytest.raises(ValueError):
            Permutation.identity(0)

    def test_rejects_non_bijection(self):
        with pytest.raises(ValueError, match="twice"):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError, match="outside"):
            Permutation((0, 1))
        with pytest.raises(ValueError, match="outside"):
            Permutation((1, 3))

    def test_rejects_bool_images(self):
        # bool is an int subclass: True would otherwise pass as the point 1.
        with pytest.raises(ValueError, match="image True outside 1..2"):
            Permutation((2, True))
        with pytest.raises(ValueError, match="image False outside 1..2"):
            Permutation((False, 1))

    def test_transposition_paper_target(self):
        t = Permutation.transposition(16, 14, 15)
        assert t.apply(14) == 15
        assert t.apply(15) == 14
        assert t.apply(3) == 3

    def test_transposition_rejects_equal_points(self):
        with pytest.raises(ValueError):
            Permutation.transposition(16, 14, 14)

    def test_transposition_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Permutation.transposition(4, 1, 5)


class TestApply:
    def test_fig3_two_line_row(self):
        assert fig3().apply(1) == 3

    def test_fig3_fixed_point(self):
        assert fig3().apply(16) == 16

    def test_identity_apply(self):
        assert Permutation.identity(16).apply(7) == 7

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            fig3().apply(17)
        with pytest.raises(ValueError):
            fig3().apply(0)


class TestCompose:
    def test_identity_law_on_fig3(self):
        a = fig3()
        assert Permutation.identity(16).compose(a) == a
        assert a.compose(Permutation.identity(16)) == a

    def test_lloyd_as_one_left_multiplication(self):
        t = Permutation.transposition(16, 14, 15)
        assert t.compose(Permutation.identity(16)) == t

    def test_inner_acts_first(self):
        outer = Permutation.parse("(1 2)", 3)
        inner = Permutation.parse("(2 3)", 3)
        assert outer.compose(inner).images == (2, 3, 1)

    def test_mul_is_compose(self):
        outer = Permutation.parse("(1 2)", 3)
        inner = Permutation.parse("(2 3)", 3)
        assert outer * inner == outer.compose(inner)

    def test_degree_mismatch_rejected(self):
        with pytest.raises(ValueError, match="degree"):
            Permutation.identity(3).compose(Permutation.identity(4))


class TestInverse:
    def test_identity_self_inverse(self):
        assert Permutation.identity(16).inverse() == Permutation.identity(16)

    def test_four_cycle(self):
        p = Permutation.parse("(1 3 13 15)", 16)
        assert p.inverse() == Permutation.parse("(1 15 13 3)", 16)

    def test_transpositions_are_involutions(self):
        t = Permutation.transposition(16, 14, 15)
        assert t.inverse() == t


class TestSign:
    def test_identity_even(self):
        for n in (1, 2, 9, 16):
            assert Permutation.identity(n).sign() is Parity.EVEN

    def test_single_transposition_odd(self):
        assert Permutation.transposition(16, 14, 15).sign() is Parity.ODD

    def test_fig3_odd(self):
        # One 4-cycle (3 transpositions) and one 9-cycle (8): 11 total.
        assert fig3().sign() is Parity.ODD

    def test_parity_multiplication(self):
        assert Parity.EVEN * Parity.EVEN is Parity.EVEN
        assert Parity.EVEN * Parity.ODD is Parity.ODD
        assert Parity.ODD * Parity.ODD is Parity.EVEN


class TestCycles:
    def test_fig3_golden(self):
        dec = fig3().cycles()
        assert dec.cycles == (
            (1, 3, 13, 15),
            (2,),
            (4, 9, 10, 11, 8, 5, 6, 7, 12),
            (14,),
            (16,),
        )
        assert str(dec) == FIG3_CYCLES

    def test_identity_all_singletons(self):
        assert Permutation.identity(3).cycles().cycles == ((1,), (2,), (3,))

    def test_transposition_with_fixed_points(self):
        dec = Permutation.transposition(4, 2, 4).cycles()
        assert dec.cycles == ((1,), (2, 4), (3,))

    def test_decomposition_validates_canonical_form(self):
        with pytest.raises(ValueError):
            CycleDecomposition(3, ((2, 1), (3,)))
        with pytest.raises(ValueError):
            CycleDecomposition(3, ((1, 2),))
        with pytest.raises(ValueError):
            CycleDecomposition(3, ((1, 2), (2, 3)))

    def test_decomposition_points_are_ints(self):
        # True would pass a range check as the point 1, and a str would
        # fail it with a TypeError.
        with pytest.raises(ValueError, match="point True outside 1..2"):
            CycleDecomposition(2, ((True, 2),))
        with pytest.raises(ValueError, match="point '2' outside 1..3"):
            CycleDecomposition(3, ((1, "2"), (3,)))

    @pytest.mark.parametrize("make, args", DEGREE_NOT_INT,
                             ids=[f"{make.__qualname__}{args}" for make, args in DEGREE_NOT_INT])
    def test_degree_must_be_an_int(self, make, args):
        # bool is an int subclass; neither it nor a float is a degree.
        with pytest.raises(ValueError, match="degree must be an int"):
            make(*args)

    def test_decomposition_degree_at_least_one(self):
        with pytest.raises(ValueError, match="degree must be at least 1"):
            CycleDecomposition(0, ())

    def test_decomposition_empty_cycle_rejected(self):
        with pytest.raises(ValueError, match="empty cycle"):
            CycleDecomposition(2, ((1, 2), ()))

    def test_decomposition_stores_lists_as_tuples(self):
        dec = CycleDecomposition(3, ([1, 2], [3]))
        assert dec.cycles == ((1, 2), (3,))
        assert dec == Permutation.parse("(1 2)", 3).cycles()
        assert hash(dec) == hash(Permutation.parse("(1 2)", 3).cycles())

    def test_apply_points_are_ints(self):
        p = Permutation((2, 1, 3))
        with pytest.raises(ValueError, match="point True outside 1..3"):
            p.apply(True)
        with pytest.raises(ValueError, match="point 1.0 outside 1..3"):
            p.apply(1.0)


def _variants(cycles):
    """Non-canonical variants of canonical ``cycles``: its longest cycle
    rotated (when it has two points or more), its first cycle with a
    repeated point, its cycles in reverse order (when there are two or
    more), and its first cycle dropped."""
    longest = max(cycles, key=len)
    k = cycles.index(longest)
    if len(longest) > 1:
        yield cycles[:k] + (longest[1:] + longest[:1],) + cycles[k + 1 :]
    yield (cycles[0] + cycles[0][:1],) + cycles[1:]
    if len(cycles) > 1:
        yield cycles[::-1]
    yield cycles[1:]


@pytest.mark.parametrize("n", range(1, 8))
def test_every_permutation_round_trips(n):
    """Every permutation of degree 1-7 (5,913 in all) re-parses from both
    notations, rebuilds from its cycles, and has the sign that its cycle
    count gives; each non-canonical variant of its cycles is refused."""
    for images in itertools.permutations(range(1, n + 1)):
        p = Permutation(images)
        for style in ("cycle", "two-line"):
            assert Permutation.parse(p.format(style), n) == p
        dec = p.cycles()
        assert dec.to_permutation() == p
        assert CycleDecomposition(n, dec.cycles) == dec
        assert p.sign() is Parity.of(n - len(dec.cycles))
        for cycles in _variants(dec.cycles):
            with pytest.raises(ValueError):
                CycleDecomposition(n, cycles)


class TestParse:
    def test_fig3_cycle_form_fixed_points_omitted(self):
        text = "(1 3 13 15)(4 9 10 11 8 5 6 7 12)"
        assert Permutation.parse(text, 16) == fig3()

    def test_empty_is_identity(self):
        assert Permutation.parse("", 16) == Permutation.identity(16)
        assert Permutation.parse("   \n ", 16) == Permutation.identity(16)

    def test_repeated_point_rejected(self):
        with pytest.raises(ParseError, match="repeated"):
            Permutation.parse("(1 2)(2 3)", 3)
        with pytest.raises(ParseError, match="repeated"):
            Permutation.parse("(1 2 1)", 3)

    def test_singletons_accepted(self):
        assert Permutation.parse("(1)(2 3)", 3) == Permutation.parse("(2 3)", 3)

    def test_point_beyond_degree_rejected(self):
        with pytest.raises(ParseError, match="outside"):
            Permutation.parse("(1 17)", 16)

    def test_malformed_parentheses(self):
        with pytest.raises(ParseError, match="unclosed"):
            Permutation.parse("(1 2", 3)
        with pytest.raises(ParseError, match="unexpected"):
            Permutation.parse("(1 2))", 3)
        with pytest.raises(ParseError, match="empty"):
            Permutation.parse("()", 3)

    def test_degree_is_explicit_not_inferred(self):
        assert Permutation.parse("(1 2)", 2).degree == 2
        assert Permutation.parse("(1 2)", 16).degree == 16

    def test_two_line(self):
        assert Permutation.parse("1 2 3\n2 1 3", 3) == Permutation.transposition(3, 1, 2)

    def test_two_line_scrambled_top_row(self):
        assert Permutation.parse("2 1 3\n1 2 3", 3) == Permutation.transposition(3, 1, 2)

    def test_two_line_non_bijection_rejected(self):
        with pytest.raises(ParseError, match="not a permutation"):
            Permutation.parse("1 2 2\n3 2 1", 3)
        with pytest.raises(ParseError, match="not a permutation"):
            Permutation.parse("1 2 3\n1 1 3", 3)

    def test_two_line_wrong_row_count(self):
        with pytest.raises(ParseError, match="two rows"):
            Permutation.parse("1 2 3", 3)

    def test_two_line_wrong_length(self):
        with pytest.raises(ParseError, match="entries"):
            Permutation.parse("1 2\n2 1", 3)

    def test_bad_token(self):
        with pytest.raises(ParseError, match="invalid point"):
            Permutation.parse("(1 x)", 3)

    # Tokens that int() reads but a point is not: a sign, '_' between
    # digits, digits of another script; and one past int()'s digit limit.
    @pytest.mark.parametrize(
        "point", ["+1", "-1", "1_0", "\u0967", "1" * 5000],
        ids=["plus", "minus", "underscore", "devanagari", "5000-digits"],
    )
    def test_points_are_ascii_digits_only(self, point):
        for text, degree in ((f"({point} 2)", 10), (f"{point} 2\n2 1", 2), (f"1 2\n2 {point}", 2)):
            with pytest.raises(ParseError, match="invalid point"):
                Permutation.parse(text, degree)

    def test_leading_zeros_accepted(self):
        assert Permutation.parse("(01 002)", 3) == Permutation.transposition(3, 1, 2)
        assert Permutation.parse("01 2\n2 001", 2) == Permutation.transposition(2, 1, 2)


class TestFormat:
    def test_fig3_cycle_golden(self):
        assert fig3().format("cycle") == FIG3_CYCLES

    def test_identity_cycle(self):
        assert Permutation.identity(2).format("cycle") == "(1)(2)"

    def test_two_line(self):
        assert Permutation.transposition(3, 1, 2).format("two-line") == "1 2 3\n2 1 3"

    def test_unknown_style(self):
        with pytest.raises(ValueError):
            fig3().format("one-line")


class TestProperties:
    @given(perms16, perms16, perms16)
    def test_associativity(self, a, b, c):
        assert a.compose(b.compose(c)) == a.compose(b).compose(c)

    @given(perms16)
    def test_identity_laws(self, p):
        e = Permutation.identity(16)
        assert e.compose(p) == p
        assert p.compose(e) == p

    @given(perms16)
    def test_inverse_laws(self, p):
        e = Permutation.identity(16)
        assert p.inverse().compose(p) == e
        assert p.compose(p.inverse()) == e

    @given(perms16, perms16)
    def test_sign_homomorphism(self, a, b):
        assert a.compose(b).sign() is a.sign() * b.sign()

    @given(perms)
    def test_sign_agrees_with_independent_oracles(self, p):
        from oracles import inversion_sign, transposition_word_sign

        assert p.sign() is Parity.of(inversion_sign(p.images))
        assert p.sign() is Parity.of(transposition_word_sign(p.images))

    @given(perm_pairs)
    def test_compose_matches_pointwise_oracle(self, pair):
        from oracles import compose_pointwise

        a, b = pair
        assert a.compose(b).images == compose_pointwise(a.images, b.images)

    @given(perms)
    def test_bijection_preserved(self, p):
        for q in (p.compose(p), p.inverse()):
            assert sorted(q.images) == list(range(1, p.degree + 1))

    @given(perms)
    def test_notation_round_trips(self, p):
        n = p.degree
        assert Permutation.parse(p.format("cycle"), n) == p
        assert Permutation.parse(p.format("two-line"), n) == p

    @given(perms)
    def test_cycles_reassemble_and_partition(self, p):
        dec = p.cycles()
        assert dec.to_permutation() == p
        support = sorted(pt for cycle in dec.cycles for pt in cycle)
        assert support == list(range(1, p.degree + 1))
