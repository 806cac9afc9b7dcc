"""Free algebra: monomials, polynomials, classification, and the grammar."""

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from gradedpi.grading import (
    ElementaryGrading,
    GradingError,
    IntegerGroup,
    MatrixUnitSemigroup,
    MU_ZERO,
    parse_grading_spec,
)
from gradedpi.freealg import (
    MAX_TERM_DEGREE,
    Monomial,
    ONE,
    Polynomial,
    PolynomialSyntaxError,
    Var,
    apply_substitution,
    classify,
    format_polynomial,
    parse_monomial,
    parse_polynomial,
    twin_block_threshold,
)

ZN2 = parse_grading_spec("zn:2")
Z2 = parse_grading_spec("z:2")
Z3 = parse_grading_spec("z:3")
MU2 = parse_grading_spec("mu:2")


def mono(*pairs):
    return Monomial(Var(g, i) for g, i in pairs)


class TestMonomial:
    def test_degree_examples(self):
        assert mono((1, 1), (1, 2)).degree(ZN2) == 0
        assert mono(((1, 2), 1), ((1, 2), 2)).degree(MU2) == MU_ZERO
        assert mono((1, 1), (-1, 1), (1, 2)).degree(Z2) == 1
        assert ONE.degree(Z2) == 0
        with pytest.raises(GradingError):
            ONE.degree(MU2)

    def test_h_of_window_is_slice(self):
        rng = random.Random(5)
        for _ in range(50):
            d = rng.randint(1, 7)
            m = Monomial(Var(rng.randint(-2, 2), rng.randint(1, 3)) for _ in range(d))
            k = rng.randint(1, d)
            l = rng.randint(k, d)
            assert Monomial(m.vars[k - 1 : l]).h == m.h[k - 1 : l]


class TestPolynomial:
    def test_ring_axioms_smoke(self):
        a = Polynomial.from_monomial(mono((0, 1)))
        b = Polynomial.from_monomial(mono((1, 1)), 2)
        c = Polynomial.from_monomial(mono((1, 2)), -1)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a - a).is_zero
        assert a * Polynomial.one() == a
        assert (a * b) * c == a * (b * c)

    def test_no_zero_coefficients_stored(self):
        p = Polynomial({mono((0, 1)): 1}) + Polynomial({mono((0, 1)): -1})
        assert p.terms == {}
        assert p == Polynomial.zero()


class TestSubstitution:
    def test_identity_map(self):
        f = parse_polynomial("x[0,1]*x[0,2] - x[0,2]*x[0,1]", ZN2)
        assert apply_substitution(f, {}, ZN2) == f

    def test_splice(self):
        f = parse_polynomial("x[0,1]*x[0,2]", ZN2)
        image = parse_polynomial("x[1,3]*x[1,4]", ZN2)
        out = apply_substitution(f, {Var(0, 1): image}, ZN2)
        assert out == parse_polynomial("x[1,3]*x[1,4]*x[0,2]", ZN2)

    def test_zero_image_annihilates(self):
        f = parse_polynomial("x[0,1]*x[0,2] + x[1,1]*x[1,2]", ZN2)
        out = apply_substitution(f, {Var(0, 1): Polynomial.zero()}, ZN2)
        assert out == parse_polynomial("x[1,1]*x[1,2]", ZN2)

    def test_grade_mismatch_rejected(self):
        f = parse_polynomial("x[0,1]", ZN2)
        with pytest.raises(GradingError):
            apply_substitution(f, {Var(0, 1): parse_polynomial("x[1,1]", ZN2)}, ZN2)
        with pytest.raises(GradingError, match="^polynomial is not homogeneous$"):
            apply_substitution(f, {Var(0, 1): parse_polynomial("x[0,2] + x[1,2]", ZN2)}, ZN2)


class TestStripNeutralEquivalence:
    def test_identity_verdict_survives_stripping(self):
        # for multilinear support-closed words, deleting neutral variables
        # never changes the identity verdict
        from gradedpi.genericmodel import is_identity

        rng = random.Random(29)
        checked = 0
        while checked < 60:
            grading = Z2 if rng.random() < 0.5 else Z3
            d = rng.randint(1, 5)
            supp = sorted(grading.support())
            vars = [Var(rng.choice(supp), c + 1) for c in range(d)]
            m = Monomial(vars)
            if not classify(m, grading).support_closed:
                continue
            stripped = Monomial(v for v in m.vars if v.grade != grading.neutral)
            if not len(stripped):
                continue
            left = is_identity(Polynomial.from_monomial(m), grading)
            right = is_identity(Polynomial.from_monomial(stripped), grading)
            assert left == right
            checked += 1


class TestClassify:
    def test_support_closure_examples(self):
        assert not classify(mono((1, 1), (1, 2)), Z2).support_closed
        cls = classify(mono((1, 1), (1, 2)), ZN2)
        assert cls.support_closed
        assert not cls.has_proper_neutral_subword

    def test_twin_blocks_example(self):
        # three adjacent neutral blocks of two degree-1 variables each
        m = mono((1, 1), (1, 2), (1, 3), (1, 4), (1, 5), (1, 6))
        cls = classify(m, ZN2)
        assert cls.has_twin_neutral_blocks

        def witness_valid(a, p1, p2):
            l = len(m)
            if not (1 <= p1 < p1 + a < p2 < p2 + a <= l):
                return False
            def window(lo, hi):
                return Monomial(m.vars[lo - 1 : hi])

            blocks_neutral = all(
                window(lo, hi).degree(ZN2) == 0
                for lo, hi in ((p1, p1 + a), (p2, p2 + a))
            )
            gap = (
                window(p1 + a + 1, p2 - 1).degree(ZN2) == 0
                if p2 > p1 + a + 1
                else True
            )
            same_h = window(p1, p1 + a).h == window(p2, p2 + a).h
            return blocks_neutral and gap and same_h

        w = cls.twin_blocks
        assert witness_valid(w.a, w.p1, w.p2)
        assert witness_valid(1, 1, 5)  # another valid witness for the same word

    def test_short_words_have_no_twin_blocks(self):
        assert classify(mono((1, 1), (1, 2), (1, 3)), ZN2).twin_blocks is None

    def test_positional_grading(self):
        assert classify(mono(((1, 2), 1), ((2, 1), 2)), MU2).support_closed
        cls = classify(mono(((1, 2), 1), ((1, 2), 2)), MU2)
        assert not cls.support_closed  # the zero degree leaves the support
        assert not cls.has_proper_neutral_subword

    def test_long_support_closed_words_gain_neutral_subwords(self):
        # support-closed words longer than the support size must contain a
        # proper neutral subword
        rng = random.Random(3)
        for grading, s in ((ZN2, 2), (Z2, 3)):
            for _ in range(60):
                d = rng.randint(s + 1, s + 6)
                if grading is ZN2:
                    vars = [Var(1, c + 1) for c in range(d)]
                else:
                    sign = rng.choice((1, -1))
                    vars = [Var(sign if c % 2 == 0 else -sign, c + 1) for c in range(d)]
                m = Monomial(vars)
                cls = classify(m, grading)
                assert cls.support_closed
                assert cls.has_proper_neutral_subword
        # full-support residue grading: any neutral-free word is support-closed
        zn3 = parse_grading_spec("zn:3")
        for _ in range(60):
            d = rng.randint(4, 9)
            m = Monomial(Var(rng.choice((1, 2)), c + 1) for c in range(d))
            cls = classify(m, zn3)
            assert cls.support_closed
            assert cls.has_proper_neutral_subword

    @pytest.mark.parametrize(
        "structure_class, args, rows, grades",
        [
            (IntegerGroup, (), (1, 2), [1, -1] * 500),
            (MatrixUnitSemigroup, (3,), ((1, 1), (2, 2), (3, 3)), [(1, 1)] * 1000),
        ],
        ids=["z:2-alternating", "mu:3-power"],
    )
    def test_products_grow_linearly(self, structure_class, args, rows, grades):
        # a count, not a timing: at most 2 l + |support|^2 products, where
        # multiplying out every subword would take l (l + 1) / 2
        class Counting(structure_class):
            calls = 0

            def mul(self, a, b):
                self.calls += 1
                return super().mul(a, b)

        structure = Counting(*args)
        grading = ElementaryGrading(structure, rows)
        structure.calls = 0
        assert classify(mono(*((g, 1) for g in grades)), grading).support_closed
        assert structure.calls <= 2 * len(grades) + len(grading.support()) ** 2

    def test_threshold_values(self):
        # independent oracle: expand the defining sum directly
        def oracle(s):
            return (s + 1) * ((s + 1) * sum((s - 1) ** i for i in range(1, s + 1)) + 1)

        for s in range(1, 7):
            assert twin_block_threshold(s) == oracle(s)
        assert [twin_block_threshold(s) for s in (1, 2, 3)] == [2, 21, 228]
        with pytest.raises(ValueError):
            twin_block_threshold(0)


class TestGrammar:
    def test_parse_examples(self):
        f = parse_polynomial("x[1,1]*x[1,2] - x[1,2]*x[1,1]", ZN2)
        assert len(f.terms) == 2
        g = parse_polynomial("3*x[0,1]^2", ZN2)
        assert g == Polynomial.from_monomial(mono((0, 1), (0, 1)), 3)
        h = parse_polynomial("x[(1,2),1]", MU2)
        assert h == Polynomial.from_var(Var((1, 2), 1))

    def test_residues_reduce(self):
        assert parse_polynomial("x[5,1]", parse_grading_spec("zn:3")) == Polynomial.from_var(Var(2, 1))
        assert parse_polynomial("x[-1,1]", ZN2) == Polynomial.from_var(Var(1, 1))

    def test_zero_and_constants(self):
        assert parse_polynomial("0", ZN2).is_zero
        assert parse_polynomial("3", ZN2) == Polynomial({ONE: 3})
        assert format_polynomial(Polynomial.zero(), ZN2) == "0"

    def test_pair_grades_only_under_positional(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x[(1,2),1]", ZN2)
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x[2,1]", MU2)

    def test_syntax_errors_carry_positions(self):
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial("x[1,1] + + x[1,2]", ZN2)
        assert err.value.position == 9
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("x[1]", ZN2)
        with pytest.raises(PolynomialSyntaxError):
            parse_polynomial("", ZN2)

    def test_parse_monomial_rejects_sums(self):
        with pytest.raises(PolynomialSyntaxError):
            parse_monomial("x[1,1] + x[0,1]", ZN2)
        with pytest.raises(PolynomialSyntaxError):
            parse_monomial("2*x[1,1]", ZN2)
        assert parse_monomial("x[1,1]^2", ZN2) == mono((1, 1), (1, 1))

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_round_trip(self, data):
        grading = data.draw(st.sampled_from([ZN2, Z3, MU2]))
        if grading is MU2:
            grades = st.sampled_from([(1, 1), (1, 2), (2, 1), (2, 2), MU_ZERO])
        elif grading is Z3:
            grades = st.integers(min_value=-4, max_value=4)
        else:
            grades = st.integers(min_value=0, max_value=1)
        monomials = st.lists(
            st.tuples(grades, st.integers(min_value=1, max_value=3)), max_size=5
        ).map(lambda pairs: Monomial(Var(g, i) for g, i in pairs))
        f = Polynomial(
            dict(
                data.draw(
                    st.lists(
                        st.tuples(monomials, st.integers(min_value=-9, max_value=9)),
                        max_size=5,
                    )
                )
            )
        )
        text = format_polynomial(f, grading)
        assert parse_polynomial(text, grading) == f


ZN5 = parse_grading_spec("zn:5")
TERM_X12 = "*".join(["x[1,2]"] * (MAX_TERM_DEGREE - 1))


@pytest.mark.parametrize(
    "text, expected",
    [
        ("x[٣,1]", Polynomial.from_var(Var(3, 1))),  # an Arabic-Indic digit
        ("x[²,1]", "malformed number (at position 2)"),  # a digit int() refuses
        ("x[0," + "1" * 5000 + "]", "malformed number (at position 4)"),
        ("x[0,1]\x1c*　x[1,2]　", Polynomial.from_monomial(mono((0, 1), (1, 2)))),
        ("\x1c-　x[ 1 ,\x1c2 ] ^　2", Polynomial.from_monomial(mono((1, 2), (1, 2)), -1)),
        ("x [0,1]", "expected '[' (at position 1)"),
        ("x[- 1,1]", "expected a number (at position 3)"),
        ("+x[0,1]", "expected a variable factor (at position 0)"),
        ("- -x[0,1]", "expected a variable factor (at position 2)"),
        ("3 x[0,1]", "expected '+', '-', or end of input (at position 2)"),
        ("0*x[0,1]", Polynomial.zero()),
        ("x[0,1] - x[0,1] + 2", Polynomial({ONE: 2})),
        ("", "empty input (at position 0)"),
        (" \t\n", "empty input (at position 3)"),
    ],
)
def test_parser_edge_cases(text, expected):
    if isinstance(expected, Polynomial):
        assert parse_polynomial(text, ZN5) == expected
    else:
        with pytest.raises(PolynomialSyntaxError) as err:
            parse_polynomial(text, ZN5)
        assert str(err.value) == expected


@pytest.mark.parametrize(
    "text, error",
    [
        # a term of MAX_TERM_DEGREE factors that ends in '*'
        (TERM_X12 + "*x[1,2]*", f"expected a variable factor (at position {len(TERM_X12) + 8})"),
        # ... or whose last factor is unclosed
        (TERM_X12 + "*x[0,1", f"expected ']' (at position {len(TERM_X12) + 6})"),
        # a long run of whitespace before a stray character
        ("x[0,1]" + " " * 100_000 + "@", "expected '+', '-', or end of input (at position 100006)"),
    ],
)
def test_refusal_takes_linear_time(text, error):
    # a term pattern that backtracked more than linearly would hang here
    start = time.perf_counter()
    with pytest.raises(PolynomialSyntaxError) as err:
        parse_polynomial(text, ZN5)
    assert str(err.value) == error
    assert time.perf_counter() - start < 2.0
