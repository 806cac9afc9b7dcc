"""Generic matrices: closed-form products, identity and centrality checks."""

import itertools
import os
import pathlib
import random
import subprocess
import sys
from collections import Counter

import pytest

import gradedpi
from gradedpi.grading import CyclicGroup, GradingError, parse_grading_spec
from gradedpi.freealg import (
    Monomial,
    Polynomial,
    Var,
    parse_polynomial,
)
from gradedpi.genericmodel import (
    PolyMatrix,
    SparsePoly,
    centrality_witness,
    entry_match,
    evaluate,
    identity_witness,
    is_central,
    is_identity,
    monomial_product,
)
from gradedpi.oracles import (
    make_generic,
    matrix_product,
    matrix_unit_oracle,
    naive_monomial_product,
    poly_product,
    unit_walks,
    units_of_degree,
)
from gradedpi.suites import battery_fast_product

ZN2 = parse_grading_spec("zn:2")
ZN3 = parse_grading_spec("zn:3")
Z2 = parse_grading_spec("z:2")
Z3 = parse_grading_spec("z:3")
MU2 = parse_grading_spec("mu:2")


def _components(f):
    """The terms of f grouped by their variable multiset."""
    groups = {}
    for m, c in f.terms.items():
        groups.setdefault(frozenset(Counter(m.vars).items()), {})[m] = c
    return [Polynomial(terms) for terms in groups.values()]


def mono(*pairs):
    return Monomial(Var(g, i) for g, i in pairs)


def yvar(h, i, k):
    return SparsePoly.variable((h, i, k))


class TestGenericMatrices:
    def test_degree_one_on_two_by_two(self):
        gm = make_generic(ZN2, 1, 1)
        expected = PolyMatrix(2, {(1, 2): yvar(1, 1, 1), (2, 1): yvar(1, 1, 2)})
        assert gm == expected

    def test_empty_support_degree_gives_zero(self):
        gm = make_generic(Z2, 2, 1)
        assert gm.is_zero

    def test_neutral_degree_is_diagonal(self):
        gm = make_generic(ZN3, 0, 1)
        for k in range(1, 4):
            assert gm.entry(k, k) == yvar(0, 1, k)
        for i, j in itertools.permutations(range(1, 4), 2):
            assert gm.entry(i, j).is_zero


class TestMonomialProduct:
    def test_two_by_two_against_hand_multiplication(self):
        # independent oracle: multiply the two generic matrices explicitly
        a = make_generic(ZN2, 1, 1)
        b = make_generic(ZN2, 1, 2)
        closed = monomial_product(ZN2, mono((1, 1), (1, 2)))
        assert closed == matrix_product(a, b)
        assert closed.entry(1, 1) == poly_product(yvar(1, 1, 1), yvar(1, 2, 2))
        assert closed.entry(2, 2) == poly_product(yvar(1, 1, 2), yvar(1, 2, 1))

    def test_dead_walk_gives_zero(self):
        assert monomial_product(Z2, mono((1, 1), (1, 2))).is_zero

    def test_empty_sequence_gives_identity(self):
        identity = PolyMatrix(3, {(k, k): SparsePoly.one() for k in range(1, 4)})
        assert monomial_product(ZN3, Monomial()) == identity

    def test_closed_form_equals_naive_everywhere(self, s3_grading):
        rng = random.Random(7)
        gradings = [ZN2, ZN3, Z2, Z3, MU2, s3_grading]
        for _ in range(120):
            grading = rng.choice(gradings)
            d = rng.randint(0, 6)
            vars = []
            for _ in range(d):
                if grading.structure.kind == "integers":
                    g = rng.randint(-grading.n, grading.n)
                else:
                    g = rng.choice(list(grading.structure.elements()))
                vars.append(Var(g, rng.randint(1, 3)))
            m = Monomial(vars)
            assert monomial_product(grading, m) == naive_monomial_product(grading, m)

    def test_homogeneous_positions(self):
        # a nonzero entry of a degree-g word sits at a position of degree g
        rng = random.Random(13)
        for _ in range(60):
            d = rng.randint(1, 5)
            m = Monomial(Var(rng.randrange(3), rng.randint(1, 2)) for _ in range(d))
            g = m.degree(ZN3)
            value = monomial_product(ZN3, m)
            for (i, j) in sorted(value.cells):
                assert ZN3.unit_degree(i, j) == g


class TestIdentity:
    def test_neutral_commutator(self):
        f = parse_polynomial("x[0,1]*x[0,2] - x[0,2]*x[0,1]", ZN2)
        assert evaluate(f, ZN2).is_zero
        assert is_identity(f, ZN2)

    def test_nonneutral_commutator_is_not(self):
        f = parse_polynomial("x[1,1]*x[1,2] - x[1,2]*x[1,1]", ZN2)
        assert not is_identity(f, ZN2)

    def test_reversal(self):
        f = parse_polynomial("x[1,1]*x[1,2]*x[1,3] - x[1,3]*x[1,2]*x[1,1]", ZN2)
        assert is_identity(f, ZN2)

    def test_large_integer_degree(self):
        assert is_identity(parse_polynomial("x[5,1]", Z3), Z3)
        assert is_identity(parse_polynomial("x[3,1]", Z3), Z3)
        assert not is_identity(parse_polynomial("x[2,1]", Z3), Z3)

    def test_zero_polynomial(self):
        assert is_identity(Polynomial.zero(), ZN2)

    def test_depends_only_on_degree_tuple(self):
        # renaming variable indices never changes the verdict
        rng = random.Random(23)
        for _ in range(60):
            d = rng.randint(1, 5)
            grades = [rng.randint(-2, 2) for _ in range(d)]
            m1 = Monomial(Var(g, i + 1) for i, g in enumerate(grades))
            m2 = Monomial(Var(g, rng.randint(1, 3)) for g in grades)
            assert is_identity(Polynomial.from_monomial(m1), Z2) == is_identity(
                Polynomial.from_monomial(m2), Z2
            )

    def test_components_of_identities_are_identities(self):
        f = parse_polynomial(
            "x[0,1]*x[0,2] - x[0,2]*x[0,1] + x[1,1]*x[1,2]*x[1,3] - x[1,3]*x[1,2]*x[1,1]",
            ZN2,
        )
        assert is_identity(f, ZN2)
        comps = _components(f)
        assert len(comps) == 2
        assert all(is_identity(c, ZN2) for c in comps)


class TestCentral:
    def test_square_of_odd_variable(self):
        assert is_central(parse_polynomial("x[1,1]^2", ZN2), ZN2)

    def test_neutral_variable_is_not_central(self):
        assert not is_central(parse_polynomial("x[0,1]", ZN2), ZN2)

    def test_symmetrized_pair(self):
        f = parse_polynomial("x[1,1]*x[1,2] + x[1,2]*x[1,1]", ZN2)
        assert is_central(f, ZN2)
        assert not is_identity(f, ZN2)

    def test_constant_term_rejected(self):
        with pytest.raises(GradingError):
            is_central(parse_polynomial("1 + x[1,1]", ZN2), ZN2)

    def test_identities_are_central(self):
        f = parse_polynomial("x[0,1]*x[0,2] - x[0,2]*x[0,1]", ZN2)
        assert is_central(f, ZN2)

    def test_components_of_central_are_central(self):
        f = parse_polynomial("x[1,1]^2 + x[1,1]*x[1,2] + x[1,2]*x[1,1]", ZN2)
        assert is_central(f, ZN2)
        for comp in _components(f):
            assert is_central(comp, ZN2)


class TestMatrixUnitOracle:
    def test_examples(self):
        assert matrix_unit_oracle(
            parse_polynomial("x[0,1]*x[0,2] - x[0,2]*x[0,1]", ZN2), ZN2
        )
        assert not matrix_unit_oracle(parse_polynomial("x[1,1]*x[1,2]", ZN2), ZN2)
        # a variable with an empty homogeneous component: vacuously an identity
        assert matrix_unit_oracle(parse_polynomial("x[2,1]", Z2), Z2)

    def test_rejects_non_multilinear(self):
        with pytest.raises(GradingError):
            matrix_unit_oracle(parse_polynomial("x[1,1]^2", ZN2), ZN2)
        with pytest.raises(GradingError):
            matrix_unit_oracle(parse_polynomial("x[0,1] + x[0,1]*x[0,2]", ZN2), ZN2)

    def test_agrees_with_generic_evaluation(self):
        rng = random.Random(31)
        for grading in (ZN2, ZN3, Z2):
            pool = sorted(grading.support())
            for _ in range(40):
                d = rng.randint(1, 3)
                vars = [Var(rng.choice(pool), c + 1) for c in range(d)]
                terms = {}
                for perm in itertools.permutations(vars):
                    c = rng.randint(-2, 2)
                    if c:
                        terms[Monomial(perm)] = c
                f = Polynomial(terms)
                assert is_identity(f, grading) == matrix_unit_oracle(f, grading)

    def test_units_of_degree(self):
        assert units_of_degree(ZN2, 1) == [(1, 2), (2, 1)]
        assert units_of_degree(Z2, 1) == [(1, 2)]
        assert units_of_degree(Z2, 5) == []
        assert units_of_degree(MU2, (2, 1)) == [(2, 1)]

    def test_units_of_degree_refuses_a_grade_outside_the_structure(self):
        with pytest.raises(GradingError):
            units_of_degree(MU2, 1)
        with pytest.raises(GradingError):
            make_generic(ZN3, 3, 1)

    def test_unit_walks_check_each_grade_of_a_word(self):
        # grades are looked up once per distinct grade, but 1.0 and (1.0, 2)
        # equal a grade already seen and must still be refused, while True
        # is an int that require accepts
        for grading, good, bad in ((ZN3, 1, 1.0), (Z2, 1, 1.0), (MU2, (1, 2), (1.0, 2))):
            for hs in ([good, bad], [bad, good], [good, good, bad]):
                with pytest.raises(GradingError, match="is not a grade of this structure"):
                    unit_walks(grading, hs)
        assert unit_walks(ZN3, [1, True, 1]) == unit_walks(ZN3, [1, 1, 1]) == {1: (1, 2, 3, 1), 2: (2, 3, 1, 2), 3: (3, 1, 2, 3)}
        assert unit_walks(MU2, [(1, 2), (True, 2)]) == {}
        assert unit_walks(MU2, [(1, 2), (2, 1), (1, 2)]) == {1: (1, 2, 1, 2)}

    def test_oracles_do_not_read_the_row_maps(self, monkeypatch):
        # a wrong closed-form row map on zn:3 (grade 1 sends row 1 to 3 and
        # row 2 to 2) must make the naive product disagree with the closed
        # form, so the oracle cannot share the maps it checks
        real = CyclicGroup.row_maps

        def swapped(self, row_grades):
            row_map = real(self, row_grades)
            if self.order != 3:
                return row_map

            def mutant(h):
                target = row_map(h)
                if h == 1:
                    target[1], target[2] = target[2], target[1]
                return target

            return mutant

        monkeypatch.setattr(CyclicGroup, "row_maps", swapped)
        assert parse_grading_spec("zn:3")._target(1) == {1: 3, 2: 2, 3: 1}
        [item] = battery_fast_product(0)
        assert item.item == "closed-form-vs-naive" and not item.passed


def unit_central_oracle(f, grading):
    """Independent centrality check for multilinear polynomials: every
    unit-tuple evaluation must be a scalar integer matrix.  Sound because
    the scalar matrices form a linear subspace."""
    vars_ = sorted(f.variables())
    n = grading.n
    choices = [units_of_degree(grading, v.grade) for v in vars_]
    for combo in itertools.product(*choices):
        env = dict(zip(vars_, combo))
        total = {}
        for m, coeff in f.terms.items():
            pos = None
            dead = False
            for v in m.vars:
                u = env[v]
                if pos is None:
                    pos = u
                elif pos[1] == u[0]:
                    pos = (pos[0], u[1])
                else:
                    dead = True
                    break
            if dead or pos is None:
                continue
            total[pos] = total.get(pos, 0) + coeff
            if not total[pos]:
                del total[pos]
        if any(i != j for (i, j) in total):
            return False
        if len({total.get((k, k), 0) for k in range(1, n + 1)}) > 1:
            return False
    return True


class TestCentralOracle:
    def test_agrees_on_random_multilinear(self):
        rng = random.Random(0)
        agreements = 0
        while agreements < 150:
            grading = ZN2 if rng.random() < 0.5 else ZN3
            d = rng.randint(1, 3)
            vars_ = [Var(rng.randrange(grading.n), c + 1) for c in range(d)]
            terms = {}
            for perm in itertools.permutations(vars_):
                c = rng.randint(-2, 2)
                if c:
                    terms[Monomial(perm)] = c
            f = Polynomial(terms)
            assert unit_central_oracle(f, grading) == is_central(f, grading)
            agreements += 1

    def test_agrees_on_symmetrized_pair(self):
        f = parse_polynomial("x[1,1]*x[1,2] + x[1,2]*x[1,1]", ZN2)
        assert unit_central_oracle(f, ZN2) and is_central(f, ZN2)
        g = parse_polynomial("x[1,1]*x[1,2] - x[1,2]*x[1,1]", ZN2)
        assert not unit_central_oracle(g, ZN2) and not is_central(g, ZN2)


class TestEntryMatch:
    def test_equal_monomials_match_at_first_entry(self):
        m = mono((1, 1), (1, 2))
        assert entry_match(m, m, ZN2) == (1, 1)

    def test_reversal_pair_matches_off_diagonal(self):
        m1 = mono((1, 1), (2, 2), (1, 3))
        m2 = mono((1, 3), (2, 2), (1, 1))
        pos = entry_match(m1, m2, ZN3)
        assert pos is not None
        i, j = pos
        assert i != j

    def test_zero_evaluation_never_matches(self):
        m = mono((1, 1), (1, 2))  # identity monomial over z:2
        assert entry_match(m, m, Z2) is None

    def test_swapped_pair_without_match(self):
        m1 = mono((1, 1), (2, 2))
        m2 = mono((2, 2), (1, 1))
        assert entry_match(m1, m2, ZN3) is None

    def test_tail_match_after_shared_head(self):
        # if two words share a head variable and match somewhere, their tails
        # match as well
        rng = random.Random(41)
        found = 0
        while found < 25:
            d = rng.randint(2, 5)
            head = Var(rng.randrange(3), 9)
            tail = [Var(rng.randrange(3), rng.randint(1, 2)) for _ in range(d - 1)]
            perm = tail[:]
            rng.shuffle(perm)
            m1 = Monomial([head] + tail)
            m2 = Monomial([head] + perm)
            if entry_match(m1, m2, ZN3) is None:
                continue
            found += 1
            t1 = Monomial(tail)
            t2 = Monomial(perm)
            assert entry_match(t1, t2, ZN3) is not None


class TestWitnesses:
    def test_identity_witness_shapes(self):
        good = identity_witness(
            parse_polynomial("x[0,1]*x[0,2] - x[0,2]*x[0,1]", ZN2), ZN2
        )
        assert good == {"kind": "verified"}
        bad = identity_witness(parse_polynomial("x[1,1]", ZN2), ZN2)
        assert bad["kind"] == "nonzero_entry"
        assert bad["position"] == [1, 2]
        assert "y[1,1,1]" in bad["entry"]

    def test_centrality_witness_shapes(self):
        assert centrality_witness(parse_polynomial("x[1,1]^2", ZN2), ZN2) == {
            "kind": "verified"
        }
        off = centrality_witness(parse_polynomial("x[1,1]", ZN2), ZN2)
        assert off["kind"] == "offdiag"
        diag = centrality_witness(parse_polynomial("x[0,1]", ZN2), ZN2)
        assert diag["kind"] == "diag_mismatch"
        assert diag["reference_position"] == [1, 1]


def _held_after(code, *names):
    """The ``names`` a fresh interpreter holds in ``sys.modules`` after running
    ``code``, from the same source tree as this test process."""
    code += f"\nimport sys\nprint(*[n for n in {names!r} if n in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gradedpi.__file__).parent.parent))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.splitlines()[-1].split()


class TestImportBoundary:
    def test_decision_path_does_not_load_the_oracles(self):
        modules = ("gradedpi", "gradedpi.genericmodel", "gradedpi.bases", "gradedpi.rewrite")
        code = "".join(f"import {m}\n" for m in modules)
        assert _held_after(code, "gradedpi.oracles") == []

    def test_cli_loads_neither_suites_nor_dataclasses(self):
        # ``random`` is left out: the interpreter's own start-up may import it
        held = _held_after("import gradedpi.cli", "gradedpi.suites", "gradedpi.oracles", "dataclasses")
        assert held == []

    def test_verify_loads_the_suites(self):
        code = 'from gradedpi import cli\ncli.main(["verify", "--suite", "complete-seq"])'
        assert _held_after(code, "gradedpi.suites", "gradedpi.oracles") == ["gradedpi.suites", "gradedpi.oracles"]

    def test_suites_load_the_oracles(self):
        assert _held_after("import gradedpi.suites", "gradedpi.oracles") == ["gradedpi.oracles"]
