"""Generator families, enumeration, symmetrization, and power-form congruences."""

import itertools
import math
import random

import pytest

from gradedpi.grading import is_complete_sequence, parse_grading_spec
from gradedpi.freealg import Monomial, Polynomial, Var, apply_substitution
from gradedpi.genericmodel import evaluate, is_central, is_identity
from gradedpi.oracles import matrix_unit_oracle, unit_walks
from gradedpi.bases import (
    MAX_SCAN_STEPS,
    BasesError,
    basis_report,
    build_basis,
    canonical_monomial,
    cyclic_symmetrization,
    enumerate_monomial_identities,
    verify_instance,
)

ZN2 = parse_grading_spec("zn:2")
ZN3 = parse_grading_spec("zn:3")
ZP3 = parse_grading_spec("zp:3")
Z2 = parse_grading_spec("z:2")
Z3 = parse_grading_spec("z:3")
MU2 = parse_grading_spec("mu:2")


def mono(*pairs):
    return Monomial(Var(g, i) for g, i in pairs)


class TestEnumeration:
    def test_residue_gradings_have_none(self):
        assert list(enumerate_monomial_identities(ZN2, 4)) == []
        assert list(enumerate_monomial_identities(ZN3, 4)) == []

    def test_integer_grading_degree_two(self):
        found = enumerate_monomial_identities(Z2, 2)
        tuples = {m.h for m in found}
        # independent oracle: brute force over unit substitutions
        expected = set()
        for d in (1, 2):
            for hs in itertools.product((-1, 0, 1), repeat=d):
                m = canonical_monomial(hs)
                if matrix_unit_oracle(Polynomial.from_monomial(m), Z2):
                    expected.add(hs)
        assert tuples == expected
        assert (1, 1) in tuples

    def test_positional_grading(self):
        found = enumerate_monomial_identities(MU2, 2)
        tuples = {m.h for m in found}
        assert ((1, 2), (1, 2)) in tuples
        st = MU2.structure
        for hs in tuples:
            assert st.product(hs) == (0, 0)

    def test_degree_limit(self):
        with pytest.raises(BasesError):
            enumerate_monomial_identities(ZN2, 40)

    def test_scan_cap_counts_row_steps(self):
        # z:1 has one row and one support grade, so degree D costs
        # 1 + 2 + ... + D row steps however few its tuples are
        z1 = parse_grading_spec("z:1")
        top = max(d for d in range(2000) if d * (d + 1) // 2 <= MAX_SCAN_STEPS)
        assert list(enumerate_monomial_identities(z1, top)) == []
        with pytest.raises(BasesError, match="exceeds the limit"):
            enumerate_monomial_identities(z1, top + 1)
        # 4160 tuples on zn:64 up to degree 2, each walked from 64 rows
        zn64 = parse_grading_spec("zn:64")
        assert 64 * (64 + 2 * 64**2) > MAX_SCAN_STEPS
        with pytest.raises(BasesError, match="on 64 rows exceeds the limit"):
            enumerate_monomial_identities(zn64, 2)


class TestBuildBasis:
    def test_full_support_residue_families(self):
        basis = build_basis(ZN2, "identities")
        assert {inst.family for inst in basis.instances} == {"(1)", "(2)"}
        assert not basis.truncated

    def test_integer_families(self):
        basis = build_basis(Z3, "identities")
        assert {inst.family for inst in basis.instances} == {"(1)", "(2)", "(3)"}

    def test_positional_families(self):
        basis = build_basis(MU2, "identities")
        assert {inst.family for inst in basis.instances} == {"(5)", "(6)", "(7)"}

    def test_general_group_families(self, klein_file):
        grading = parse_grading_spec(f"group:{klein_file}:e,a")  # Klein group on M_2
        basis = build_basis(grading, "identities", cutoff=3)
        families = {inst.family for inst in basis.instances}
        assert {"(1)", "(2)", "(3)"} <= families
        assert basis.truncated  # cutoff 3 is far below the enumeration threshold
        assert all(verify_instance(inst, grading) for inst in basis.instances)

    def test_family_4_walks_closed_tuples_whose_prefix_survives(self, monkeypatch):
        from conftest import permutation_group_table
        from gradedpi import bases, freealg
        from gradedpi.grading import ElementaryGrading, TableGroup

        # S4 on four rows, support 9, cutoff 4: 7380 tuples in all
        structure = TableGroup(*permutation_group_table(4))
        grading = ElementaryGrading(structure, (0, 1, 3, 7))
        supp = grading.support()

        def closed(hs):
            for i in range(len(hs)):
                g = structure.identity
                for h in hs[i:]:
                    g = structure.mul(g, h)
                    if g not in supp:
                        return False
            return True

        expected = sum(
            1
            for d in range(1, 5)
            for hs in itertools.product(sorted(supp), repeat=d)
            if closed(hs) and grading.row_walk(hs[:-1])
        )
        walked = []
        real = ElementaryGrading.row_walk

        def counting(*args, **kwargs):
            # hs positionally: perfbench counts letters from the call's args
            assert len(args) == 2 and not kwargs
            walked.append(tuple(args[1]))
            return real(*args)

        def forbidden(*args):
            raise AssertionError("family (4) must not classify")

        assert not hasattr(bases, "classify")
        monkeypatch.setattr(ElementaryGrading, "row_walk", counting)
        monkeypatch.setattr(freealg, "classify", forbidden)
        monkeypatch.setattr(bases, "classify", forbidden, raising=False)
        basis = build_basis(grading, "identities", cutoff=4)
        assert len(walked) == expected == 1330
        assert len(set(walked)) == len(walked)
        assert sum(inst.family == "(4)" for inst in basis.instances) > 0

    def test_residue_central_families(self):
        basis = build_basis(ZP3, "central")
        assert {inst.family for inst in basis.instances} == {"(8)", "(9)", "(10)", "(11)"}
        assert all(verify_instance(inst, ZP3) for inst in basis.instances)

    def test_integer_central_families(self):
        basis = build_basis(Z2, "central")
        assert {inst.family for inst in basis.instances} == {"(12)", "(13)", "(14)", "(15)"}
        assert all(verify_instance(inst, Z2) for inst in basis.instances)

    def test_integer_symmetrization_family_is_the_properly_central_lifts(self):
        # family (15) on z:n keeps n! sum-zero lifts, all properly central;
        # every sum-zero complete lift it leaves out symmetrizes to zero
        for n in range(2, 6):
            grading = parse_grading_spec(f"z:{n}")
            basis = build_basis(grading, "central")
            fam = [inst for inst in basis.instances if inst.family == "(15)"]
            assert len(fam) == math.factorial(n)
            assert all(verify_instance(inst, grading) for inst in fam)
            kept = {tuple(int(g) for g in inst.params["degrees"]) for inst in fam}
            for seq in itertools.product(range(-(n - 1), n), repeat=n):
                if sum(seq) or seq in kept or not is_complete_sequence(n, [g % n for g in seq]):
                    continue
                sym = cyclic_symmetrization([Var(g, l + 1) for l, g in enumerate(seq)], grading)
                assert is_identity(sym, grading), seq

    def test_central_needs_prime_residue_grading(self):
        with pytest.raises(BasesError):
            build_basis(parse_grading_spec("zn:4"), "central")
        with pytest.raises(BasesError):
            build_basis(MU2, "central")
        with pytest.raises(BasesError):
            build_basis(ZN2, "nonsense")

    def test_identity_closure_under_substitution_and_multiples(self):
        rng = random.Random(9)
        from gradedpi.suites import _random_consequence

        for grading in (ZN3, Z2):
            basis = build_basis(grading, "identities")
            polys = [inst.poly for inst in basis.instances]
            for _ in range(60):
                image = _random_consequence(rng.choice(polys), grading, rng)
                assert is_identity(image, grading)

    def test_positional_closure_via_substitution(self):
        # substituting a path monomial for each variable keeps identities
        basis = build_basis(MU2, "identities")
        inner = {(1, 2): mono(((1, 1), 7), ((1, 2), 7)), (2, 1): mono(((2, 1), 7))}
        for inst in basis.instances:
            if inst.family != "(6)" or inst.params != {"i": 1, "j": 2}:
                continue
            mapping = {}
            for v in sorted(inst.poly.variables()):
                image = inner.get(v.grade)
                if image is not None:
                    mapping[v] = Polynomial.from_monomial(image)
            out = apply_substitution(inst.poly, mapping, MU2)
            assert is_identity(out, MU2)

    @pytest.mark.parametrize("spec", ["zp:2", "zp:3", "zp:5", "z:2", "z:3", "z:4", "z:5"])
    def test_evaluations_have_unit_coefficients(self, spec):
        # the paper's K is any infinite integral domain.  Every coefficient
        # of every cell is +-1, so reducing the cells mod a prime p keeps
        # every nonzero cell nonzero and equal cells equal: no instance's
        # verdict (zero, or a nonzero scalar) depends on the characteristic
        grading = parse_grading_spec(spec)
        cells = 0
        for kind in ("identities", "central"):
            for inst in build_basis(grading, kind).instances:
                for pos, cell in evaluate(inst.poly, grading).cells.items():
                    cells += 1
                    assert set(cell.terms.values()) <= {1, -1}, (kind, inst.family, inst.params, pos)
        assert cells > 0


class TestCyclicSymmetrization:
    def test_examples(self):
        f = cyclic_symmetrization([Var(1, 1), Var(1, 2)], ZN2)
        assert f == Polynomial(
            {mono((1, 1), (1, 2)): 1, mono((1, 2), (1, 1)): 1}
        )
        g = cyclic_symmetrization([Var(1, 1), Var(1, 2), Var(1, 3)], ZN3)
        assert g == Polynomial(
            {
                mono((1, 1), (1, 2), (1, 3)): 1,
                mono((1, 2), (1, 3), (1, 1)): 1,
                mono((1, 3), (1, 1), (1, 2)): 1,
            }
        )
        one_var = cyclic_symmetrization([Var(0, 1)], parse_grading_spec("zn:1"))
        assert one_var == Polynomial.from_var(Var(0, 1))

    def test_rejects_incomplete_sequences(self):
        with pytest.raises(BasesError):
            cyclic_symmetrization([Var(0, 1), Var(0, 2)], ZN2)
        with pytest.raises(BasesError):
            cyclic_symmetrization([Var(1, 1)], ZN2)
        with pytest.raises(BasesError, match="^residues are only defined for cyclic and integer gradings$"):
            cyclic_symmetrization([Var((1, 2), 1), Var((2, 1), 2)], MU2)

    def test_integer_grading_uses_residues(self):
        f = cyclic_symmetrization([Var(1, 1), Var(-1, 2)], Z2)
        assert is_central(f, Z2)
        assert not is_identity(f, Z2)

    def test_central_up_to_five(self):
        from gradedpi.grading import enumerate_complete_sequences

        for p in (2, 3, 5):
            grading = parse_grading_spec(f"zn:{p}")
            for seq in enumerate_complete_sequences(p):
                vars = [Var(g, l + 1) for l, g in enumerate(seq)]
                f = cyclic_symmetrization(vars, grading)
                assert is_central(f, grading)
                assert not is_identity(f, grading)


X1, X2, X0 = Var(1, 1), Var(1, 2), Var(0, 1)


@pytest.mark.parametrize(
    "spec, word, collected",
    [
        # z1 z2 z2 z1 collects to z1^2 z2^2 over zn:2
        ("zn:2", (X1, X2, X2, X1), (X1, X1, X2, X2)),
        # (x1 x2)^3 collects to x1^3 x2^3, and to x2^3 x1^3, over zp:3
        ("zp:3", (X1, X2) * 3, (X1,) * 3 + (X2,) * 3),
        ("zp:3", (X1, X2) * 3, (X2,) * 3 + (X1,) * 3),
        # a neutral variable rides inside the power block
        ("zn:2", (X0, X1, X0, X1), (X1, X0, X1, X0)),
        ("zp:3", (X0, X1) * 3, (X1, X0) * 3),
    ],
    ids=[
        "power_collection",
        "cube_pair",
        "cube_pair_reversed",
        "neutral_variable_case",
        "neutral_variable_case_mod_three",
    ],
)
def test_central_monomials_collect_to_power_form(spec, word, collected):
    # over a prime residue grading a central monomial is congruent, modulo
    # the graded identities, to a product of full powers
    grading = parse_grading_spec(spec)
    m = Polynomial.from_monomial(Monomial(word))
    assert is_central(m, grading) and not is_identity(m, grading)
    assert is_identity(m - Polynomial.from_monomial(Monomial(collected)), grading)


def _complete_factors(m, grading):
    """Cut a neutral monomial at the first visit of each row along a row
    walk that visits all n rows; None when no surviving walk does."""
    for path in unit_walks(grading, m.h).values():
        cuts = [c + 1 for c in range(len(m)) if path[c] not in path[:c]]
        if len(cuts) == grading.n:
            ends = [c - 1 for c in cuts[1:]] + [len(m)]
            return [Monomial(m.vars[lo - 1 : hi]) for lo, hi in zip(cuts, ends)]
    return None


class TestFactorComplete:
    def test_factor_properties(self):
        # cutting a neutral word at the first visit of each row yields n
        # factors that join back to the word and form a complete sequence
        rng = random.Random(19)
        found = 0
        while found < 40:
            d = rng.randint(2, 6)
            hs = [rng.randrange(3) for _ in range(d)]
            if sum(hs) % 3 != 0:
                continue
            m = Monomial(Var(h, rng.randint(1, 2)) for h in hs)
            factors = _complete_factors(m, ZN3)
            if factors is None:
                continue
            found += 1
            assert len(factors) == 3
            joined = Monomial(tuple(v for f in factors for v in f.vars))
            assert joined == m
            degrees = [f.degree(ZN3) for f in factors]
            assert is_complete_sequence(3, degrees)


class TestBlockSymmetrization:
    def test_factoring_then_rotating_blocks_is_central(self):
        # the factors of a neutral word form a complete degree sequence, so
        # substituting them into a cyclic symmetrization of fresh variables
        # yields a central polynomial
        rng = random.Random(37)
        built = 0
        while built < 25:
            d = rng.randint(3, 6)
            hs = [rng.randrange(3) for _ in range(d)]
            if sum(hs) % 3 != 0:
                continue
            m = Monomial(Var(h, rng.randint(1, 2)) for h in hs)
            factors = _complete_factors(m, ZN3)
            if factors is None:
                continue
            assert Monomial(v for f in factors for v in f.vars) == m
            assert is_complete_sequence(3, [f.degree(ZN3) for f in factors])
            fresh = [Var(f.degree(ZN3), 90 + t) for t, f in enumerate(factors)]
            template = cyclic_symmetrization(fresh, ZN3)
            mapping = {
                v: Polynomial.from_monomial(f) for v, f in zip(fresh, factors)
            }
            rotated_sum = apply_substitution(template, mapping, ZN3)
            assert is_central(rotated_sum, ZN3)
            assert rotated_sum.terms.get(m, 0) >= 1
            built += 1


class TestBasisReport:
    def test_each_instance_is_evaluated_once(self, monkeypatch, s3_grading):
        from gradedpi import bases, genericmodel

        # one walk per instance: the coded rows the CLI verdicts read
        calls = []
        real = genericmodel._decisive_rows

        def counting(f, grading):
            calls.append(f)
            return real(f, grading)

        monkeypatch.setattr(genericmodel, "_decisive_rows", counting)
        monkeypatch.setattr(bases, "_decisive_rows", counting)
        cases = [
            (ZP3, "central"),
            (parse_grading_spec("zp:5"), "central"),
            (Z3, "central"),
            (Z3, "identities"),
            (MU2, "identities"),
            (s3_grading, "identities"),
        ]
        for grading, kind in cases:
            calls.clear()
            report = basis_report(grading, kind)
            instances = sum(fam["instances"] for fam in report["families"])
            assert len(calls) == instances, (grading, kind)

    def test_report_shape_and_determinism(self):
        report = basis_report(ZP3, "central")
        assert report["grading"] == "zp:3"
        assert report["kind"] == "central"
        assert report["truncated"] is False
        ids = [fam["id"] for fam in report["families"]]
        assert ids == ["(8)", "(9)", "(10)", "(11)"]
        for fam in report["families"]:
            assert fam["verified"] == fam["instances"]
            assert fam["failures"] == []
        assert basis_report(ZP3, "central") == report
