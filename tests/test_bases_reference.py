"""Differential check of the generator families against the construction they
replaced, and golden items of the suites' family batteries.

``reference_build_basis``, ``reference_flank_family`` (with ``_flanked``),
``reference_verify_instance`` (with ``REFERENCE_EXPECTATIONS``),
``reference_complete_sequences`` and ``reference_lift_sequences`` (with
``_partial_sum_span``) are the earlier construction, kept verbatim apart from
their names: the central families (8)/(9) and (12)-(14) wrote their
commutator, reversal and kill polynomials by hand, every family carried its
own expectation, and the complete sequences of families (11) and (15) were
filtered from all n**n residue tuples and all (2n-1)**n integer lifts.
``reference_search_sequences`` is the depth-first search over new partial
sums that replaced those filters, also kept verbatim apart from its name.  The
library must emit the same instances, with the same parameters, truncation
flags and verdicts, and the same sequences in the same order.

``product_scan_monomial_identities`` and
``product_scan_support_closed_monomial_identities`` are the product scan
that family (4) used before it extended closed prefixes, kept verbatim apart
from their names and the closure test: every degree tuple walked from every
row, and the dead ones filtered by ``reference_classify``, the earlier
classification, where the earlier code called the library's ``classify``.
``reference_build_basis`` takes its family (4) from this scan, and the
library must emit the same family (4) instances, truncation flag and refusal
text on random row tuples of S3, S4 and the Klein group.
"""

import itertools
import math
from typing import Iterator, List, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedpi.bases import (
    MAX_SCAN_STEPS,
    PROPER_CENTRAL_FAMILIES,
    BasesError,
    BasisInstances,
    GeneratorInstance,
    _central_power_family,
    _commutator,
    _kill_instances,
    _neutral_commutator,
    _reversal,
    _reversal_instances,
    _support_closed_monomial_identities,
    _symmetrization_family,
    build_basis,
    canonical_monomial,
    enumerate_monomial_identities,
    verify_instance,
)
from gradedpi.freealg import Monomial, Polynomial, Var, format_polynomial, twin_block_threshold
from gradedpi.genericmodel import _require_zero_constant, evaluate
from gradedpi.grading import (
    ElementaryGrading,
    FINITE_GROUP,
    Grade,
    GradingError,
    INTEGERS,
    MATRIX_UNITS,
    MAX_COMPLETE_SEQUENCES,
    MU_ZERO,
    TableGroup,
    _is_prime,
    enumerate_complete_sequences,
    is_complete_sequence,
    parse_grading_spec,
)
from gradedpi.suites import (
    battery_central_integer,
    battery_central_residue,
    battery_generator_identities,
    battery_positional_basis,
)

from conftest import permutation_group_table
from test_grading_reference import reference_classify

EXPECT_IDENTITY = "identity"
EXPECT_CENTRAL_IDENTITY = "central-identity"
EXPECT_PROPER_CENTRAL = "proper-central"

REFERENCE_EXPECTATIONS = {
    "(1)": EXPECT_IDENTITY,
    "(2)": EXPECT_IDENTITY,
    "(3)": EXPECT_IDENTITY,
    "(4)": EXPECT_IDENTITY,
    "(5)": EXPECT_IDENTITY,
    "(6)": EXPECT_IDENTITY,
    "(7)": EXPECT_IDENTITY,
    "(8)": EXPECT_CENTRAL_IDENTITY,
    "(9)": EXPECT_CENTRAL_IDENTITY,
    "(10)": EXPECT_PROPER_CENTRAL,
    "(11)": EXPECT_PROPER_CENTRAL,
    "(12)": EXPECT_CENTRAL_IDENTITY,
    "(13)": EXPECT_CENTRAL_IDENTITY,
    "(14)": EXPECT_CENTRAL_IDENTITY,
    "(15)": EXPECT_PROPER_CENTRAL,
}


def _flanked(inner: Polynomial, z1: Optional[Var], z2: Optional[Var]) -> Polynomial:
    left = Polynomial.from_var(z1) if z1 else Polynomial.one()
    right = Polynomial.from_var(z2) if z2 else Polynomial.one()
    return left * inner * right


def product_scan_monomial_identities(grading: ElementaryGrading, max_degree: int) -> Iterator[Monomial]:
    """All multilinear monomial identities up to a degree bound.

    One canonical representative is produced per degree tuple over the
    support, of degree 1 to ``max_degree``, that no row walk survives; a
    tuple with a grade outside the support is an identity for the trivial
    reason and is not enumerated.  Refuses a negative bound, and a scan of
    more than ``MAX_SCAN_STEPS`` row steps, before any tuple is walked.
    """
    if max_degree < 0:
        raise BasesError(f"degree bound must be non-negative, got {max_degree}")
    n, supp = grading.n, sorted(grading.support())
    steps = 0
    for d in range(1, max_degree + 1):
        steps += n * d * len(supp) ** d
        if steps > MAX_SCAN_STEPS:
            raise BasesError(
                f"scanning degree tuples up to degree {max_degree} over {len(supp)} "
                f"support grades on {n} rows exceeds the limit of {MAX_SCAN_STEPS} row steps"
            )
    return (
        canonical_monomial(hs)
        for d in range(1, max_degree + 1)
        for hs in itertools.product(supp, repeat=d)
        if not grading.row_walk(hs)
    )


def product_scan_support_closed_monomial_identities(
    grading: ElementaryGrading, cutoff: int
) -> Tuple[List[GeneratorInstance], bool]:
    threshold = twin_block_threshold(len(grading.support()))
    effective = min(cutoff, threshold)
    format_grade = grading.structure.format_grade
    out = [
        GeneratorInstance(
            "(4)", Polynomial.from_monomial(mono), {"h": [format_grade(h) for h in mono.h]}
        )
        for mono in product_scan_monomial_identities(grading, effective)
        if reference_classify(mono, grading).support_closed
    ]
    return out, effective < threshold


def reference_flank_family(
    family: str,
    grading: ElementaryGrading,
    inner_list: List[Tuple[Polynomial, dict]],
    flank_grades: Sequence[Grade],
    flank_base_index: int,
) -> List[GeneratorInstance]:
    st = grading.structure
    out = []
    for inner, params in inner_list:
        out.append(GeneratorInstance(family, inner, dict(params, flanked=False)))
        for a in flank_grades:
            for b in flank_grades:
                z1 = Var(a, flank_base_index)
                z2 = Var(b, flank_base_index + 1)
                out.append(
                    GeneratorInstance(
                        family,
                        _flanked(inner, z1, z2),
                        dict(
                            params,
                            flanked=True,
                            z1=st.format_grade(a),
                            z2=st.format_grade(b),
                        ),
                    )
                )
    return out


REFERENCE_MAX_COMPLETE_SEQUENCE_LENGTH = 6


def reference_complete_sequences(n: int) -> list:
    """All complete length-n residue sequences in lexicographic order."""
    if n > REFERENCE_MAX_COMPLETE_SEQUENCE_LENGTH:
        raise GradingError(
            f"refusing to enumerate {n}**{n} sequences "
            f"(bound {REFERENCE_MAX_COMPLETE_SEQUENCE_LENGTH})"
        )
    return [
        seq
        for seq in itertools.product(range(n), repeat=n)
        if is_complete_sequence(n, seq)
    ]


def _partial_sum_span(seq: Sequence[int]) -> int:
    sums = [0, *itertools.accumulate(seq)]
    return max(sums) - min(sums)


def _is_reference_lift(n: int, seq: Sequence[int]) -> bool:
    return (
        sum(seq) == 0
        and is_complete_sequence(n, [g % n for g in seq])
        and _partial_sum_span(seq) <= n - 1
    )


def reference_lift_sequences(n: int) -> list:
    # residue-complete lifts with a nonzero integer sum end every row
    # walk off its start by a multiple of n, so they are identities.
    # A sum-zero lift is properly central exactly when its partial
    # sums 0, s_1, ..., s_(n-1) span at most n - 1, so that some row
    # walk survives it; every rotation shifts those sums by a
    # constant, so the span decides the whole symmetrization
    window = range(-(n - 1), n)
    return [seq for seq in itertools.product(window, repeat=n) if _is_reference_lift(n, seq)]


def reference_search_sequences(n: int, lift: bool = False) -> list:
    """All complete length-n sequences, built from their partial sums.

    A residue sequence x_1..x_n is complete exactly when its partial sums
    s_1, ..., s_(n-1) are the nonzero residues in some order (s_n = 0 then
    follows), so there are (n-1)! of them.

    With ``lift`` the sequences are the integer lifts of family (15): steps
    from (-n, n) that sum to 0 and reduce to a complete residue sequence.  A
    lift with a nonzero integer sum ends every row walk off its start by a
    multiple of n, so its symmetrization is an identity.  A sum-zero lift is
    properly central exactly when its partial sums 0, s_1, ..., s_(n-1) span
    at most n - 1, so that some row walk survives it; every rotation shifts
    those sums by a constant, so the span decides the whole symmetrization.
    n distinct integers spanning at most n - 1 fill a window of n
    consecutive integers, one of n windows around 0, so there are n! lifts.

    A depth-first search tries the steps in ascending order and extends a
    prefix only with a step whose partial sum is new and keeps the span
    below n.  Every such prefix completes, and the last step is forced, so
    the search yields each sequence once, in lexicographic order, without
    visiting a dead end.  More than ``MAX_COMPLETE_SEQUENCES`` sequences are
    refused before it starts.
    """
    if math.factorial(n if lift else n - 1) > MAX_COMPLETE_SEQUENCES:
        raise GradingError(
            f"refusing to enumerate the complete sequences of length {n}: "
            f"there are more than {MAX_COMPLETE_SEQUENCES}"
        )
    steps = range(-(n - 1), n) if lift else range(n)
    prefix: list = []
    used = {0}
    out = []

    def extend(acc: int, lo: int, hi: int) -> None:
        if len(prefix) == n - 1:
            out.append((*prefix, -acc if lift else -acc % n))
            return
        for x in steps:
            s = acc + x if lift else (acc + x) % n
            if s in used or max(hi, s) - min(lo, s) >= n:
                continue
            prefix.append(x)
            used.add(s)
            extend(s, min(lo, s), max(hi, s))
            used.discard(s)
            prefix.pop()

    extend(0, 0, 0)
    return out


def reference_build_basis(
    grading: ElementaryGrading, kind: str, cutoff: Optional[int] = None
) -> BasisInstances:
    st = grading.structure
    n = grading.n
    if kind == "identities":
        if st.kind == FINITE_GROUP:
            instances = [_neutral_commutator(grading)]
            instances += _reversal_instances(
                grading, [g for g in st.elements() if g != st.identity]
            )
            if st.order == n:
                # the support is the whole group: the kill family is empty and
                # no monomial identities exist, so (1)-(2) already generate
                return BasisInstances(instances, False)
            instances += _kill_instances(
                grading, [h for h in st.elements() if h not in grading.support()]
            )
            fam4, truncated = product_scan_support_closed_monomial_identities(
                grading, cutoff if cutoff is not None else 4
            )
            return BasisInstances(instances + fam4, truncated)
        if st.kind == INTEGERS:
            instances = [_neutral_commutator(grading)]
            grades = [g for g in range(-(n - 1), n) if g != 0] + [n, -n]
            instances += _reversal_instances(grading, grades)
            instances += _kill_instances(grading, [n, -n, n + 1, -(n + 1)])
            return BasisInstances(instances, False)
        if st.kind == MATRIX_UNITS:
            instances = []
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    poly = _commutator(Var((i, i), 1), Var((j, j), 2))
                    instances.append(GeneratorInstance("(5)", poly, {"i": i, "j": j}))
            for i in range(1, n + 1):
                for j in range(1, n + 1):
                    if i == j:
                        continue
                    poly = _reversal(Var((i, j), 1), Var((j, i), 2), Var((i, j), 3))
                    instances.append(GeneratorInstance("(6)", poly, {"i": i, "j": j}))
            instances.append(
                GeneratorInstance("(7)", Polynomial.from_var(Var(MU_ZERO, 1)), {})
            )
            return BasisInstances(instances, False)
        raise BasesError(f"unsupported grading kind for identities: {st.kind}")
    if kind == "central":
        if st.kind == FINITE_GROUP and st.is_cyclic and st.order == n and _is_prime(n):
            all_grades = list(range(n))
            inner8 = [(_commutator(Var(0, 1), Var(0, 2)), {})]
            inner9 = [
                (
                    _reversal(Var(g, 1), Var(st.inverse(g), 2), Var(g, 3)),
                    {"g": st.format_grade(g)},
                )
                for g in all_grades
                if g != 0
            ]
            instances = reference_flank_family("(8)", grading, inner8, all_grades, 4)
            instances += reference_flank_family("(9)", grading, inner9, all_grades, 4)
            instances += _central_power_family(grading)
            instances += _symmetrization_family(
                "(11)", grading, reference_complete_sequences(n)
            )
            return BasisInstances(instances, False)
        if st.kind == INTEGERS:
            supp = sorted(grading.support())
            inner12 = [(_commutator(Var(0, 1), Var(0, 2)), {})]
            inner13 = [
                (_reversal(Var(g, 1), Var(-g, 2), Var(g, 3)), {"g": str(g)})
                for g in supp
                if g != 0
            ]
            inner14 = [
                (Polynomial.from_var(Var(h, 1)), {"h": str(h)})
                for h in (n, -n, n + 1, -(n + 1))
            ]
            instances = reference_flank_family("(12)", grading, inner12, supp, 4)
            instances += reference_flank_family("(13)", grading, inner13, supp, 4)
            instances += reference_flank_family("(14)", grading, inner14, supp, 4)
            sequences = reference_lift_sequences(n)
            instances += _symmetrization_family("(15)", grading, sequences)
            return BasisInstances(instances, False)
        raise BasesError(
            "central families are available for prime residue gradings and the "
            "canonical integer grading only"
        )
    raise BasesError(f"unknown basis kind {kind!r}")


def reference_verify_instance(inst: GeneratorInstance, grading: ElementaryGrading) -> bool:
    value = evaluate(inst.poly, grading)
    if REFERENCE_EXPECTATIONS[inst.family] != EXPECT_PROPER_CENTRAL:
        return value.is_zero
    _require_zero_constant(inst.poly)
    return value.is_scalar and not value.is_zero


def _listing(basis: BasisInstances, grading: ElementaryGrading):
    return [
        (inst.family, format_polynomial(inst.poly, grading), inst.params)
        for inst in basis.instances
    ]


def _assert_same_basis(grading: ElementaryGrading, kind: str, cutoff: Optional[int]):
    expected = reference_build_basis(grading, kind, cutoff)
    actual = build_basis(grading, kind, cutoff)
    assert _listing(actual, grading) == _listing(expected, grading)
    assert actual.truncated == expected.truncated
    verdicts = [verify_instance(inst, grading) for inst in actual.instances]
    assert verdicts == [reference_verify_instance(inst, grading) for inst in expected.instances]
    return expected


@pytest.mark.parametrize("spec", ["zp:2", "zp:3", "zp:5", "z:2", "z:3", "z:4", "z:5"])
def test_central_families_match_reference(spec):
    expected = _assert_same_basis(parse_grading_spec(spec), "central", None)
    assert {inst.family for inst in expected.instances} & {"(10)", "(11)", "(15)"}


@pytest.mark.parametrize("n", range(1, 7))
def test_residue_sequences_match_reference(n):
    assert enumerate_complete_sequences(n) == reference_complete_sequences(n)


@pytest.mark.parametrize("n", range(1, 6))
def test_lift_sequences_match_reference(n):
    assert enumerate_complete_sequences(n, lift=True) == reference_lift_sequences(n)


@pytest.mark.parametrize("lift, n", [(False, n) for n in range(1, 9)] + [(True, n) for n in range(1, 8)])
def test_sequences_match_the_search(n, lift):
    # every length up to the MAX_COMPLETE_SEQUENCES cap, in both modes
    assert enumerate_complete_sequences(n, lift=lift) == reference_search_sequences(n, lift=lift)


@pytest.mark.parametrize(
    "n, lift, count", [(7, False, 720), (8, False, 5040), (6, True, 720), (7, True, 5040)]
)
def test_sequences_past_the_filters(n, lift, count):
    # (n-1)! residue sequences, n! lifts; the filters would take n**n or
    # (2n-1)**n candidates here, so check the count, the order and the
    # filters' predicates instead
    sequences = enumerate_complete_sequences(n, lift=lift)
    assert len(sequences) == count
    assert all(a < b for a, b in zip(sequences, sequences[1:]))
    predicate = _is_reference_lift if lift else is_complete_sequence
    assert all(predicate(n, seq) for seq in sequences)


IDENTITY_SPECS = [
    "zn:2", "zn:3", "zn:4", "zn:5", "z:2", "z:3", "z:4", "z:5", "mu:2", "mu:3", "mu:4",
]


@pytest.mark.parametrize("cutoff", [None, 3, 5])
@pytest.mark.parametrize("spec", IDENTITY_SPECS)
def test_identity_families_match_reference(spec, cutoff):
    _assert_same_basis(parse_grading_spec(spec), "identities", cutoff)


@pytest.mark.parametrize("cutoff", [None, 3, 5])
def test_table_group_families_match_reference(cutoff, s3_grading, klein_file):
    # S3 on three rows and the Klein group on three rows have a nonempty
    # family (4); the Klein group on two rows has an empty one and a family (3)
    gradings = [
        s3_grading,
        parse_grading_spec(f"group:{klein_file}:e,a,b"),
        parse_grading_spec(f"group:{klein_file}:e,a"),
    ]
    for grading in gradings:
        expected = _assert_same_basis(grading, "identities", cutoff)
        families = {inst.family for inst in expected.instances}
        assert expected.truncated and families & {"(3)", "(4)"}


FAMILY_4_GROUPS = {
    "S3": TableGroup(*permutation_group_table(3)),
    "S4": TableGroup(*permutation_group_table(4)),
}


def _refusal(scan, grading: ElementaryGrading, bound: int) -> Optional[str]:
    try:
        scan(grading, bound)
    except BasesError as exc:
        return str(exc)
    return None


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=st.data())
def test_family_4_matches_the_product_scan(klein_file, data):
    group = data.draw(st.sampled_from(["S3", "S4", "Klein"]))
    structure = FAMILY_4_GROUPS.get(group) or parse_grading_spec(f"group:{klein_file}:e").structure
    rows = data.draw(st.lists(st.integers(0, structure.order - 1), min_size=2, max_size=4, unique=True))
    grading = ElementaryGrading(structure, rows)
    cutoff = data.draw(st.integers(0, 7))
    for scan, reference in (
        (_support_closed_monomial_identities, product_scan_support_closed_monomial_identities),
        (enumerate_monomial_identities, product_scan_monomial_identities),
    ):
        assert _refusal(scan, grading, -cutoff - 1) == _refusal(reference, grading, -cutoff - 1) is not None
        assert _refusal(scan, grading, cutoff) == _refusal(reference, grading, cutoff)
    refusal = _refusal(product_scan_support_closed_monomial_identities, grading, cutoff)
    if refusal is not None:
        assert "exceeds the limit" in refusal
        return
    actual, truncated = _support_closed_monomial_identities(grading, cutoff)
    expected, expected_truncated = product_scan_support_closed_monomial_identities(grading, cutoff)
    assert truncated == expected_truncated
    assert [(i.family, i.poly, i.params) for i in actual] == [(i.family, i.poly, i.params) for i in expected]


# Every family instance verifies True, so false verdicts come from
# mislabelled instances.  zp:3 and zp:5 are transitive and read row 1 alone;
# z:3, z:4, mu:3 and S3 on (0, 1, 3) are not.
MISLABEL_SPECS = ("zp:3", "zp:5", "z:3", "z:4", "mu:3")
MISLABEL_CASES = (
    "identity-as-central",
    "word-as-central",
    "word-as-identity",
    "central-as-identity",
    "row-one-misses",
    "constant-as-central",
)


def _mislabel_gradings(s3_grading):
    gradings = {spec: parse_grading_spec(spec) for spec in MISLABEL_SPECS}
    gradings["S3"] = s3_grading
    return gradings


def _closed_walk_symmetrization(grading: ElementaryGrading, rows: Sequence[int]) -> Polynomial:
    """The sum of the rotations of one word through distinct letters that
    walks ``rows`` and back to its first row."""
    rows = [*rows, rows[0]]
    letters = [Var(grading.unit_degree(a, b), c) for c, (a, b) in enumerate(zip(rows, rows[1:]), 1)]
    return Polynomial({Monomial(letters[s:] + letters[:s]): 1 for s in range(len(letters))})


def _random_poly(data, grading: ElementaryGrading) -> Polynomial:
    grades = sorted(grading.support())
    terms: dict = {}
    for _ in range(data.draw(st.integers(1, 3))):
        word = data.draw(st.lists(st.tuples(st.sampled_from(grades), st.integers(1, 3)), min_size=1, max_size=4))
        mono = Monomial(Var(h, i) for h, i in word)
        terms[mono] = terms.get(mono, 0) + data.draw(st.sampled_from([1, -1, 2]))
    return Polynomial(terms)


def _proper_central(grading: ElementaryGrading, data) -> Polynomial:
    """A proper central instance of the grading's own family, or on mu:3
    and S3 (which have none) a closed-walk symmetrization through every
    row."""
    if grading.structure.is_cyclic or grading.structure.kind == INTEGERS:
        instances = build_basis(grading, "central").instances
        return data.draw(st.sampled_from([i.poly for i in instances if i.family in PROPER_CENTRAL_FAMILIES]))
    return _closed_walk_symmetrization(grading, data.draw(st.permutations(range(1, grading.n + 1))))


def _verdict(family: str, poly: Polynomial, grading: ElementaryGrading) -> bool:
    inst = GeneratorInstance(family, poly, {})
    verdict = verify_instance(inst, grading)
    assert verdict == reference_verify_instance(inst, grading), (family, format_polynomial(poly, grading))
    return verdict


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_verify_instance_matches_reference_on_mislabelled_instances(s3_grading, data):
    gradings = _mislabel_gradings(s3_grading)
    grading = gradings[data.draw(st.sampled_from(sorted(gradings)))]
    case = data.draw(st.sampled_from(MISLABEL_CASES))
    proper = data.draw(st.sampled_from(sorted(PROPER_CENTRAL_FAMILIES)))
    plain = data.draw(st.sampled_from(["(1)", "(3)", "(4)", "(8)", "(12)", "(14)"]))
    if case == "identity-as-central":
        # zero is scalar, but a proper central instance must not vanish
        poly = data.draw(st.sampled_from(build_basis(grading, "identities").instances)).poly
        assert not _verdict(proper, poly, grading)
    elif case == "word-as-central":
        _verdict(proper, _random_poly(data, grading), grading)
    elif case == "word-as-identity":
        _verdict(plain, _random_poly(data, grading), grading)
    elif case == "central-as-identity":
        poly = _proper_central(grading, data)
        assert _verdict(proper, poly, grading)
        assert not _verdict(plain, poly, grading)
    elif case == "row-one-misses":
        # a letter whose grade row 1 does not admit survives from another
        # row (z:3, z:4, mu:3 and S3 have such grades; zp: has none)
        row_one = {grading.unit_degree(1, j) for j in range(1, grading.n + 1)}
        missed = sorted(grading.support() - row_one)
        if missed:
            poly = Polynomial.from_var(Var(data.draw(st.sampled_from(missed)), 1))
            assert not _verdict(plain, poly, grading)
            assert not _verdict(proper, poly, grading)
    else:
        constant = Polynomial({Monomial(): data.draw(st.sampled_from([1, -2]))})
        inst = GeneratorInstance(proper, _random_poly(data, grading) + constant, {})
        with pytest.raises(GradingError) as mine:
            verify_instance(inst, grading)
        with pytest.raises(GradingError) as theirs:
            reference_verify_instance(inst, grading)
        assert str(mine.value) == str(theirs.value)


def test_verify_instance_refuses_a_word_row_one_misses():
    # z:3 is not transitive: x[-1,1] survives from rows 2 and 3, not row 1
    poly = Polynomial.from_var(Var(-1, 1))
    assert not _verdict("(3)", poly, parse_grading_spec("z:3"))


# (item, passed, detail) of the four family batteries at seed 0, recorded from
# the construction above.  These batteries do not read the seed.
GOLDEN_FAMILY_ITEMS = {
    battery_generator_identities: [
        ("zn:2/(1)", True, "1/1 instances"),
        ("zn:2/(2)", True, "1/1 instances"),
        ("zn:3/(1)", True, "1/1 instances"),
        ("zn:3/(2)", True, "2/2 instances"),
        ("zn:4/(1)", True, "1/1 instances"),
        ("zn:4/(2)", True, "3/3 instances"),
        ("z:2/(1)", True, "1/1 instances"),
        ("z:2/(2)", True, "4/4 instances"),
        ("z:2/(3)", True, "4/4 instances"),
        ("z:3/(1)", True, "1/1 instances"),
        ("z:3/(2)", True, "6/6 instances"),
        ("z:3/(3)", True, "4/4 instances"),
        ("z:4/(1)", True, "1/1 instances"),
        ("z:4/(2)", True, "8/8 instances"),
        ("z:4/(3)", True, "4/4 instances"),
        ("mu:2/(5)", True, "4/4 instances"),
        ("mu:2/(6)", True, "2/2 instances"),
        ("mu:2/(7)", True, "1/1 instances"),
        ("mu:3/(5)", True, "9/9 instances"),
        ("mu:3/(6)", True, "6/6 instances"),
        ("mu:3/(7)", True, "1/1 instances"),
    ],
    battery_central_residue: [
        ("zp:2/(8)", True, "5/5 instances"),
        ("zp:2/(9)", True, "5/5 instances"),
        ("zp:2/(10)", True, "2/2 instances"),
        ("zp:2/(11)", True, "1/1 instances"),
        ("zp:3/(8)", True, "10/10 instances"),
        ("zp:3/(9)", True, "20/20 instances"),
        ("zp:3/(10)", True, "4/4 instances"),
        ("zp:3/(11)", True, "2/2 instances"),
        ("zp:5/(8)", True, "26/26 instances"),
        ("zp:5/(9)", True, "104/104 instances"),
        ("zp:5/(10)", True, "64/64 instances"),
        ("zp:5/(11)", True, "24/24 instances"),
        ("zp:3/power-collection-congruence", True, "(x1 x2)^3 - x2^3 x1^3"),
    ],
    battery_central_integer: [
        ("z:2/(12)", True, "10/10 instances"),
        ("z:2/(13)", True, "20/20 instances"),
        ("z:2/(14)", True, "40/40 instances"),
        ("z:2/(15)", True, "2/2 instances"),
        ("z:3/(12)", True, "26/26 instances"),
        ("z:3/(13)", True, "104/104 instances"),
        ("z:3/(14)", True, "104/104 instances"),
        ("z:3/(15)", True, "6/6 instances"),
    ],
    battery_positional_basis: [
        ("mu:2/families", True, "7/7 instances"),
        ("mu:3/families", True, "16/16 instances"),
        ("mu:2/monomial-identities", True, "56 identities, degree <= 3"),
    ],
}


@pytest.mark.parametrize("battery", list(GOLDEN_FAMILY_ITEMS), ids=lambda b: b.__name__)
def test_family_battery_items_are_pinned(battery):
    items = [(it.item, it.passed, it.detail) for it in battery(0)]
    assert items == GOLDEN_FAMILY_ITEMS[battery]
