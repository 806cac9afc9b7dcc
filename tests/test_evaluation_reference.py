"""Differential check of the sparse evaluation path against the dense one it
replaced.

``DensePolyMatrix``, ``reference_monomial_product``, ``reference_evaluate``
and the two reference witnesses are the earlier construction, kept verbatim
apart from their names and the source of the row walks: every term built a
dense n-by-n matrix from its row walks and was merged into a dense
accumulator.  The walks now come from ``oracles.unit_walks``, which reads
the unit degrees, where the earlier code read the library's ``row_walk``
paths.  The sparse path must give the same entries and byte-identical
witnesses.
"""

import json
import random
from collections import Counter
from typing import Dict, Iterable, List, Sequence, Union

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KLEIN_TABLE, permutation_group_table
from gradedpi import genericmodel
from gradedpi.bases import cyclic_symmetrization
from gradedpi.freealg import Monomial, Polynomial, Var, parse_polynomial
from gradedpi.genericmodel import (
    SparsePoly,
    centrality_witness,
    evaluate,
    identity_witness,
    is_identity,
    monomial_product,
)
from gradedpi.grading import (
    CyclicGroup,
    ElementaryGrading,
    GradingError,
    MU_ZERO,
    TableGroup,
    parse_grading_spec,
)
from gradedpi.oracles import naive_monomial_product, unit_walks
from gradedpi.rewrite import apply_rule
from gradedpi.suites import _applicable_rewrites


class DensePolyMatrix:
    """Square matrix of sparse polynomials with exact arithmetic."""

    __slots__ = ("n", "rows")

    def __init__(self, n: int, rows: Sequence[Sequence[SparsePoly]]):
        self.n = n
        self.rows = tuple(tuple(row) for row in rows)

    @staticmethod
    def identity(n: int) -> "DensePolyMatrix":
        rows = [
            [SparsePoly.one() if i == j else SparsePoly.zero() for j in range(n)]
            for i in range(n)
        ]
        return DensePolyMatrix(n, rows)

    def entry(self, i: int, j: int) -> SparsePoly:
        """Entry at row i, column j (1-based)."""
        return self.rows[i - 1][j - 1]

    @property
    def is_zero(self) -> bool:
        return all(p.is_zero for row in self.rows for p in row)

    @property
    def is_scalar(self) -> bool:
        """Zero off the diagonal with all diagonal entries equal."""
        for i in range(self.n):
            for j in range(self.n):
                if i != j and not self.rows[i][j].is_zero:
                    return False
        first = self.rows[0][0]
        return all(self.rows[k][k] == first for k in range(1, self.n))

    def nonzero_positions(self):
        """Nonzero entry positions, 1-based, in row-major order."""
        for i in range(self.n):
            for j in range(self.n):
                if not self.rows[i][j].is_zero:
                    yield (i + 1, j + 1)


def reference_monomial_product(grading: ElementaryGrading, vars: Union[Monomial, Iterable]) -> DensePolyMatrix:
    pairs = vars.vars
    n = grading.n
    if not pairs:
        return DensePolyMatrix.identity(n)
    walks = unit_walks(grading, [h for h, _ in pairs])
    rows = [[SparsePoly.zero()] * n for _ in range(n)]
    for k, path in walks.items():
        powers = Counter(
            (pairs[c][0], pairs[c][1], path[c]) for c in range(len(pairs))
        )
        rows[k - 1][path[-1] - 1] = SparsePoly.monomial(powers)
    return DensePolyMatrix(n, rows)


def reference_evaluate(f: Polynomial, grading: ElementaryGrading) -> DensePolyMatrix:
    n = grading.n
    acc: List[List[Dict[tuple, int]]] = [[{} for _ in range(n)] for _ in range(n)]
    for mono, coeff in f.terms.items():
        pm = reference_monomial_product(grading, mono)
        for (i, j) in pm.nonzero_positions():
            cell = acc[i - 1][j - 1]
            for key, c in pm.entry(i, j).terms.items():
                nc = cell.get(key, 0) + c * coeff
                if nc:
                    cell[key] = nc
                else:
                    del cell[key]
    return DensePolyMatrix(n, [[SparsePoly(cell) for cell in row] for row in acc])


def reference_identity_witness(f: Polynomial, grading: ElementaryGrading) -> dict:
    value = reference_evaluate(f, grading)
    for (i, j) in value.nonzero_positions():
        return {
            "kind": "nonzero_entry",
            "position": [i, j],
            "entry": value.entry(i, j).text(grading),
        }
    return {"kind": "verified"}


def reference_centrality_witness(f: Polynomial, grading: ElementaryGrading) -> dict:
    if f.constant_term != 0:
        raise GradingError("centrality requires a zero constant term")
    value = reference_evaluate(f, grading)
    for i in range(1, value.n + 1):
        for j in range(1, value.n + 1):
            if i != j and not value.entry(i, j).is_zero:
                return {
                    "kind": "offdiag",
                    "position": [i, j],
                    "entry": value.entry(i, j).text(grading),
                }
    reference = value.entry(1, 1)
    for k in range(2, value.n + 1):
        if value.entry(k, k) != reference:
            return {
                "kind": "diag_mismatch",
                "position": [k, k],
                "entry": value.entry(k, k).text(grading),
                "reference_position": [1, 1],
                "reference_entry": reference.text(grading),
            }
    return {"kind": "verified"}


# -- the comparison --------------------------------------------------------------


def _klein_grading():
    lines = KLEIN_TABLE.splitlines()
    names = lines[0].split()
    index = {name: i for i, name in enumerate(names)}
    table = [[index[x] for x in line.split()] for line in lines[1:]]
    return ElementaryGrading(TableGroup(names, table), (0, 1))


@pytest.fixture(scope="module")
def every_kind(s3_grading):
    """One grading per kind, with grades outside the support where the kind
    has them, so that killed monomials occur."""
    mu3 = [MU_ZERO] + [(i, j) for i in range(1, 4) for j in range(1, 4)]
    return {
        "zn:3": (parse_grading_spec("zn:3"), list(range(3))),
        "zn:5": (parse_grading_spec("zn:5"), list(range(5))),
        "z:3": (parse_grading_spec("z:3"), list(range(-4, 5))),
        "mu:3": (parse_grading_spec("mu:3"), mu3),
        "s3": (s3_grading, list(range(6))),
        "klein": (_klein_grading(), list(range(4))),
    }


def _witness_bytes(fn, f, grading):
    try:
        return json.dumps(fn(f, grading), sort_keys=True)
    except GradingError as exc:
        return f"GradingError: {exc}"


def assert_same_evaluation(f: Polynomial, grading: ElementaryGrading):
    value = evaluate(f, grading)
    dense = reference_evaluate(f, grading)
    n = grading.n
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            assert value.entry(i, j) == dense.entry(i, j), (i, j)
    assert sorted(value.cells) == list(dense.nonzero_positions())
    assert value.is_zero == dense.is_zero
    assert value.is_scalar == dense.is_scalar
    assert _witness_bytes(identity_witness, f, grading) == _witness_bytes(
        reference_identity_witness, f, grading
    )
    assert _witness_bytes(centrality_witness, f, grading) == _witness_bytes(
        reference_centrality_witness, f, grading
    )
    for mono in f.terms:
        product = monomial_product(grading, mono)
        assert product == naive_monomial_product(grading, mono)
        dense_product = reference_monomial_product(grading, mono)
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert product.entry(i, j) == dense_product.entry(i, j)


class TestSparseAgainstDense:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_entries_and_witnesses_match(self, every_kind, data):
        grading, grades = every_kind[data.draw(st.sampled_from(sorted(every_kind)))]
        indices = st.integers(min_value=1, max_value=2)
        coeffs = st.sampled_from([1, -1, 2, -2, 3, -3])
        terms: Dict[Monomial, int] = {}

        def add(m, c):
            terms[m] = terms.get(m, 0) + c

        for _ in range(data.draw(st.integers(min_value=0, max_value=5))):
            if data.draw(st.booleans()):
                # along a row walk, so the word survives
                rows = data.draw(
                    st.lists(st.integers(min_value=1, max_value=grading.n), min_size=2, max_size=7)
                )
                hs = [grading.unit_degree(a, b) for a, b in zip(rows, rows[1:])]
            else:
                # any grades, so the word may die or carry an empty degree
                hs = data.draw(st.lists(st.sampled_from(grades), min_size=1, max_size=6))
            m = Monomial(Var(h, data.draw(indices)) for h in hs)
            c = data.draw(coeffs)
            add(m, c)
            apps = _applicable_rewrites(m, grading) if len(m) > 1 else []
            if apps and data.draw(st.booleans()):
                # a rewritten word has the same evaluation: cancel it fully
                # or in part
                rule, window = data.draw(st.sampled_from(apps))
                add(apply_rule(m, rule, window, grading), -c + data.draw(st.sampled_from([0, 0, 1])))
        if data.draw(st.integers(min_value=0, max_value=3)) == 3:
            add(Monomial(), data.draw(coeffs))
        assert_same_evaluation(Polynomial(terms), grading)

    def test_larger_matrices(self):
        rng = random.Random(5)
        for spec in ("zn:12", "z:9", "mu:5"):
            grading = parse_grading_spec(spec)
            pool = sorted(grading.support())
            for _ in range(20):
                terms = {}
                for _ in range(rng.randint(1, 4)):
                    word = [Var(rng.choice(pool), rng.randint(1, 2)) for _ in range(rng.randint(0, 5))]
                    terms[Monomial(word)] = rng.randint(-2, 2)
                assert_same_evaluation(Polynomial(terms), grading)


# -- verdicts from start row 1 on transitive gradings ---------------------------


@pytest.fixture(scope="module")
def transitive_kinds():
    """Gradings whose row grades are a coset of a subgroup, so that start row
    1 decides every verdict, with the rows in an order other than the
    subgroup's; Klein (e, a, b) is not a coset and keeps the whole matrix."""
    s3 = TableGroup(*permutation_group_table(3))
    klein = _klein_grading().structure
    return {
        "zn:5 permuted": (ElementaryGrading(CyclicGroup(5), (3, 0, 4, 1, 2)), list(range(5))),
        "zp:7": (parse_grading_spec("zp:7"), list(range(7))),
        "S3 A3": (ElementaryGrading(s3, (3, 0, 4)), list(range(6))),
        "S3 odd coset": (ElementaryGrading(s3, (5, 1, 2)), list(range(6))),
        "klein (e,a)": (ElementaryGrading(klein, (0, 1)), list(range(4))),
        "klein (e,a,b)": (ElementaryGrading(klein, (0, 1, 2)), list(range(4))),
    }


def _verdict_bytes(f, grading):
    """is_identity and both witnesses, as compared text."""
    return (
        is_identity(f, grading),
        _witness_bytes(identity_witness, f, grading),
        _witness_bytes(centrality_witness, f, grading),
    )


def _reference_verdict_bytes(f, grading):
    return (
        reference_evaluate(f, grading).is_zero,
        _witness_bytes(reference_identity_witness, f, grading),
        _witness_bytes(reference_centrality_witness, f, grading),
    )


class TestRowOneAgainstDense:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_verdicts_match(self, transitive_kinds, data):
        grading, grades = transitive_kinds[data.draw(st.sampled_from(sorted(transitive_kinds)))]
        # closed words only, half of the time: the evaluation is then
        # diagonal, and centrality compares every relabelled (1, 1) entry
        closed = data.draw(st.booleans())
        coeffs = st.sampled_from([1, -1, 2, -2])
        terms: Dict[Monomial, int] = {}
        for _ in range(data.draw(st.integers(min_value=1, max_value=5))):
            if closed or data.draw(st.booleans()):
                rows = data.draw(
                    st.lists(st.integers(min_value=1, max_value=grading.n), min_size=1, max_size=6)
                )
                rows.append(rows[0] if closed else data.draw(st.integers(1, grading.n)))
                hs = [grading.unit_degree(a, b) for a, b in zip(rows, rows[1:])]
            else:
                hs = data.draw(st.lists(st.sampled_from(grades), min_size=1, max_size=6))
            m = Monomial(Var(h, data.draw(st.integers(min_value=1, max_value=2))) for h in hs)
            terms[m] = terms.get(m, 0) + data.draw(coeffs)
        if data.draw(st.integers(min_value=0, max_value=4)) == 4:
            terms[Monomial()] = data.draw(coeffs)
        f = Polynomial(terms)
        assert _verdict_bytes(f, grading) == _reference_verdict_bytes(f, grading)


def _raise(*args):
    raise AssertionError("the whole matrix was evaluated")


def test_transitive_verdicts_never_evaluate_the_whole_matrix(monkeypatch):
    grading = parse_grading_spec("zn:64")
    central = cyclic_symmetrization([Var(1, l) for l in range(1, 65)], grading)
    texts = (
        "x[1,1]*x[63,2]*x[5,3] - x[63,2]*x[1,1]*x[5,3]",
        "x[0,1]*x[0,2] - x[0,2]*x[0,1]",
        "x[32,1]*x[32,2] + x[32,2]*x[32,1]",
        "x[7,1]",
    )
    polys = [parse_polynomial(text, grading) for text in texts] + [central]
    monkeypatch.setattr(genericmodel, "evaluate", _raise)
    # the verdicts walk coded keys without ``evaluate``: a walk from every
    # start row is the whole matrix
    walk_words = genericmodel._walk_words

    def row_one_only(grading, terms, starts=None):
        if starts is None:
            _raise()
        return walk_words(grading, terms, starts)

    monkeypatch.setattr(genericmodel, "_walk_words", row_one_only)
    for f in polys:
        assert _verdict_bytes(f, grading) == _reference_verdict_bytes(f, grading)
    assert json.loads(_verdict_bytes(central, grading)[2]) == {"kind": "verified"}
    # a tuple that is not a coset still reads the whole matrix
    klein = ElementaryGrading(_klein_grading().structure, (0, 1, 2))
    with pytest.raises(AssertionError, match="whole matrix"):
        is_identity(Polynomial.from_monomial(Monomial([Var(1, 1)])), klein)
