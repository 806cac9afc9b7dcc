"""Differential check of the integer-coded entry keys against the tuple keys
they replaced.

``reference_entry_keys``, ``reference_walk_words`` and
``reference_row_one_nonscalar_position`` are the earlier ``_entry_keys``,
``_walk_words`` and ``_row_one_nonscalar_position``, kept verbatim apart from
their names: a key was the sorted tuple of ((grade, index, row), exponent)
pairs, built per letter, and a verified centrality check relabelled the
(1, 1) entry once for every row.  The reference verdicts and witnesses below
are the earlier ones built on them (the earlier ``_decisive_rows`` called
``evaluate``, which was ``_walk_words`` over the terms).  The coded path
must give the same decoded cells, byte-identical witness JSON and the same
``entry_match``.
"""

import json
from typing import Dict, Iterable, Optional, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import permutation_group_table
from gradedpi.bases import cyclic_symmetrization
from gradedpi.freealg import Monomial, Polynomial, Var
from gradedpi.genericmodel import (
    PolyMatrix,
    Position,
    SparsePoly,
    YVar,
    _decisive_rows,
    _require_zero_constant,
    _row_one_nonscalar_position,
    centrality_witness,
    entry_match,
    evaluate,
    identity_witness,
    is_identity,
    monomial_product,
)
from gradedpi.grading import (
    MU_ZERO,
    CyclicGroup,
    ElementaryGrading,
    GradingError,
    IntegerGroup,
    TableGroup,
    parse_grading_spec,
)


def reference_entry_keys(grading: ElementaryGrading, word, starts=None) -> Dict[int, Tuple[int, tuple]]:
    """``{start: (end, key)}`` for each row walk that survives ``word`` (a
    sequence of variables): walking from row k (a row admitting the first
    letter) to the final row, the word's product is y[h_1,i_1,row_1] * ... *
    y[h_q,i_q,row_q] at position (k, final row), and ``key`` is its sorted
    tuple of (variable, exponent) pairs.  The empty word stays on every row
    with key ().  ``starts`` keeps only its rows.
    """
    targets = grading._targets
    letters = [(h, i, targets.get(h) or grading._target(h)) for h, i in word]
    rows = letters[0][2] if letters else range(1, grading.n + 1)
    keys = {}
    for start in rows if starts is None else [k for k in starts if k in rows]:
        cur = start
        powers: Dict[YVar, int] = {}
        for h, i, table in letters:
            nxt = table.get(cur)
            if nxt is None:
                break
            y = (h, i, cur)
            powers[y] = powers.get(y, 0) + 1
            cur = nxt
        else:
            keys[start] = (cur, tuple(sorted(powers.items())))
    return keys


def reference_walk_words(grading: ElementaryGrading, terms: Iterable[Tuple[Monomial, int]], starts=None) -> PolyMatrix:
    """Sum of coeff times the closed-form product of each word in ``terms``,
    (monomial, coefficient) pairs: each coefficient is merged straight into
    the word's entries from ``_entry_keys``, and cancelled keys are dropped
    when the entries are wrapped.  ``starts`` keeps only its rows.
    """
    acc: Dict[Position, Dict[tuple, int]] = {}
    for mono, coeff in terms:
        for start, (end, key) in reference_entry_keys(grading, mono.vars, starts).items():
            cell = acc.setdefault((start, end), {})
            cell[key] = cell.get(key, 0) + coeff
    return PolyMatrix(grading.n, {pos: SparsePoly(cell) for pos, cell in acc.items()})


def reference_row_one_nonscalar_position(value: PolyMatrix, grading: ElementaryGrading) -> Optional[Position]:
    """``_nonscalar_position`` of the whole evaluation from its row 1 alone:
    an off-diagonal cell anywhere puts one in row 1, and entry (k, k) is the
    (1, 1) entry with each row r relabelled pi_k(r), built one k at a time
    and stored into ``value`` when it differs."""
    off = [pos for pos in value.cells if pos[0] != pos[1]]
    if off:
        return min(off)
    first = value.cells.get((1, 1))
    if first is None:  # every diagonal entry is a relabelled zero
        return None
    for k in range(2, grading.n + 1):
        pi = grading.structure.row_translation(grading.row_grades, k)
        entry = SparsePoly({tuple(sorted(((h, i, pi[r]), e) for (h, i, r), e in key)): c
                            for key, c in first.terms.items()})
        if entry != first:
            value.cells[k, k] = entry
            return (k, k)
    return None


def reference_decisive_rows(f: Polynomial, grading: ElementaryGrading) -> PolyMatrix:
    if grading._transitive:
        return reference_walk_words(grading, f.terms.items(), (1,))
    return reference_walk_words(grading, f.terms.items())


def reference_entry_match(m1: Monomial, m2: Monomial, grading: ElementaryGrading) -> Optional[Tuple[int, int]]:
    for k in range(1, grading.n + 1):
        hit = reference_entry_keys(grading, m1.vars, (k,)).get(k)
        if hit is not None and hit == reference_entry_keys(grading, m2.vars, (k,)).get(k):
            return k, hit[0]
    return None


def _entry_report(kind: str, value: PolyMatrix, i: int, j: int, grading: ElementaryGrading) -> dict:
    return {"kind": kind, "position": [i, j], "entry": value.entry(i, j).text(grading)}


def reference_identity_witness(f: Polynomial, grading: ElementaryGrading) -> dict:
    value = reference_decisive_rows(f, grading)
    if value.is_zero:
        return {"kind": "verified"}
    return _entry_report("nonzero_entry", value, *min(value.cells), grading)


def reference_centrality_witness(f: Polynomial, grading: ElementaryGrading) -> dict:
    _require_zero_constant(f)
    value = reference_decisive_rows(f, grading)
    pos = reference_row_one_nonscalar_position(value, grading) if grading._transitive else value._nonscalar_position()
    if pos is None:
        return {"kind": "verified"}
    i, j = pos
    if i != j:
        return _entry_report("offdiag", value, i, j, grading)
    report = _entry_report("diag_mismatch", value, i, i, grading)
    report["reference_position"] = [1, 1]
    report["reference_entry"] = value.entry(1, 1).text(grading)
    return report


# -- the comparison --------------------------------------------------------------


def _witness_bytes(fn, f, grading):
    try:
        return json.dumps(fn(f, grading), sort_keys=True)
    except GradingError as exc:
        return f"GradingError: {exc}"


def _table_grading(names, table, rows):
    return ElementaryGrading(TableGroup(names, table), rows)


def _a3():
    """The alternating group on three points as its own Cayley table: the
    identity and the two 3-cycles of S3, re-indexed."""
    names, table = permutation_group_table(3)
    even = [names.index(p) for p in ("012", "120", "201")]
    return [names[g] for g in even], [[even.index(table[a][b]) for b in even] for a in even]


@pytest.fixture(scope="module")
def kinds(s3_grading, klein_file):
    """One grading per kind, with grades outside the support where the kind
    has them, so that killed words occur; zn:5 and S3 (A3) are transitive."""
    mu3 = [MU_ZERO] + [(i, j) for i in range(1, 4) for j in range(1, 4)]
    return {
        "zn:3": (parse_grading_spec("zn:3"), list(range(3))),
        "zn:5 permuted": (ElementaryGrading(CyclicGroup(5), (3, 0, 4, 1, 2)), list(range(5))),
        "z:3": (parse_grading_spec("z:3"), list(range(-4, 5))),
        "z shifted": (ElementaryGrading(IntegerGroup(), (5, 6, 7, 8)), list(range(-5, 6))),
        "z gaps": (ElementaryGrading(IntegerGroup(), (1, 2, 4)), list(range(-4, 5))),
        "mu:3": (parse_grading_spec("mu:3"), mu3),
        "s3": (s3_grading, list(range(6))),
        "S3 A3": (_table_grading(*permutation_group_table(3), (3, 0, 4)), list(range(6))),
        "klein": (parse_grading_spec(f"group:{klein_file}:e,a,b"), list(range(4))),
        "klein (e,a,b,c)": (parse_grading_spec(f"group:{klein_file}:e,a,b,c"), list(range(4))),
    }


def _word(data, grading, grades, closed=False):
    indices = st.integers(min_value=1, max_value=3)
    if closed or data.draw(st.booleans()):
        # along a row walk, so the word survives; a closed walk lands on the
        # diagonal, where centrality compares relabelled (1, 1) entries
        rows = data.draw(st.lists(st.integers(min_value=1, max_value=grading.n), min_size=1, max_size=7))
        if closed:
            rows.append(rows[0])
        hs = [grading.unit_degree(a, b) for a, b in zip(rows, rows[1:])]
    else:
        # any grades, so the word may die; the empty word among them
        hs = data.draw(st.lists(st.sampled_from(grades), min_size=0, max_size=6))
    return Monomial(Var(h, data.draw(indices)) for h in hs)


def assert_same_as_reference(f: Polynomial, grading: ElementaryGrading):
    value = evaluate(f, grading)
    assert value == reference_walk_words(grading, f.terms.items())
    for cell in value.cells.values():
        for key in cell.terms:
            assert list(key) == sorted(key)
    assert is_identity(f, grading) == reference_decisive_rows(f, grading).is_zero
    for mine, theirs in (
        (identity_witness, reference_identity_witness),
        (centrality_witness, reference_centrality_witness),
    ):
        assert _witness_bytes(mine, f, grading) == _witness_bytes(theirs, f, grading)
    for mono in f.terms:
        assert monomial_product(grading, mono) == reference_walk_words(grading, ((mono, 1),))


class TestCodedAgainstTupleKeys:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_cells_witnesses_and_matches(self, kinds, data):
        grading, grades = kinds[data.draw(st.sampled_from(sorted(kinds)))]
        closed = data.draw(st.booleans())
        terms: Dict[Monomial, int] = {}
        words = [_word(data, grading, grades, closed) for _ in range(data.draw(st.integers(0, 5)))]
        for m in words:
            terms[m] = terms.get(m, 0) + data.draw(st.sampled_from([1, -1, 2, -3]))
            if data.draw(st.booleans()):
                # the same letters in another order: often a shared entry,
                # sometimes a cancelled one
                other = Monomial(data.draw(st.permutations(m.vars)))
                terms[other] = terms.get(other, 0) - terms[m]
        if data.draw(st.integers(min_value=0, max_value=4)) == 4:
            terms[Monomial()] = 1
        f = Polynomial(terms)
        assert_same_as_reference(f, grading)
        for m1 in list(f.terms)[:3]:
            for m2 in f.terms:
                assert entry_match(m1, m2, grading) == reference_entry_match(m1, m2, grading)


def _row_one_gradings(klein_file):
    """Transitive gradings of the row-1 verdicts, and zn:64, Klein (e, a, b,
    c) and A3 on all of its elements."""
    s3 = TableGroup(*permutation_group_table(3))
    klein = parse_grading_spec(f"group:{klein_file}:e,a,b,c")
    return {
        "zn:5 permuted": ElementaryGrading(CyclicGroup(5), (3, 0, 4, 1, 2)),
        "zp:7": parse_grading_spec("zp:7"),
        "S3 A3": ElementaryGrading(s3, (3, 0, 4)),
        "S3 odd coset": ElementaryGrading(s3, (5, 1, 2)),
        "klein (e,a)": ElementaryGrading(klein.structure, (0, 1)),
        "klein (e,a,b,c)": klein,
        "A3": _table_grading(*_a3(), (0, 1, 2)),
        "zn:64": parse_grading_spec("zn:64"),
    }


class TestRowOneFromGenerators:
    def test_every_grading_is_transitive(self, klein_file):
        for name, grading in _row_one_gradings(klein_file).items():
            assert grading._transitive, name

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_position_and_stored_entry_match(self, klein_file, data):
        gradings = _row_one_gradings(klein_file)
        grading = gradings[data.draw(st.sampled_from(sorted(gradings)))]
        n = grading.n
        terms: Dict[Monomial, int] = {}
        if data.draw(st.booleans()):
            # the rotations of a closed walk through distinct letters: every
            # row walk is closed, and on a full cycle of the rows (a
            # symmetrization) the (1, 1) entry is kept by every relabelling,
            # unless a rotation is dropped
            rows = data.draw(st.permutations(range(1, n + 1)))[: data.draw(st.integers(1, min(n, 6)))]
            rows = [*rows, rows[0]]
            letters = [Var(grading.unit_degree(a, b), c) for c, (a, b) in enumerate(zip(rows, rows[1:]), 1)]
            for s in range(len(letters)):
                terms[Monomial(letters[s:] + letters[:s])] = 1
            if data.draw(st.booleans()):
                del terms[Monomial(letters)]
        for _ in range(data.draw(st.integers(min_value=0 if terms else 1, max_value=3))):
            m = _word(data, grading, sorted(grading.support()), closed=data.draw(st.booleans()))
            terms[m] = terms.get(m, 0) + data.draw(st.sampled_from([1, -1, 2]))
        terms.pop(Monomial(), None)
        f = Polynomial(terms)
        mine = _decisive_rows(f, grading)
        theirs = reference_decisive_rows(f, grading)
        pos = _row_one_nonscalar_position(mine, grading)
        assert pos == reference_row_one_nonscalar_position(theirs, grading)
        if pos is not None:
            assert _witness_bytes(centrality_witness, f, grading) == _witness_bytes(
                reference_centrality_witness, f, grading
            )

    def test_symmetrizations_on_zn64(self):
        grading = parse_grading_spec("zn:64")
        letters = [Var(1, l) for l in range(1, 65)]
        central = cyclic_symmetrization(letters, grading)
        assert centrality_witness(central, grading) == {"kind": "verified"}
        # one rotation dropped: every relabelled entry but the identity's moves
        rotation = next(iter(central.terms))
        broken = Polynomial({m: c for m, c in central.terms.items() if m != rotation})
        assert _witness_bytes(centrality_witness, broken, grading) == _witness_bytes(
            reference_centrality_witness, broken, grading
        )
        assert centrality_witness(broken, grading)["position"] == [2, 2]
