"""Differential check of the entry keys against matrices.

``reference_entry_match`` is the earlier ``entry_match`` apart from its name
and the source of the products: it compared the cells of both generic
products in row-major order.  The products now come from
``oracles.naive_monomial_product``, iterated multiplication over the unit
degrees, where the earlier code read the library's ``monomial_product``,
which walks the same entry keys as ``entry_match``.  The current one
compares the sorted ``_entry_keys`` letters one start row at a time and
must return the same position.  Two words have equal key maps exactly when
their naive products are equal: a word's product carries one entry per
surviving walk, at (start, end), and its sorted letters are that entry's
exponents.
"""

from typing import Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from gradedpi.freealg import Monomial, Var
from gradedpi.genericmodel import PolyMatrix, _decode_key, _entry_keys, entry_match
from gradedpi.oracles import naive_monomial_product
from gradedpi.rewrite import _rewrite_windows, apply_rule


def reference_entry_match(p1: PolyMatrix, p2: PolyMatrix) -> Optional[Tuple[int, int]]:
    """First position (row-major, 1-based) where two generic products carry
    the identical nonzero entry, or None."""
    e1, e2 = p1.cells, p2.cells
    for pos in sorted(e1):
        if e1[pos] == e2.get(pos):
            return pos
    return None


def _key_map(grading, word, starts=None):
    """Start row to (end row, entry key): ``_entry_keys`` with its letters
    sorted."""
    return {k: (end, sorted(letters)) for k, (end, letters) in _entry_keys(grading, word, starts).items()}


def _word(data, grading, grades):
    indices = st.integers(min_value=1, max_value=2)
    if data.draw(st.booleans()):
        # along a row walk, so the word survives
        rows = data.draw(st.lists(st.integers(min_value=1, max_value=grading.n), min_size=1, max_size=7))
        hs = [grading.unit_degree(a, b) for a, b in zip(rows, rows[1:])]
    else:
        # any grades, so the word may die; the empty word among them
        hs = data.draw(st.lists(st.sampled_from(grades), min_size=0, max_size=6))
    return [Var(h, data.draw(indices)) for h in hs]


def _partner(data, grading, grades, word):
    """A second word: the same one, a permutation, one rewrite away (so a
    shared entry survives), one letter doubled (a loop at one row visits the
    same (variable, row) pairs, one of them twice), or drawn on its own."""
    how = data.draw(st.sampled_from(["equal", "permuted", "rewritten", "doubled", "drawn"]))
    if how == "equal":
        return list(word)
    if how == "doubled" and word:
        i = data.draw(st.integers(min_value=0, max_value=len(word) - 1))
        return word[: i + 1] + word[i:]
    if how == "permuted":
        return data.draw(st.permutations(word))
    if how == "rewritten":
        apps = list(_rewrite_windows(Monomial(word), grading))
        if apps:
            rule, window = data.draw(st.sampled_from(apps))
            return list(apply_rule(Monomial(word), rule, window, grading).vars)
    return _word(data, grading, grades)


class TestEntryKeys:
    @settings(max_examples=400, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_keys_decide_shared_entries(self, every_kind, data):
        grading, grades = every_kind[data.draw(st.sampled_from(sorted(every_kind)))]
        w1 = _word(data, grading, grades)
        w2 = _partner(data, grading, grades, w1)
        m1, m2 = Monomial(w1), Monomial(w2)
        p1, p2 = naive_monomial_product(grading, m1), naive_monomial_product(grading, m2)
        assert entry_match(m1, m2, grading) == reference_entry_match(p1, p2)
        assert (_key_map(grading, w1) == _key_map(grading, w2)) == (p1 == p2)

    def test_empty_word_stays_on_every_row(self, every_kind):
        for grading, _ in every_kind.values():
            n = grading.n
            assert _entry_keys(grading, ()) == {k: (k, []) for k in range(1, n + 1)}
            assert _entry_keys(grading, (), (2, n + 1)) == {2: (2, [])}
            assert entry_match(Monomial(), Monomial(), grading) == (1, 1)

    def test_repeated_letter_is_its_exponent(self, every_kind):
        # a walk that visits one (variable, row) pair twice keeps exponent 2
        grading, _ = every_kind["zn:3"]
        x = Var(0, 1)
        keys = _key_map(grading, (x, x), (1,))
        assert {k: (end, _decode_key(grading, key)) for k, (end, key) in keys.items()} == {1: (1, (((0, 1, 1), 2),))}
        assert entry_match(Monomial([x, x]), Monomial([x]), grading) is None
