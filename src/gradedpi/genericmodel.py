"""Exact generic-matrix model: the decision procedure for graded identities.

Each graded variable x[h,i] is assigned a generic matrix with one fresh
commuting variable per admissible row.  A graded polynomial is an identity of
the matrix algebra over an infinite integral domain iff its generic
evaluation is the zero matrix, and central iff the evaluation is scalar.
Both checks ask integer coefficients to vanish in Z, so the verdicts are
those of characteristic 0: ``2*x[1,1]`` on ``zn:2`` is not an identity here,
though it is one over a domain of characteristic 2.

One routine, ``_entry_keys``, walks a word in closed form from the row maps
of its degrees, rather than by iterated matrix multiplication, and codes
each letter it reads as one int, its variable's code on the grading plus
the row it is read at.  Sorted, a surviving walk's letters are the key of
the entry it reaches.  Coefficients are merged into coded entries;
``evaluate`` and ``monomial_product`` decode their cells into (variable,
exponent) keys, the verdicts decode nothing but the entries a witness
prints, ``entry_match`` compares two words' coded entries, and
``rewrite.find_congruence`` pairs two words' letters.  The empty word (a
constant term) stays on every row, so it lands on the diagonal.  The naive
product, the independent cross-check, lives in ``gradedpi.oracles``; this
module does no matrix arithmetic.

On a transitive grading the verdicts walk start row 1 alone.
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from typing import Dict, Iterable, List, Optional, Tuple

from .grading import ElementaryGrading, Grade, GradingError
from .freealg import Monomial, Polynomial, _signed_sum

#: commuting variable key: (grade, generic matrix index, row)
YVar = Tuple[Grade, int, int]
#: 1-based matrix position (row, column)
Position = Tuple[int, int]


class SparsePoly:
    """Commutative polynomial with exact integer coefficients.

    Terms map a canonical exponent key to a nonzero coefficient; a key is the
    sorted tuple of (variable, exponent) pairs.  Equality is structural, which
    is what the centrality check relies on.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Dict[tuple, int]] = None):
        self.terms = {k: c for k, c in (terms or {}).items() if c}

    @staticmethod
    def zero() -> "SparsePoly":
        return SparsePoly()

    @staticmethod
    def one() -> "SparsePoly":
        return SparsePoly({(): 1})

    @staticmethod
    def variable(yvar: YVar) -> "SparsePoly":
        return SparsePoly({((yvar, 1),): 1})

    @staticmethod
    def monomial(powers: Counter, coeff: int = 1) -> "SparsePoly":
        key = tuple(sorted((v, e) for v, e in powers.items() if e))
        return SparsePoly({key: coeff})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, SparsePoly) and self.terms == other.terms

    def text(self, grading: ElementaryGrading) -> str:
        """Deterministic text form, used in witness reports."""
        fmt = grading.structure.format_grade

        def word(key) -> str:
            return "*".join(
                f"y[{fmt(grade)},{idx},{row}]" + ("" if exp == 1 else f"^{exp}")
                for (grade, idx, row), exp in key
            )

        return _signed_sum((coeff, word(key)) for key, coeff in sorted(self.terms.items()))

    def __repr__(self):
        return f"SparsePoly({len(self.terms)} terms)"


class PolyMatrix:
    """Square matrix of sparse polynomials with exact arithmetic.

    Only nonzero entries are stored: ``cells`` maps a 1-based position
    (i, j) to its entry.
    """

    __slots__ = ("n", "cells")

    def __init__(self, n: int, cells: Optional[Dict[Position, SparsePoly]] = None):
        self.n = n
        self.cells = {pos: p for pos, p in (cells or {}).items() if not p.is_zero}

    def entry(self, i: int, j: int) -> SparsePoly:
        """Entry at row i, column j (1-based)."""
        p = self.cells.get((i, j))
        return SparsePoly() if p is None else p

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.n == other.n
            and self.cells == other.cells
        )

    @property
    def is_zero(self) -> bool:
        return not self.cells

    @property
    def is_scalar(self) -> bool:
        """Zero off the diagonal with all diagonal entries equal."""
        return self._nonscalar_position() is None

    def _nonscalar_position(self) -> Optional[Position]:
        """The first nonzero off-diagonal position (row-major), else the
        first diagonal position whose entry differs from the (1,1) entry,
        else None."""
        off = [pos for pos in self.cells if pos[0] != pos[1]]
        if off:
            return min(off)
        first = self.cells.get((1, 1))
        for k in range(2, self.n + 1):
            if self.cells.get((k, k)) != first:
                return (k, k)
        return None

    def __repr__(self):
        return f"PolyMatrix({self.n}x{self.n})"


def _entry_keys(grading: ElementaryGrading, word, starts=None) -> Dict[int, Tuple[int, List[int]]]:
    """``{start: (end, letters)}`` for each row walk that survives ``word``
    (a sequence of variables): walking from row k (a row admitting the first
    letter) to the final row, the word's product is y[h_1,i_1,row_1] * ... *
    y[h_q,i_q,row_q] at position (k, final row).  ``letters`` codes those
    factors in word order, one int per letter: its variable's code
    (``ElementaryGrading._letter``) plus the row it is read at, so the row
    is the int mod n + 1.  Sorted, the letters are the entry's key, in which
    a repeated int is an exponent; ``_decode_key`` gives the (variable,
    exponent) pairs.  The empty word stays on every row with no letters.
    ``starts`` keeps only its rows.  The one walk over a word: the verdicts,
    ``entry_match`` and ``rewrite.find_congruence`` read it.
    """
    known = grading._letters
    letters = [known.get(v) or grading._letter(v) for v in word]
    rows = letters[0][1] if letters else range(1, grading.n + 1)
    keys = {}
    for start in rows if starts is None else [k for k in starts if k in rows]:
        cur = start
        key = []
        for code, table in letters:
            nxt = table.get(cur)
            if nxt is None:
                break
            key.append(code + cur)
            cur = nxt
        else:
            keys[start] = (cur, key)
    return keys


def _decode_key(grading: ElementaryGrading, key: tuple) -> tuple:
    """The sorted ((grade, index, row), exponent) pairs of a coded key."""
    coded_vars, stride = grading._coded_vars, grading.n + 1
    # most keys repeat no letter, and a set is cheaper than a Counter
    counts = zip(key, itertools.repeat(1)) if len(set(key)) == len(key) else Counter(key).items()
    pairs = [(coded_vars[x // stride - 1] + (x % stride,), e) for x, e in counts]
    pairs.sort()
    return tuple(pairs)


def _decode(grading: ElementaryGrading, entry: SparsePoly) -> SparsePoly:
    return SparsePoly({_decode_key(grading, key): c for key, c in entry.terms.items()})


def _walk_words(grading: ElementaryGrading, terms: Iterable[Tuple[Monomial, int]], starts=None) -> Dict[Position, Dict[tuple, int]]:
    """Coded entries, per position, of the sum of coeff times the
    closed-form product of each word in ``terms``, (monomial, coefficient)
    pairs: each coefficient is merged straight into the word's entries from
    ``_entry_keys``, keyed by the sorted letters; a cancelled key stays, at
    0, until the entries are wrapped.  ``starts`` keeps only its rows.
    """
    acc: Dict[Position, Dict[tuple, int]] = {}
    for mono, coeff in terms:
        for start, (end, letters) in _entry_keys(grading, mono.vars, starts).items():
            letters.sort()
            key = tuple(letters)
            cell = acc.setdefault((start, end), {})
            cell[key] = cell.get(key, 0) + coeff
    return acc


def _decoded_walk(grading: ElementaryGrading, terms: Iterable[Tuple[Monomial, int]]) -> PolyMatrix:
    """``_walk_words`` from every start row, each surviving key decoded as
    it is wrapped."""
    return PolyMatrix(grading.n, {
        pos: SparsePoly({_decode_key(grading, key): c for key, c in cell.items() if c})
        for pos, cell in _walk_words(grading, terms).items()
    })


def monomial_product(grading: ElementaryGrading, m: Monomial) -> PolyMatrix:
    """Closed-form product of generic matrices along the letters of ``m``.

    For each surviving row walk k the product carries a single term
    y[h_1,i_1,row_1] * ... * y[h_q,i_q,row_q] at position (k, final row).
    The empty word gives the identity matrix.
    """
    return _decoded_walk(grading, ((m, 1),))


def evaluate(f: Polynomial, grading: ElementaryGrading) -> PolyMatrix:
    """Generic evaluation of a polynomial under the canonical assignment.

    Each term is walked once, from the rows admitting its first letter, and
    its coefficient is merged straight into the entries it reaches; term
    order cannot affect the outcome.  A term costs O(surviving rows *
    length), with no n-by-n work per term.
    """
    return _decoded_walk(grading, f.terms.items())


def _require_zero_constant(f: Polynomial) -> None:
    if f.constant_term != 0:
        raise GradingError("centrality requires a zero constant term")


def _decisive_rows(f: Polynomial, grading: ElementaryGrading) -> PolyMatrix:
    """The coded generic evaluation of f, or its row 1 alone on a transitive
    grading: the automorphism carrying row 1 to row k moves entry (1, j) to
    (k, pi_k(j)), so row 1 holds the least nonzero cell if there is one."""
    cells = _walk_words(grading, f.terms.items(), (1,) if grading._transitive else None)
    return PolyMatrix(grading.n, {pos: SparsePoly(cell) for pos, cell in cells.items()})


def _relabelled(entry: SparsePoly, pi: Dict[int, int], stride: int) -> SparsePoly:
    """A coded entry with each row r read as pi[r]: x becomes x - r + pi[r]
    for r = x mod stride."""
    shift = [0] + [pi[r] - r for r in range(1, stride)]
    return SparsePoly({tuple(sorted(x + shift[x % stride] for x in key)): c for key, c in entry.terms.items()})


def _row_one_nonscalar_position(value: PolyMatrix, grading: ElementaryGrading) -> Optional[Position]:
    """``_nonscalar_position`` of the whole coded evaluation, on a transitive
    grading from its row 1 alone: an off-diagonal cell anywhere puts one in
    row 1, and entry (k, k) is the (1, 1) entry relabelled by pi_k.

    The pi_k form a group acting regularly on the rows (pi_k carries row 1
    to row k), and the relabellings that keep the (1, 1) entry form a
    subgroup, so the entry is checked against a generating set alone: pi_k
    for each k outside the orbit of row 1 under the generators so far.  Only
    when a generator moves it are the pi_k tried in order, and the first
    differing entry is stored into ``value``.
    """
    if not grading._transitive:
        return value._nonscalar_position()
    off = [pos for pos in value.cells if pos[0] != pos[1]]
    first = value.cells.get((1, 1))
    if off or first is None:  # a zero (1, 1) entry relabels to a zero diagonal
        return min(off, default=None)
    n = grading.n
    translation = functools.partial(grading.structure.row_translation, grading.row_grades)
    generators = []
    orbit = {1}
    for k in range(2, n + 1):
        if k in orbit:
            continue
        generators.append(translation(k))
        frontier = list(orbit)
        while frontier:
            r = frontier.pop()
            for pi in generators:
                if pi[r] not in orbit:
                    orbit.add(pi[r])
                    frontier.append(pi[r])
    if all(_relabelled(first, pi, n + 1) == first for pi in generators):
        return None
    for k in range(2, n + 1):
        entry = _relabelled(first, translation(k), n + 1)
        if entry != first:
            value.cells[k, k] = entry
            return (k, k)
    raise RuntimeError("a generator moved the (1, 1) entry, but no pi_k does")


def is_identity(f: Polynomial, grading: ElementaryGrading) -> bool:
    """Whether f vanishes under every grade-respecting substitution."""
    return _decisive_rows(f, grading).is_zero


def is_central(f: Polynomial, grading: ElementaryGrading) -> bool:
    """Whether every grade-respecting evaluation of f is a scalar matrix.

    Requires a zero constant term so that f vanishes on the zero assignment.
    """
    return centrality_witness(f, grading)["kind"] == "verified"


def entry_match(m1: Monomial, m2: Monomial, grading: ElementaryGrading) -> Optional[Tuple[int, int]]:
    """First position (row-major, 1-based) where both generic evaluations
    carry the identical nonzero entry, or None.  A word's product has at most
    one entry per start row, so the rows are tried in ascending order and the
    first whose walks reach the same end row with the same sorted letters
    wins."""
    for k in range(1, grading.n + 1):
        hit = _entry_keys(grading, m1.vars, (k,)).get(k)
        if hit is None:
            continue
        other = _entry_keys(grading, m2.vars, (k,)).get(k)
        if other is not None and hit[0] == other[0] and sorted(hit[1]) == sorted(other[1]):
            return k, hit[0]
    return None


def _entry_report(kind: str, value: PolyMatrix, i: int, j: int, grading: ElementaryGrading) -> dict:
    """A witness for the coded evaluation ``value``: its one printed entry is
    decoded."""
    return {"kind": kind, "position": [i, j], "entry": _decode(grading, value.entry(i, j)).text(grading)}


def identity_witness(f: Polynomial, grading: ElementaryGrading) -> dict:
    """Verdict report for the identity check: verified, or a nonzero entry."""
    value = _decisive_rows(f, grading)
    if value.is_zero:
        return {"kind": "verified"}
    return _entry_report("nonzero_entry", value, *min(value.cells), grading)


def centrality_witness(f: Polynomial, grading: ElementaryGrading) -> dict:
    """Verdict report for the centrality check.

    Reports the first offending off-diagonal entry, or the first diagonal
    entry differing from the (1,1) entry, or a verified verdict.
    """
    _require_zero_constant(f)
    value = _decisive_rows(f, grading)
    pos = _row_one_nonscalar_position(value, grading)
    if pos is None:
        return {"kind": "verified"}
    i, j = pos
    if i != j:
        return _entry_report("offdiag", value, i, j, grading)
    report = _entry_report("diag_mismatch", value, i, i, grading)
    report["reference_position"] = [1, 1]
    report["reference_entry"] = _decode(grading, value.entry(1, 1)).text(grading)
    return report
