"""Differential check of the per-kind grading structures against the kind
dispatch they replaced.

``ReferenceStructure``, ``ReferenceGrading``, ``reference_apply_rule``,
``reference_applicable_rewrites`` and ``reference_classify`` are the earlier
code, kept verbatim apart from their names: one structure class that
branched on a kind string in every member, an elementary grading that
branched on it for the unit degrees and row maps, a rewrite step that wrote
each rule's precondition once per kind, the suites' search for legal
rewrite windows, which tried every window under ``try/except`` (it calls
``reference_apply_rule`` where it called ``apply_rule``), and a
classification with a separate support-closure pass for the positional kind.
``_support_closed`` is the support-closure test that followed them, kept
verbatim: it multiplies out the running product of every subword.  The
current code must agree with them on every grading kind.  The library's
walks over row maps, ``row_walk`` and ``genericmodel._entry_keys``, are
compared with ``oracles.unit_walks``, which reads the unit degrees instead.
"""

import itertools
import random
from typing import Dict, Iterable, Optional, Sequence, Tuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gradedpi.freealg import Monomial, MonomialClass, TwinBlocks, Var, classify
from gradedpi.grading import (
    FINITE_GROUP,
    INTEGERS,
    MATRIX_UNITS,
    MU_ZERO,
    CyclicGroup,
    ElementaryGrading,
    Grade,
    GradingError,
    GradingStructure,
    IntegerGroup,
    MatrixUnitSemigroup,
    TableGroup,
    _check_matrix_size,
    parse_grading_spec,
)
from gradedpi.genericmodel import _entry_keys
from gradedpi.oracles import unit_walks
from gradedpi.rewrite import (
    KILL_EMPTY_SUPPORT,
    MU_KILL,
    MU_REVERSE,
    MU_SWAP,
    REVERSE_CONJUGATE,
    SWAP_NEUTRAL,
    RuleError,
    _rewrite_windows,
    _rule_names,
    apply_rule,
)

from conftest import klein_table, permutation_group_table

_GROUP_RULES = {SWAP_NEUTRAL, REVERSE_CONJUGATE, KILL_EMPTY_SUPPORT}
_MU_RULES = {MU_SWAP, MU_REVERSE, MU_KILL}


class ReferenceStructure:
    """The degree structure: a finite group, the integers, or matrix positions.

    Finite-group grades are 0-based indices into the carrier, so they stay
    cheap and hashable; names are kept for parsing and printing only.  Integer
    grades are plain ints under addition.  Matrix-position grades are 1-based
    (row, column) pairs, with ``MU_ZERO`` as the absorbing zero; this kind has
    neither an identity element nor inverses and refuses to provide them.
    """

    def __init__(self, kind: str, *, names=None, table=None, size=None, cyclic=False):
        self.kind = kind
        self.is_cyclic = cyclic
        if kind == FINITE_GROUP:
            if not names:
                raise GradingError("a finite group needs a non-empty carrier")
            self.names = tuple(str(x) for x in names)
            self.order = len(self.names)
            if cyclic:
                self.table = self._residue_table(table)
                # residues by construction: 0 is the identity, -g the inverse
                self._identity = 0
                self._inverse = tuple((-g) % self.order for g in range(self.order))
            else:
                self.table = tuple(tuple(row) for row in table)
                self._identity, self._inverse = self._check_group()
        elif kind == INTEGERS:
            pass
        elif kind == MATRIX_UNITS:
            if size is None or size < 1:
                raise GradingError("matrix-unit semigroup needs a positive size")
            self.size = size
        else:
            raise GradingError(f"unknown grading kind: {kind!r}")

    # -- construction checks -------------------------------------------------

    def _residue_table(self, table):
        """The addition table of the residues modulo the order.  A table
        passed for a cyclic structure must be exactly that table."""
        m = self.order
        built = tuple(tuple((a + b) % m for b in range(m)) for a in range(m))
        if table is not None and tuple(tuple(row) for row in table) != built:
            raise GradingError("a cyclic structure needs the residue addition table")
        return built

    def _check_group(self):
        m = self.order
        if len(self.table) != m or any(len(row) != m for row in self.table):
            raise GradingError("Cayley table must be square and match the carrier")
        for row in self.table:
            for v in row:
                if not isinstance(v, int) or not 0 <= v < m:
                    raise GradingError(f"Cayley table entry out of range: {v!r}")
        t = self.table
        for a in range(m):
            for b in range(m):
                for c in range(m):
                    if t[t[a][b]][c] != t[a][t[b][c]]:
                        raise GradingError(
                            f"multiplication is not associative at ({a},{b},{c})"
                        )
        identity = None
        for e in range(m):
            if all(t[e][g] == g and t[g][e] == g for g in range(m)):
                identity = e
                break
        if identity is None:
            raise GradingError("Cayley table has no identity element")
        inverse = [None] * m
        for g in range(m):
            for h in range(m):
                if t[g][h] == identity and t[h][g] == identity:
                    inverse[g] = h
                    break
            if inverse[g] is None:
                raise GradingError(f"element {self.names[g]!r} has no inverse")
        return identity, tuple(inverse)

    # -- arithmetic -----------------------------------------------------------

    def mul(self, a: Grade, b: Grade) -> Grade:
        if self.kind == FINITE_GROUP:
            return self.table[a][b]
        if self.kind == INTEGERS:
            return a + b
        if a == MU_ZERO or b == MU_ZERO:
            return MU_ZERO
        return (a[0], b[1]) if a[1] == b[0] else MU_ZERO

    def product(self, grades: Iterable[Grade]) -> Grade:
        """Ordered product of grades; the empty product is the identity.

        The matrix-position kind has no identity, so an empty product there
        is an error rather than a value.
        """
        it = iter(grades)
        if self.kind == MATRIX_UNITS:
            try:
                acc = next(it)
            except StopIteration:
                raise GradingError("empty product is undefined without an identity")
        else:
            acc = self.identity
        for g in it:
            acc = self.mul(acc, g)
        return acc

    @property
    def identity(self) -> Grade:
        if self.kind == FINITE_GROUP:
            return self._identity
        if self.kind == INTEGERS:
            return 0
        raise GradingError("the matrix-position semigroup has no identity element")

    def inverse(self, g: Grade) -> Grade:
        if self.kind == FINITE_GROUP:
            return self._inverse[g]
        if self.kind == INTEGERS:
            return -g
        raise GradingError("the matrix-position semigroup has no inverses")

    @property
    def has_identity(self) -> bool:
        return self.kind != MATRIX_UNITS

    # -- membership and formatting ---------------------------------------------

    def contains(self, g: Grade) -> bool:
        if self.kind == FINITE_GROUP:
            return isinstance(g, int) and 0 <= g < self.order
        if self.kind == INTEGERS:
            return isinstance(g, int)
        if g == MU_ZERO:
            return True
        return (
            isinstance(g, tuple)
            and len(g) == 2
            and all(isinstance(x, int) and 1 <= x <= self.size for x in g)
        )

    def require(self, g: Grade) -> Grade:
        if not self.contains(g):
            raise GradingError(f"{g!r} is not a grade of this structure")
        return g

    def elements(self) -> Tuple[Grade, ...]:
        """All grades, for the finite kinds only."""
        if self.kind == FINITE_GROUP:
            return tuple(range(self.order))
        if self.kind == MATRIX_UNITS:
            pairs = [
                (i, j)
                for i in range(1, self.size + 1)
                for j in range(1, self.size + 1)
            ]
            return (MU_ZERO, *pairs)
        raise GradingError("the integer grading has infinitely many grades")

    def grade_from_int(self, value: int) -> Grade:
        """Map an integer literal to a grade, per the text grammar.

        Cyclic groups reduce modulo the order, general finite groups treat the
        value as a carrier index, the integer kind takes it verbatim, and the
        matrix-position kind accepts only 0 (the absorbing zero).
        """
        if self.kind == INTEGERS:
            return value
        if self.kind == FINITE_GROUP:
            if self.is_cyclic:
                return value % self.order
            if 0 <= value < self.order:
                return value
            raise GradingError(f"grade index {value} outside the carrier")
        if value == 0:
            return MU_ZERO
        raise GradingError("matrix-position grades are pairs (i,j) or 0")

    def format_grade(self, g: Grade) -> str:
        self.require(g)
        if self.kind == MATRIX_UNITS:
            return "0" if g == MU_ZERO else f"({g[0]},{g[1]})"
        return str(g)

    def __repr__(self):
        if self.kind == FINITE_GROUP:
            return f"ReferenceStructure(finite-group, order={self.order})"
        if self.kind == MATRIX_UNITS:
            return f"ReferenceStructure(matrix-units, size={self.size})"
        return "ReferenceStructure(integers)"


def reference_cyclic_group(n: int) -> ReferenceStructure:
    """Additive group of residues modulo n, with the residues as indices.

    The table is built by construction, so it needs no O(n^3) group check.
    """
    if n < 1:
        raise GradingError("cyclic group order must be positive")
    return ReferenceStructure(FINITE_GROUP, names=[str(i) for i in range(n)], cyclic=True)


def reference_integers() -> ReferenceStructure:
    return ReferenceStructure(INTEGERS)


def reference_matrix_unit_semigroup(n: int) -> ReferenceStructure:
    return ReferenceStructure(MATRIX_UNITS, size=n)


def reference_group_from_table(names: Sequence[str], table: Sequence[Sequence[int]]) -> ReferenceStructure:
    return ReferenceStructure(FINITE_GROUP, names=names, table=table)


class ReferenceGrading:
    """Grading of the n-by-n matrix algebra induced by distinct row grades.

    Instances are immutable value objects; all derived data (support, row
    maps) is computed from the inducing tuple.  The row map of each grade is
    computed once per grading and shared, read-only, by every later walk.
    The diagonal is exactly the neutral component for group kinds because
    the row grades are distinct.
    """

    def __init__(self, structure: ReferenceStructure, row_grades: Sequence[Grade], spec: Optional[str] = None):
        row_grades = tuple(row_grades)
        if not row_grades:
            raise GradingError("an elementary grading needs at least one row grade")
        _check_matrix_size(len(row_grades))
        for g in row_grades:
            structure.require(g)
        if len(set(row_grades)) != len(row_grades):
            raise GradingError("the inducing tuple must have pairwise distinct entries")
        if structure.kind == MATRIX_UNITS:
            expected = tuple((i, i) for i in range(1, structure.size + 1))
            if row_grades != expected:
                raise GradingError(
                    "the matrix-position grading is fixed: row grades must be "
                    "the diagonal positions (1,1), ..., (n,n)"
                )
        self.structure = structure
        self.row_grades = row_grades
        self.n = len(row_grades)
        self.spec = spec
        # row map per grade, filled on first use; it lives and dies with this
        # grading, which never changes after construction
        self._targets: Dict[Grade, Dict[int, int]] = {}
        if structure.kind != MATRIX_UNITS:
            self._row_of_grade = {g: i + 1 for i, g in enumerate(row_grades)}
        else:
            self._row_of_grade = {}
        self._support = frozenset(
            self.unit_degree(i, j)
            for i in range(1, self.n + 1)
            for j in range(1, self.n + 1)
        )

    def unit_degree(self, i: int, j: int) -> Grade:
        """Degree of the matrix unit at row i, column j (both 1-based)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise GradingError(f"matrix unit position ({i},{j}) out of range")
        if self.structure.kind == MATRIX_UNITS:
            return (i, j)
        st = self.structure
        return st.mul(st.inverse(self.row_grades[i - 1]), self.row_grades[j - 1])

    def support(self) -> frozenset:
        """All degrees carried by some matrix unit."""
        return self._support

    @property
    def neutral(self) -> Optional[Grade]:
        return self.structure.identity if self.structure.has_identity else None

    def _target(self, h: Grade) -> Dict[int, int]:
        """The row map of degree h: row k to the column its unit of degree h
        forces.  Computed once per grade and cached on this grading; hot
        loops read the dict itself, so callers must not change it."""
        target = self._targets.get(h)
        if target is not None:
            return target
        self.structure.require(h)
        target = {}
        if self.structure.kind == MATRIX_UNITS:
            if h != MU_ZERO and 1 <= h[0] <= self.n and 1 <= h[1] <= self.n:
                target[h[0]] = h[1]
        else:
            mul = self.structure.mul
            for k in range(1, self.n + 1):
                j = self._row_of_grade.get(mul(self.row_grades[k - 1], h))
                if j is not None:
                    target[k] = j
        self._targets[h] = target
        return target


# -- rewrite rules ------------------------------------------------------------


def _check_rule_kind(rule: str, grading: ElementaryGrading):
    is_mu = grading.structure.kind == MATRIX_UNITS
    if rule in _MU_RULES and not is_mu:
        raise RuleError(f"rule {rule!r} needs a matrix-position grading")
    if rule in _GROUP_RULES and is_mu:
        raise RuleError(f"rule {rule!r} needs a group-kind grading")
    if rule not in _GROUP_RULES | _MU_RULES:
        raise RuleError(f"unknown rule {rule!r}")


def _block_degree(m: Monomial, grading: ElementaryGrading, a: int, b: int):
    return Monomial(m.vars[a - 1 : b]).degree(grading)


def _is_diagonal(grade) -> bool:
    return grade != MU_ZERO and grade[0] == grade[1]


def reference_apply_rule(m: Monomial, rule: str, window: Tuple[int, ...], grading: ElementaryGrading) -> Optional[Monomial]:
    """Apply one rule at a window; returns the new monomial, or None for a kill."""
    _check_rule_kind(rule, grading)
    l = len(m)
    if rule in (SWAP_NEUTRAL, MU_SWAP):
        if len(window) != 3:
            raise RuleError("swap rules take a window (p, q, r)")
        p, q, r = window
        if not (1 <= p <= q < r <= l):
            raise RuleError(f"bad swap window {window} for length {l}")
        da = _block_degree(m, grading, p, q)
        db = _block_degree(m, grading, q + 1, r)
        if rule == SWAP_NEUTRAL:
            e = grading.structure.identity
            if da != e or db != e:
                raise RuleError("commute-e needs two adjacent neutral blocks")
        else:
            if not (_is_diagonal(da) and _is_diagonal(db)):
                raise RuleError("mu-commute needs two adjacent diagonal-degree blocks")
        a = m.vars[p - 1 : q]
        b = m.vars[q : r]
        return Monomial(m.vars[: p - 1] + b + a + m.vars[r:])
    if rule in (REVERSE_CONJUGATE, MU_REVERSE):
        if len(window) != 4:
            raise RuleError("reversal rules take a window (p, q, r, s)")
        p, q, r, s = window
        if not (1 <= p <= q < r < s <= l):
            raise RuleError(f"bad reversal window {window} for length {l}")
        da = _block_degree(m, grading, p, q)
        db = _block_degree(m, grading, q + 1, r)
        dc = _block_degree(m, grading, r + 1, s)
        if rule == REVERSE_CONJUGATE:
            st = grading.structure
            if da != dc or da == st.identity or db != st.inverse(da):
                raise RuleError(
                    "reverse-conjugate needs deg(a) = deg(c) = deg(b)^-1 != e"
                )
        else:
            if (
                da != dc
                or da == MU_ZERO
                or _is_diagonal(da)
                or db != (da[1], da[0])
            ):
                raise RuleError(
                    "mu-reverse needs off-diagonal deg(a) = deg(c) with deg(b) transposed"
                )
        a = m.vars[p - 1 : q]
        b = m.vars[q : r]
        c = m.vars[r : s]
        return Monomial(m.vars[: p - 1] + c + b + a + m.vars[s:])
    # kill rules
    if len(window) != 1:
        raise RuleError("kill rules take a window (p,)")
    (p,) = window
    if not (1 <= p <= l):
        raise RuleError(f"bad kill window {window} for length {l}")
    grade = m.vars[p - 1].grade
    if rule == KILL_EMPTY_SUPPORT:
        if grading._target(grade):
            raise RuleError("kill-empty-support needs a degree with no admissible row")
    else:
        if grade != MU_ZERO:
            raise RuleError("mu-zero applies only to zero-degree variables")
    return None


def reference_applicable_rewrites(m: Monomial, grading: ElementaryGrading):
    """All swap and reversal applications currently legal on a monomial."""
    swap_rule, rev_rule, _ = _rule_names(grading)
    l = len(m)
    found = []
    for p in range(1, l + 1):
        for q in range(p, l + 1):
            for r in range(q + 1, l + 1):
                try:
                    reference_apply_rule(m, swap_rule, (p, q, r), grading)
                    found.append((swap_rule, (p, q, r)))
                except ValueError:
                    pass
                for s in range(r + 1, l + 1):
                    try:
                        reference_apply_rule(m, rev_rule, (p, q, r, s), grading)
                        found.append((rev_rule, (p, q, r, s)))
                    except ValueError:
                        pass
    return found


# -- classification ----------------------------------------------------------


def _mu_support_closed(m: Monomial, grading: ElementaryGrading) -> bool:
    # Every position pair lies in the support, so only the absorbing zero
    # can push a subword degree outside it.
    st = grading.structure
    grades = m.h
    l = len(grades)
    for a in range(l):
        acc = grades[a]
        if acc == MU_ZERO:
            return False
        for b in range(a + 1, l):
            acc = st.mul(acc, grades[b])
            if acc == MU_ZERO:
                return False
    return True


def _support_closed(h, mul, supp) -> bool:
    # running products of every subword, O(l^2) multiplications
    for a in range(len(h)):
        acc = h[a]
        if acc not in supp:
            return False
        for b in range(a + 1, len(h)):
            acc = mul(acc, h[b])
            if acc not in supp:
                return False
    return True


def _twin_blocks(pref, h, l) -> Optional[TwinBlocks]:
    # Bucket block starts by (prefix value, degree tuple); within a bucket the
    # neutral-gap condition is automatic because all four boundary prefixes
    # coincide.  Scanning a ascending then p ascending keeps the witness
    # deterministic: minimal block width, then minimal second block.
    for a in range(1, l):
        if 2 * (a + 1) > l:
            break
        first: Dict[tuple, int] = {}
        for p in range(1, l - a + 1):
            if pref[p - 1] != pref[p + a]:
                continue
            key = (pref[p - 1], h[p - 1 : p + a])
            prev = first.get(key)
            if prev is not None and prev <= p - a - 1:
                return TwinBlocks(a, prev, p)
            if prev is None:
                first[key] = p
    return None


def reference_classify(m: Monomial, grading: ElementaryGrading) -> MonomialClass:
    """Subword-degree classification of a monomial.

    ``support_closed``: every nonempty contiguous subword has degree inside
    the support.  ``has_proper_neutral_subword``: some proper nonempty subword
    has neutral degree.  ``twin_blocks``: a witness of two disjoint equal
    neutral blocks with a neutral gap, when one exists.
    """
    l = len(m)
    if grading.structure.kind == MATRIX_UNITS:
        return MonomialClass(_mu_support_closed(m, grading), None, False)
    st = grading.structure
    supp = grading.support()
    h = m.h
    pref = [st.identity]
    for g in h:
        pref.append(st.mul(pref[-1], g))
    inv = [st.inverse(p) for p in pref]

    support_closed = True
    for a in range(l + 1):
        for b in range(a + 1, l + 1):
            if st.mul(inv[a], pref[b]) not in supp:
                support_closed = False
                break
        if not support_closed:
            break

    positions: Dict[Grade, int] = {}
    dup_pairs = 0
    for p in pref:
        seen = positions.get(p, 0)
        dup_pairs += seen
        positions[p] = seen + 1
    if l >= 1 and pref[0] == pref[l]:
        dup_pairs -= 1  # the full word is not a proper subword
    has_proper = dup_pairs > 0

    return MonomialClass(support_closed, _twin_blocks(pref, h, l), has_proper)


# -- the differential properties ------------------------------------------------


def _grading_pairs():
    """(reference grading, current grading, grade pool) per grading kind; the
    pool of z:3 reaches past its support on both sides."""
    s3_names, s3_table = permutation_group_table(3)
    k_names, k_table = klein_table()
    built = {
        "zn:3": (reference_cyclic_group(3), CyclicGroup(3), (1, 2, 0)),
        "zn:5": (reference_cyclic_group(5), CyclicGroup(5), (1, 2, 3, 4, 0)),
        "z:3": (reference_integers(), IntegerGroup(), (1, 2, 3)),
        "mu:3": (reference_matrix_unit_semigroup(3), MatrixUnitSemigroup(3), ((1, 1), (2, 2), (3, 3))),
        "S3": (reference_group_from_table(s3_names, s3_table), TableGroup(s3_names, s3_table), (0, 1, 3)),
        "Klein": (reference_group_from_table(k_names, k_table), TableGroup(k_names, k_table), (0, 1, 2)),
    }
    out = {}
    for name, (old_st, new_st, rows) in built.items():
        pool = tuple(range(-3, 4)) if name == "z:3" else old_st.elements()
        out[name] = (ReferenceGrading(old_st, rows), ElementaryGrading(new_st, rows), pool)
    return out


PAIRS = _grading_pairs()
NAMES = sorted(PAIRS)
RULES = sorted(_GROUP_RULES | _MU_RULES) + ["no-such-rule"]

#: values that are grades of some kinds and not of others, or of none
JUNK = (-2, -1, 0, 1, 4, 6, 9, (0, 0), (1, 2), (2, 2), (3, 1), (4, 1), (0, 3), (1,), (1, 2, 3), "x", None)


def _outcome(f, *args):
    """A call's value, or the type and text of the grading error it raised."""
    try:
        return ("value", f(*args))
    except GradingError as exc:
        return (type(exc).__name__, str(exc))


def _rule_outcome(f, *args):
    """A rewrite's result, or RuleError when the rule refused the window;
    the refusal texts are free to differ."""
    try:
        return f(*args)
    except RuleError:
        return RuleError


@pytest.mark.parametrize("name", NAMES)
def test_structure_members_match_reference(name):
    old, new, pool = PAIRS[name]
    so, sn = old.structure, new.structure
    assert sn.kind == so.kind and sn.has_identity == so.has_identity
    assert sn.is_cyclic == so.is_cyclic
    assert _outcome(lambda: sn.identity) == _outcome(lambda: so.identity)
    assert _outcome(sn.elements) == _outcome(so.elements)
    for g in pool + JUNK:
        assert sn.contains(g) == so.contains(g), g
        assert _outcome(sn.format_grade, g) == _outcome(so.format_grade, g), g
    for v in range(-7, 8):
        assert _outcome(sn.grade_from_int, v) == _outcome(so.grade_from_int, v), v
    for a in pool:
        assert _outcome(sn.inverse, a) == _outcome(so.inverse, a), a
        for b in pool:
            assert sn.mul(a, b) == so.mul(a, b), (a, b)


@pytest.mark.parametrize("name", NAMES)
def test_grading_data_matches_reference(name):
    old, new, pool = PAIRS[name]
    assert new.support() == old.support()
    assert new.neutral == old.neutral
    for i, j in itertools.product(range(0, new.n + 2), repeat=2):
        assert _outcome(new.unit_degree, i, j) == _outcome(old.unit_degree, i, j), (i, j)
    for h in pool + JUNK:
        # equal in values and in key order: start rows iterate the map
        got = _outcome(lambda: list(new._target(h).items()))
        assert got == _outcome(lambda: list(old._target(h).items())), h


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_products_match_reference(name, data):
    old, new, pool = PAIRS[name]
    grades = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    assert _outcome(new.structure.product, grades) == _outcome(old.structure.product, grades)


def _walk_cases():
    """(reference grading, current grading, degree pool) per grading of the
    row-walk property: the pool is the support, plus one grade of the
    structure outside it where the kind has one (z:3, mu:3 and S3 on three
    rows; zn:n and Klein (e, a, b) have full support)."""
    graded = {name: PAIRS[name][:2] for name in ("zn:3", "z:3", "mu:3", "S3", "Klein")}
    rows = (1, 2, 3, 0)
    graded["zn:4"] = (ReferenceGrading(reference_cyclic_group(4), rows), ElementaryGrading(CyclicGroup(4), rows))
    out = {}
    for name, (old, new) in graded.items():
        supp = sorted(new.support(), key=repr)
        if new.structure.kind == INTEGERS:
            outside = [max(supp) + 1]
        else:
            outside = [g for g in new.structure.elements() if g not in new.support()][:1]
        out[name] = (old, new, tuple(supp + outside))
    return out


WALK_CASES = _walk_cases()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(data=st.data())
def test_row_walks_match_the_reference_row_walk(data):
    old, new, pool = WALK_CASES[data.draw(st.sampled_from(sorted(WALK_CASES)))]
    hs = data.draw(st.lists(st.sampled_from(pool), max_size=6))
    want = unit_walks(new, hs)
    assert new.row_walk(hs) == tuple(want)
    # each start row's path: the rows its letters are read at, then the end row
    walks = _entry_keys(new, [Var(h, 1) for h in hs])
    assert {k: tuple(x % (new.n + 1) for x in letters) + (end,) for k, (end, letters) in walks.items()} == want
    for h in pool + JUNK:
        got = _outcome(lambda: bool(new._target(h)))
        assert got == _outcome(lambda: bool(old._target(h))), h
    # a letter outside the structure is refused with the reference
    # structure's text; some junk values are grades of this kind
    junk = data.draw(st.sampled_from(JUNK))
    bad = hs + [junk]
    refusal = _outcome(old.structure.require, junk)
    if refusal[0] == "value":
        assert new.row_walk(bad) == tuple(unit_walks(new, bad))
    else:
        assert _outcome(new.row_walk, bad) == _outcome(unit_walks, new, bad) == refusal


def _words(data, old, pool, max_size):
    """A random word: mostly a walk through matrix units of the reference
    grading, so subwords keep nonzero degrees and the rule preconditions
    hold often, with letters of any pool grade mixed in."""
    length = data.draw(st.integers(0, max_size))
    row = data.draw(st.integers(1, old.n))
    letters = []
    for _ in range(length):
        nxt = data.draw(st.integers(1, old.n))
        if data.draw(st.integers(0, 6)) == 0:
            grade = data.draw(st.sampled_from(pool))
        else:
            grade = old.unit_degree(row, nxt)
            row = nxt
        letters.append(Var(grade, data.draw(st.integers(1, 2))))
    return Monomial(letters)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_apply_rule_matches_reference(name, data):
    # every rule of the grading's kind at every window of its shape
    old, new, pool = PAIRS[name]
    m = _words(data, old, pool, 8)
    rules = _MU_RULES if old.structure.kind == MATRIX_UNITS else _GROUP_RULES
    for rule in sorted(rules):
        size = {SWAP_NEUTRAL: 3, MU_SWAP: 3, REVERSE_CONJUGATE: 4, MU_REVERSE: 4}.get(rule, 1)
        for window in itertools.combinations_with_replacement(range(1, len(m) + 1), size):
            got = _rule_outcome(apply_rule, m, rule, window, new)
            assert got == _rule_outcome(reference_apply_rule, m, rule, window, old), (rule, window)


@pytest.mark.parametrize("name", NAMES)
def test_apply_rule_matches_reference_on_every_short_word(name):
    # every word of three letters over the pool, every rule, every window
    old, new, pool = PAIRS[name]
    windows = [(1,), (2,), (3,), (1, 1, 2), (1, 2, 3), (2, 2, 3), (1, 1, 3), (1, 1, 2, 3)]
    for grades in itertools.product(pool, repeat=3):
        m = Monomial(Var(g, 1) for g in grades)
        for rule in RULES:
            for window in windows:
                got = _rule_outcome(apply_rule, m, rule, window, new)
                assert got == _rule_outcome(reference_apply_rule, m, rule, window, old), (grades, rule, window)


@pytest.mark.parametrize("name", NAMES)
def test_rewrite_windows_match_reference_on_every_short_word(name):
    # the same (rule, window) pairs in the same order, on every word of
    # three letters over the pool
    old, new, pool = PAIRS[name]
    for grades in itertools.product(pool, repeat=3):
        m = Monomial(Var(g, 1) for g in grades)
        assert list(_rewrite_windows(m, new)) == reference_applicable_rewrites(m, old), grades


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_rewrite_windows_match_reference(name, data):
    old, new, pool = PAIRS[name]
    m = _words(data, old, pool, 8)
    assert list(_rewrite_windows(m, new)) == reference_applicable_rewrites(m, old)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_classify_matches_reference(name, data):
    old, new, pool = PAIRS[name]
    m = _words(data, old, pool, 14)
    assert classify(m, new) == reference_classify(m, old)


def _long_word(name, seed, old, pool, strays):
    """A word of 100 to 800 letters by the recipe of ``_words``, built from
    one seed: drawing every letter through hypothesis would cost more than
    the classification under test.  The grading's name is part of the seed,
    since every grading draws the same seeds.  Stray letters only if
    ``strays``."""
    rng = random.Random(f"{name}:{seed}")
    length = rng.randint(100, 800)
    row = rng.randint(1, old.n)
    letters = []
    for _ in range(length):
        nxt = rng.randint(1, old.n)
        if strays and rng.randint(0, 6) == 0:
            grade = rng.choice(pool)
        else:
            grade = old.unit_degree(row, nxt)
            row = nxt
        letters.append(Var(grade, rng.randint(1, 2)))
    return Monomial(letters)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**32 - 1), strays=st.booleans())
def test_classify_matches_reference_on_long_words(name, seed, strays):
    # prefix values repeat many times over; a long word with stray letters
    # is rarely support-closed, so about half the words are plain walks
    old, new, pool = PAIRS[name]
    m = _long_word(name, seed, old, pool, strays)
    cls = classify(m, new)
    assert cls == reference_classify(m, old)
    assert cls.support_closed == _support_closed(m.h, new.structure.mul, new.support())


# -- supports and transitivity from the structure --------------------------------


def reference_support(structure, row_grades) -> frozenset:
    """The n^2 support pass ``ElementaryGrading.__init__`` ran before the
    structures gave supports, kept verbatim apart from its free names."""
    n = len(row_grades)
    return frozenset(
        structure.unit_degree(row_grades, i, j)
        for i in range(1, n + 1)
        for j in range(1, n + 1)
    )


def reference_describe(grading: ElementaryGrading) -> str:
    if grading.spec:
        return grading.spec
    grades = ",".join(grading.structure.format_grade(g) for g in grading.row_grades)
    return f"{grading.structure.kind}[{grades}]"


def _support_cases():
    """(name, grading, transitive): spec gradings, hand-built tuples, and the
    group tuples that are and are not cosets of a subgroup."""
    s3, klein = TableGroup(*permutation_group_table(3)), TableGroup(*klein_table())
    cases = [(f"zn:{n}", parse_grading_spec(f"zn:{n}"), True) for n in (*range(1, 10), 128)]
    cases += [(f"z:{n}", parse_grading_spec(f"z:{n}"), False) for n in range(1, 10)]
    cases += [(f"mu:{n}", parse_grading_spec(f"mu:{n}"), False) for n in range(1, 6)]
    cases += [
        ("zn:6 permuted", ElementaryGrading(CyclicGroup(6), (3, 1, 5, 0, 2, 4)), True),
        ("zn:12 subgroup coset", ElementaryGrading(CyclicGroup(12), (5, 1, 9)), True),
        ("zn:7 subset", ElementaryGrading(CyclicGroup(7), (0, 1, 3)), False),
        ("z non-consecutive", ElementaryGrading(IntegerGroup(), (0, 2, 7)), False),
        ("z consecutive permuted", ElementaryGrading(IntegerGroup(), (-1, 1, 0, 2)), False),
        ("S3 (0,1,3)", ElementaryGrading(s3, (0, 1, 3)), False),
        ("S3 A3", ElementaryGrading(s3, (3, 0, 4)), True),
        ("S3 odd coset", ElementaryGrading(s3, (5, 1, 2)), True),
        ("S3 whole", ElementaryGrading(s3, (2, 0, 5, 1, 4, 3)), True),
        ("Klein (e,a)", ElementaryGrading(klein, (0, 1)), True),
        ("Klein (e,a,b)", ElementaryGrading(klein, (0, 1, 2)), False),
        ("Klein (b,c)", ElementaryGrading(klein, (2, 3)), True),
    ]
    return {name: (grading, transitive) for name, grading, transitive in cases}


SUPPORT_CASES = _support_cases()


@pytest.mark.parametrize("name", sorted(SUPPORT_CASES))
def test_support_matches_the_n2_pass(name):
    grading, _ = SUPPORT_CASES[name]
    assert grading.support() == reference_support(grading.structure, grading.row_grades)
    assert grading.describe() == reference_describe(grading)


def _translations_keep_unit_degrees(grading: ElementaryGrading) -> bool:
    """Brute force: for every row k some permutation of the rows sends row 1
    to row k and keeps the degree of every matrix unit."""
    n = grading.n
    degree = {(i, j): grading.unit_degree(i, j) for i in range(1, n + 1) for j in range(1, n + 1)}
    perms = itertools.permutations(range(1, n + 1))
    keep = [p for p in perms if all(degree[p[i - 1], p[j - 1]] == d for (i, j), d in degree.items())]
    return {p[0] for p in keep} == set(range(1, n + 1))


@pytest.mark.parametrize("name", sorted(SUPPORT_CASES))
def test_transitivity_from_the_structure(name):
    grading, transitive = SUPPORT_CASES[name]
    assert grading._transitive is transitive
    if grading.n <= 6:
        assert _translations_keep_unit_degrees(grading) is (transitive or grading.n == 1)
    if not transitive:
        return
    st, rows, n = grading.structure, grading.row_grades, grading.n
    for k in range(1, n + 1):
        perm = st.row_translation(rows, k)
        assert perm[1] == k and sorted(perm.values()) == list(range(1, n + 1))
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                assert grading.unit_degree(perm[i], perm[j]) == grading.unit_degree(i, j)


def test_residue_table_agrees_with_the_cyclic_group():
    """``TableGroup`` on the addition table of the residues takes the general
    n^2 passes; ``CyclicGroup`` answers from the order alone."""
    for n in range(1, 9):
        names = [str(i) for i in range(n)]
        table = TableGroup(names, [[(a + b) % n for b in range(n)] for a in range(n)])
        for rows in (tuple((i + 3) % n for i in range(n)), tuple(range(0, n, 2)), (0,)):
            by_table = ElementaryGrading(table, rows)
            cyclic = ElementaryGrading(CyclicGroup(n), rows)
            assert by_table.support() == cyclic.support() == reference_support(table, rows)
            assert by_table._transitive == cyclic._transitive, (n, rows)
            for k in range(1, len(rows) + 1) if cyclic._transitive else ():
                assert table.row_translation(rows, k) == CyclicGroup(n).row_translation(rows, k)


# -- closed-form row maps -----------------------------------------------------------


def _row_map_cases():
    """Tuples with a closed-form row map (the canonical residue tuple, and
    ascending consecutive integers), and tuples of the same kinds that must
    fall back to the generic ``GradingStructure.row_maps``."""
    closed = [f"{kind}:{n}" for kind in ("zn", "z") for n in range(1, 10)] + ["zn:128", "zp:7", "z:64"]
    closed = [(spec, parse_grading_spec(spec).structure, parse_grading_spec(spec).row_grades) for spec in closed]
    closed.append(("z shifted", IntegerGroup(), (-3, -2, -1, 0)))
    generic = [
        ("zn:6 permuted", CyclicGroup(6), (3, 1, 5, 0, 2, 4)),
        ("zn:7 from 0", CyclicGroup(7), tuple(range(7))),
        ("zn:7 subset", CyclicGroup(7), (0, 1, 3)),
        ("z non-consecutive", IntegerGroup(), (0, 2, 7)),
        ("z consecutive permuted", IntegerGroup(), (-1, 1, 0, 2)),
        ("z descending", IntegerGroup(), (3, 2, 1)),
    ]
    return closed, generic


def _grades_in_and_out(structure, n):
    return range(structure.order) if structure.is_cyclic else range(-n - 2, n + 3)


def test_closed_form_row_maps_match_the_generic_one(monkeypatch):
    closed, generic = _row_map_cases()
    generic_row_maps = GradingStructure.row_maps
    for name, structure, rows in generic:
        grading = ElementaryGrading(structure, rows)
        want = generic_row_maps(structure, rows)
        for h in _grades_in_and_out(structure, len(rows)):
            assert list(grading._target(h).items()) == list(want(h).items()), (name, h)

    def refuse(*args):
        raise AssertionError("the generic row map was used")

    monkeypatch.setattr(GradingStructure, "row_maps", refuse)
    for name, structure, rows in closed:
        grading = ElementaryGrading(structure, rows)
        want = generic_row_maps(structure, rows)
        for h in _grades_in_and_out(structure, len(rows)):
            # equal in values and in key order: start rows iterate the map
            assert list(grading._target(h).items()) == list(want(h).items()), (name, h)
