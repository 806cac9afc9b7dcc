"""Grading structures and elementary gradings of square matrix algebras.

An elementary grading assigns a degree to every matrix unit e_ij.  Degrees
come from one of four structures: the residues modulo n (``CyclicGroup``), a
finite group given by its Cayley table (``TableGroup``), the additive
integers (``IntegerGroup``), or the semigroup of matrix positions with an
absorbing zero (``MatrixUnitSemigroup``).  For group kinds the degree of e_ij
is g_i^{-1} g_j where (g_1, ..., g_n) is a tuple of pairwise distinct grades;
for the positional kind it is the pair (i, j) itself.  Either way the
diagonal units carry exactly the degrees ``is_diagonal`` accepts, and e_ji
carries ``transpose`` of the degree of e_ij.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

Grade = Union[int, Tuple[int, int]]

FINITE_GROUP = "finite-group"
INTEGERS = "integers"
MATRIX_UNITS = "matrix-unit-semigroup"

#: absorbing zero of the matrix-position semigroup
MU_ZERO: Grade = (0, 0)

#: largest matrix size n a grading accepts.  A ``mu:`` or ``group:`` grading
#: builds O(n^2) data (its support) before any polynomial is read, so larger
#: sizes are refused up front.
MAX_MATRIX_SIZE = 512

#: largest order (names in the header) of a ``group:`` Cayley table.  The
#: group check scans all m^3 triples, about 2 s at this order, so a larger
#: header is refused before any row is read.
MAX_GROUP_ORDER = 256

#: longest Cayley table file read: a header and m rows of m names at that
#: order, each name up to 15 characters plus a separator.
MAX_CAYLEY_FILE_BYTES = 16 * (MAX_GROUP_ORDER + 1) * MAX_GROUP_ORDER

#: most complete sequences ``enumerate_complete_sequences`` lists: the
#: (n-1)! residue sequences up to n = 8, or the n! integer lifts up to n = 7.
#: The count is known from n alone, so a longer list is refused before any
#: is built.
MAX_COMPLETE_SEQUENCES = 5040


class GradingError(ValueError):
    """Invalid grading structure, grade value, or grading spec string."""


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class GradingStructure:
    """The degree structure of an elementary grading: shared code and the
    group defaults of the two predicates the rewrite rules read.

    ``is_diagonal(g)`` says whether matrix units of degree g sit on the
    diagonal, and ``transpose(g)`` is the degree of the transposed units (None
    when there is none).  For a group these are ``g == identity`` and the
    inverse, because the row grades are distinct.  Subclasses supply the
    arithmetic, membership and literal grades of their kind.
    """

    kind: str  # the name ``ElementaryGrading.describe`` prints
    is_cyclic = False
    has_identity = True

    def product(self, grades: Iterable[Grade]) -> Grade:
        """Ordered product of grades; the empty product is the identity.

        A structure without an identity refuses the empty product.
        """
        # no temporary tuple: short tuples freed between full garbage
        # collections stay in CPython's free lists
        grades = iter(grades)
        for first in grades:
            return functools.reduce(self.mul, grades, first)
        if not self.has_identity:
            raise GradingError("empty product is undefined without an identity")
        return self.identity

    def require(self, g: Grade) -> Grade:
        if not self.contains(g):
            raise GradingError(f"{g!r} is not a grade of this structure")
        return g

    def format_grade(self, g: Grade) -> str:
        self.require(g)
        return str(g)

    def grade_from_pair(self, i: int, j: int) -> Grade:
        raise GradingError("pair grades are only valid under a matrix-position grading")

    def is_diagonal(self, g: Grade) -> bool:
        return g == self.identity

    def transpose(self, g: Grade) -> Optional[Grade]:
        return self.inverse(g)

    def check_row_grades(self, row_grades: Tuple[Grade, ...]) -> None:
        """Refuse an inducing tuple the structure cannot grade with."""

    def unit_degree(self, row_grades: Tuple[Grade, ...], i: int, j: int) -> Grade:
        """Degree g_i^-1 g_j of the unit e_ij (1-based) under the row grades."""
        return self.mul(self.inverse(row_grades[i - 1]), row_grades[j - 1])

    def row_maps(self, row_grades: Tuple[Grade, ...]) -> Callable[[Grade], Dict[int, int]]:
        """The row map under these row grades, as a function of the grade h:
        row k to the column j with g_k h = g_j, for the rows that have one.

        The tuple is read here, once per grading; a kind with a closed form
        for its canonical tuple returns that, equal to this one in values and
        in key order (rows ascending).
        """
        row_of = {g: k for k, g in enumerate(row_grades, 1)}
        mul = self.mul

        def target(h: Grade) -> Dict[int, int]:
            cols = ((k, row_of.get(mul(g, h))) for k, g in enumerate(row_grades, 1))
            return {k: j for k, j in cols if j is not None}

        return target

    def support(self, row_grades: Tuple[Grade, ...]) -> frozenset:
        """All degrees carried by some matrix unit: n^2 unit degrees."""
        n = len(row_grades)
        return frozenset(self.unit_degree(row_grades, i, j) for i in range(1, n + 1) for j in range(1, n + 1))

    def is_transitive(self, row_grades: Tuple[Grade, ...]) -> bool:
        """Whether graded automorphisms carry row 1 to every row (only finite groups can)."""
        return False


class TableGroup(GradingStructure):
    """A finite group given by a validated Cayley table.

    Grades are 0-based indices into the carrier, so they stay cheap and
    hashable; names are kept for error messages only.
    """

    kind = FINITE_GROUP

    def __init__(self, names: Sequence[str], table: Sequence[Sequence[int]]):
        if not names:
            raise GradingError("a finite group needs a non-empty carrier")
        self.names = tuple(str(x) for x in names)
        self.order = len(self.names)
        self.table = tuple(tuple(row) for row in table)
        self.identity, self._inverse = self._check_group()

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

    def is_transitive(self, row_grades: Tuple[Grade, ...]) -> bool:
        """Whether every a = g_k g_1^-1 maps the row grades onto themselves, so
        that left translation by a, keeping (a g_i)^-1 (a g_j) = g_i^-1 g_j,
        is a graded automorphism carrying row 1 to row k.  n^2 products."""
        grades, inv = set(row_grades), self.inverse(row_grades[0])
        return all(self.mul(self.mul(a, inv), g) in grades for a in row_grades for g in row_grades)

    def row_translation(self, row_grades: Tuple[Grade, ...], k: int) -> Dict[int, int]:
        """Row r to the row of a g_r, with a = g_k g_1^-1 (k is 1-based)."""
        a = self.mul(row_grades[k - 1], self.inverse(row_grades[0]))
        row_of = {g: r for r, g in enumerate(row_grades, 1)}
        return {r: row_of[self.mul(a, g)] for r, g in enumerate(row_grades, 1)}

    def mul(self, a: Grade, b: Grade) -> Grade:
        return self.table[a][b]

    def inverse(self, g: Grade) -> Grade:
        return self._inverse[g]

    def contains(self, g: Grade) -> bool:
        return isinstance(g, int) and 0 <= g < self.order

    def elements(self) -> Tuple[Grade, ...]:
        return tuple(range(self.order))

    def grade_from_int(self, value: int) -> Grade:
        """A literal is a carrier index."""
        if 0 <= value < self.order:
            return value
        raise GradingError(f"grade index {value} outside the carrier")


class CyclicGroup(TableGroup):
    """The residues modulo n under addition: a finite group whose products
    are computed, so it stores no table and needs no group check."""

    is_cyclic = True
    identity = 0

    def __init__(self, n: int):
        if n < 1:
            raise GradingError("cyclic group order must be positive")
        self.order = n

    def mul(self, a: Grade, b: Grade) -> Grade:
        return (a + b) % self.order

    def product(self, grades: Iterable[Grade]) -> Grade:
        return sum(grades) % self.order

    def inverse(self, g: Grade) -> Grade:
        return -g % self.order

    def grade_from_int(self, value: int) -> Grade:
        """A literal reduces modulo the order."""
        return value % self.order

    def row_maps(self, row_grades: Tuple[Grade, ...]) -> Callable[[Grade], Dict[int, int]]:
        """On the canonical tuple (row k has grade k mod n) a residue h sends
        row k to row k + h, wrapping past n: rows 1..n meet columns h+1..n
        then 1..h."""
        n = self.order
        if row_grades != (*range(1, n), 0):
            return super().row_maps(row_grades)
        rows = range(1, n + 1)
        return lambda h: dict(zip(rows, itertools.chain(range(h + 1, n + 1), range(1, h + 1))))

    def support(self, row_grades: Tuple[Grade, ...]) -> frozenset:
        full = len(row_grades) == self.order  # every residue is a row grade
        return frozenset(range(self.order)) if full else super().support(row_grades)

    def is_transitive(self, row_grades: Tuple[Grade, ...]) -> bool:
        return len(row_grades) == self.order or super().is_transitive(row_grades)


class IntegerGroup(GradingStructure):
    """The additive integers; grades are plain ints."""

    kind = INTEGERS
    identity = 0

    def mul(self, a: Grade, b: Grade) -> Grade:
        return a + b

    def product(self, grades: Iterable[Grade]) -> Grade:
        return sum(grades)

    def inverse(self, g: Grade) -> Grade:
        return -g

    def contains(self, g: Grade) -> bool:
        return isinstance(g, int)

    def elements(self) -> Tuple[Grade, ...]:
        raise GradingError("the integer grading has infinitely many grades")

    def grade_from_int(self, value: int) -> Grade:
        return value

    def row_maps(self, row_grades: Tuple[Grade, ...]) -> Callable[[Grade], Dict[int, int]]:
        """On ascending consecutive grades a, ..., a + n - 1 a degree h sends
        row k to row k + h, for the rows k with 1 <= k + h <= n."""
        n, a = len(row_grades), row_grades[0]
        if row_grades != tuple(range(a, a + n)):
            return super().row_maps(row_grades)

        def target(h: Grade) -> Dict[int, int]:
            lo, hi = max(1, 1 - h), min(n, n - h)
            return dict(zip(range(lo, hi + 1), range(lo + h, hi + h + 1)))

        return target

    def support(self, row_grades: Tuple[Grade, ...]) -> frozenset:
        n = len(row_grades)
        consecutive = max(row_grades) - min(row_grades) == n - 1
        return frozenset(range(1 - n, n)) if consecutive else super().support(row_grades)


class MatrixUnitSemigroup(GradingStructure):
    """The matrix positions of M_n: 1-based (row, column) pairs multiplied
    like matrix units, with ``MU_ZERO`` as the absorbing zero.

    There is neither an identity nor inverses.  The unit e_ij has degree
    (i, j) itself, so a degree is diagonal when i = j and its transpose is
    (j, i).
    """

    kind = MATRIX_UNITS
    has_identity = False

    def __init__(self, size: int):
        if size < 1:
            raise GradingError("matrix-unit semigroup needs a positive size")
        self.size = size

    @property
    def identity(self) -> Grade:
        raise GradingError("the matrix-position semigroup has no identity element")

    def mul(self, a: Grade, b: Grade) -> Grade:
        if a == MU_ZERO or b == MU_ZERO:
            return MU_ZERO
        return (a[0], b[1]) if a[1] == b[0] else MU_ZERO

    def product(self, grades: Iterable[Grade]) -> Grade:
        """Ordered product in one pass: positions multiply to (first row,
        last column) when each column is the next position's row, and to
        ``MU_ZERO`` when the chain breaks.  Rows and columns start at 1, so
        ``MU_ZERO`` = (0, 0) chains only with itself, and a zero letter
        makes the product zero."""
        hs = iter(grades)
        for row, col in hs:
            for i, j in hs:
                if i != col:
                    return MU_ZERO
                col = j
            return (row, col)
        return super().product(())

    def inverse(self, g: Grade) -> Grade:
        raise GradingError("the matrix-position semigroup has no inverses")

    def contains(self, g: Grade) -> bool:
        if g == MU_ZERO:
            return True
        return (
            isinstance(g, tuple)
            and len(g) == 2
            and all(isinstance(x, int) and 1 <= x <= self.size for x in g)
        )

    def elements(self) -> Tuple[Grade, ...]:
        pairs = [(i, j) for i in range(1, self.size + 1) for j in range(1, self.size + 1)]
        return (MU_ZERO, *pairs)

    def grade_from_int(self, value: int) -> Grade:
        """Only the literal 0, the absorbing zero."""
        if value == 0:
            return MU_ZERO
        raise GradingError("matrix-position grades are pairs (i,j) or 0")

    def grade_from_pair(self, i: int, j: int) -> Grade:
        if not self.contains((i, j)):
            raise GradingError(f"position pair ({i},{j}) out of range")
        return (i, j)

    def format_grade(self, g: Grade) -> str:
        self.require(g)
        return "0" if g == MU_ZERO else f"({g[0]},{g[1]})"

    def is_diagonal(self, g: Grade) -> bool:
        return g != MU_ZERO and g[0] == g[1]

    def transpose(self, g: Grade) -> Optional[Grade]:
        return None if g == MU_ZERO else (g[1], g[0])

    def check_row_grades(self, row_grades: Tuple[Grade, ...]) -> None:
        if row_grades != tuple((i, i) for i in range(1, self.size + 1)):
            raise GradingError(
                "the matrix-position grading is fixed: row grades must be "
                "the diagonal positions (1,1), ..., (n,n)"
            )

    def unit_degree(self, row_grades: Tuple[Grade, ...], i: int, j: int) -> Grade:
        return (i, j)

    def row_maps(self, row_grades: Tuple[Grade, ...]) -> Callable[[Grade], Dict[int, int]]:
        """The unit of degree (i, j) sends row i to column j."""
        return lambda h: {} if h == MU_ZERO else {h[0]: h[1]}


class ElementaryGrading:
    """Grading of the n-by-n matrix algebra induced by distinct row grades.

    Instances are immutable value objects; all derived data (support, row
    maps) is computed from the inducing tuple.  The row map of each grade is
    computed once per grading and shared, read-only, by every later walk:
    ``genericmodel._entry_keys`` is the one walk over a word, and
    ``row_walk`` answers only which start rows survive a degree sequence.
    The diagonal is exactly the neutral component for group kinds because
    the row grades are distinct.
    """

    def __init__(self, structure: GradingStructure, row_grades: Sequence[Grade], spec: Optional[str] = None):
        row_grades = tuple(row_grades)
        if not row_grades:
            raise GradingError("an elementary grading needs at least one row grade")
        _check_matrix_size(len(row_grades))
        for g in row_grades:
            structure.require(g)
        if len(set(row_grades)) != len(row_grades):
            raise GradingError("the inducing tuple must have pairwise distinct entries")
        structure.check_row_grades(row_grades)
        self.structure = structure
        self.row_grades = row_grades
        self.n = len(row_grades)
        self.spec = spec
        # row map per grade, filled on first use; it lives and dies with this
        # grading, which never changes after construction
        self._targets: Dict[Grade, Dict[int, int]] = {}
        self._row_map = structure.row_maps(row_grades)
        # integer code and row map per variable, filled on first use
        self._letters: Dict[tuple, Tuple[int, Dict[int, int]]] = {}
        self._coded_vars: List[tuple] = []
        self._support = structure.support(row_grades)
        self._transitive = structure.is_transitive(row_grades)

    def unit_degree(self, i: int, j: int) -> Grade:
        """Degree of the matrix unit at row i, column j (both 1-based)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise GradingError(f"matrix unit position ({i},{j}) out of range")
        return self.structure.unit_degree(self.row_grades, i, j)

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
        if target is None:
            self.structure.require(h)
            target = self._targets[h] = self._row_map(h)
        return target

    def _letter(self, var: tuple) -> Tuple[int, Dict[int, int]]:
        """Integer code and row map of a variable (grade, index), computed
        once per variable.  The code is m * (n + 1) for the m-th distinct
        variable seen by this grading, m >= 1, and the variable read at row r
        (1 <= r <= n) is the int ``code + r``: ``divmod(x, n + 1)`` recovers
        (m, r) and ``_coded_vars[m - 1]`` the variable.  Codes of one grading
        are comparable across calls."""
        letter = self._letters.get(var)
        if letter is None:
            target = self._target(var[0])
            self._coded_vars.append(var)
            letter = self._letters[var] = (len(self._coded_vars) * (self.n + 1), target)
        return letter

    def row_walk(self, hs: Sequence[Grade]) -> Tuple[int, ...]:
        """Start rows whose walk survives a left-to-right sequence of degrees;
        no rows means the monomial shape evaluates to zero on generic matrices."""
        maps = [self._target(h) for h in hs]
        rows = []
        for k in range(1, self.n + 1):
            cur = k
            for target in maps:
                cur = target.get(cur)
                if cur is None:
                    break
            else:
                rows.append(k)
        return tuple(rows)

    def describe(self) -> str:
        if self.spec:
            return self.spec
        grades = ",".join(self.structure.format_grade(g) for g in self.row_grades)
        return f"{self.structure.kind}[{grades}]"

    def __repr__(self):
        return f"ElementaryGrading({self.describe()})"


# -- complete sequences of residues -------------------------------------------


def is_complete_sequence(n: int, seq: Sequence[int]) -> bool:
    """Whether a length-n residue sequence sums to 0 with exhaustive partial sums."""
    if len(seq) != n:
        raise GradingError(f"expected a sequence of length {n}, got {len(seq)}")
    partial = set()
    acc = 0
    for x in seq:
        acc = (acc + x) % n
        partial.add(acc)
    return acc == 0 and partial == set(range(n))


def complete_sequence_unit_witness(n: int, seq: Sequence[int]) -> Optional[Tuple[Tuple[int, int], ...]]:
    """Chain of matrix units realizing a complete sequence, or None.

    For a complete sequence the returned units e_{i_l j_l} have degree seq[l]
    under the canonical residue grading, consecutive units are composable
    (i_{l+1} = j_l), the start rows exhaust {1..n}, and the chain closes up
    (i_1 = j_n).  The construction walks the partial sums starting at row 1.
    """
    if not is_complete_sequence(n, seq):
        return None

    def rep(row: int) -> int:
        return (row - 1) % n + 1

    units = []
    acc = 0
    for x in seq:
        nxt = acc + x
        units.append((rep(1 + acc), rep(1 + nxt)))
        acc = nxt
    return tuple(units)


def enumerate_complete_sequences(n: int, lift: bool = False) -> list:
    """All complete length-n sequences, as the steps of their partial sums.

    A residue sequence x_1..x_n is complete exactly when its partial sums
    s_1, ..., s_(n-1) are the nonzero residues in some order (s_n = 0 then
    follows).  So each permutation of 1..n-1 gives one sequence, with steps
    x_i = s_i - s_(i-1) mod n and s_0 = s_n = 0, and there are (n-1)! of them.

    With ``lift`` the sequences are the integer lifts of family (15): steps
    from (-n, n) that sum to 0 and reduce to a complete residue sequence.  A
    lift with a nonzero integer sum ends every row walk off its start by a
    multiple of n, so its symmetrization is an identity.  A sum-zero lift is
    properly central exactly when its partial sums 0, s_1, ..., s_(n-1) span
    at most n - 1, so that some row walk survives it; every rotation shifts
    those sums by a constant, so the span decides the whole symmetrization.
    n distinct integers spanning at most n - 1 fill a window of n
    consecutive integers, one of n windows around 0.  So each permutation of
    a window's nonzero members gives one lift, with integer steps: (n-1)!
    per window, n! in all.

    One sort lists the sequences in lexicographic order.  More than
    ``MAX_COMPLETE_SEQUENCES`` sequences are refused before any is built.
    """
    if math.factorial(n if lift else n - 1) > MAX_COMPLETE_SEQUENCES:
        raise GradingError(
            f"refusing to enumerate the complete sequences of length {n}: "
            f"there are more than {MAX_COMPLETE_SEQUENCES}"
        )
    windows = [range(w, w + n) for w in range(1 - n, 1)] if lift else [range(n)]
    return sorted(
        tuple(b - a if lift else (b - a) % n for a, b in zip((0, *sums), (*sums, 0)))
        for window in windows
        for sums in itertools.permutations([s for s in window if s])
    )


# -- grading spec strings -------------------------------------------------------


def _check_matrix_size(n: int) -> int:
    if n > MAX_MATRIX_SIZE:
        raise GradingError(f"matrix size {n} exceeds the limit {MAX_MATRIX_SIZE}")
    return n


def _positive_int(text: str, what: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise GradingError(f"{what} must be an integer, got {text!r}")
    if value < 1:
        raise GradingError(f"{what} must be positive, got {value}")
    return value


def _parse_cayley_file(path: str):
    try:
        with open(path, "rb") as fh:
            # 64 KiB pieces up to just past the bound: no buffer of the bound
            data = bytearray()
            while len(data) <= MAX_CAYLEY_FILE_BYTES and (piece := fh.read(1 << 16)):
                data += piece
        if len(data) > MAX_CAYLEY_FILE_BYTES:
            raise GradingError(
                f"Cayley table file {path!r} exceeds the limit of {MAX_CAYLEY_FILE_BYTES} bytes"
            )
        raw = data.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise GradingError(f"cannot read Cayley table file {path!r}: {exc}")
    lines = [ln.strip() for ln in raw.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GradingError(f"Cayley table file {path!r} is empty")
    names = lines[0].split()
    m = len(names)
    if m > MAX_GROUP_ORDER:
        raise GradingError(f"group order {m} exceeds the limit {MAX_GROUP_ORDER}")
    if len(set(names)) != m:
        raise GradingError("duplicate element names in Cayley table header")
    if len(lines) != m + 1:
        raise GradingError(f"Cayley table needs {m} product rows, found {len(lines) - 1}")
    index = {name: i for i, name in enumerate(names)}
    table = []
    for r, line in enumerate(lines[1:], start=1):
        entries = line.split()
        if len(entries) != m:
            raise GradingError(f"Cayley table row {r} has {len(entries)} entries, expected {m}")
        row = []
        for name in entries:
            if name not in index:
                raise GradingError(f"unknown element {name!r} in Cayley table row {r}")
            row.append(index[name])
        table.append(row)
    return names, table


def parse_grading_spec(spec: str) -> ElementaryGrading:
    """Build a grading from a spec string.

    Supported forms: ``zn:<n>`` and ``zp:<p>`` (canonical residue grading,
    the latter insisting on a prime), ``z:<n>`` (canonical integer grading),
    ``mu:<n>`` (positional grading), and ``group:<file>:<g1,...,gn>`` where
    the file holds element names on the first line followed by the Cayley
    table rows, written with element names in row-times-column order.
    """
    head, sep, rest = spec.partition(":")
    if not sep:
        raise GradingError(f"malformed grading spec {spec!r}")
    if head in ("zn", "zp"):
        n = _check_matrix_size(_positive_int(rest, "modulus"))
        if head == "zp" and not _is_prime(n):
            raise GradingError(f"zp grading needs a prime modulus, got {n}")
        structure = CyclicGroup(n)
        row_grades = tuple(i % n for i in range(1, n + 1))
        return ElementaryGrading(structure, row_grades, spec=spec)
    if head == "z":
        n = _check_matrix_size(_positive_int(rest, "matrix size"))
        return ElementaryGrading(IntegerGroup(), tuple(range(1, n + 1)), spec=spec)
    if head == "mu":
        n = _check_matrix_size(_positive_int(rest, "matrix size"))
        structure = MatrixUnitSemigroup(n)
        return ElementaryGrading(structure, tuple((i, i) for i in range(1, n + 1)), spec=spec)
    if head == "group":
        file_part, sep2, tuple_part = rest.rpartition(":")
        if not sep2:
            raise GradingError("group spec needs both a file and a tuple of elements")
        names, table = _parse_cayley_file(file_part)
        structure = TableGroup(names, table)
        index = {name: i for i, name in enumerate(names)}
        row_grades = []
        for token in tuple_part.split(","):
            token = token.strip()
            if token not in index:
                raise GradingError(f"unknown group element {token!r} in grading tuple")
            row_grades.append(index[token])
        return ElementaryGrading(structure, tuple(row_grades), spec=spec)
    raise GradingError(f"unknown grading spec kind {head!r}")
