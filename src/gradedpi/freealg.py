"""The graded free algebra: variables, monomials, integer polynomials.

Monomials are ordered tuples of graded variables; polynomials are finite
integer combinations of monomials with the free (noncommutative) product.
The module also houses graded substitution, the text grammar, and the
classification of monomials by their subword degrees, which the
verification suites read.
"""

from __future__ import annotations

import itertools
import re
from typing import Dict, Iterable, Mapping, NamedTuple, Optional, Tuple

from .grading import ElementaryGrading, Grade, GradingError


class Var(NamedTuple):
    """A free graded variable, uniquely keyed by (grade, index)."""

    grade: Grade
    index: int


class Monomial:
    """An ordered word of graded variables; the empty word is the unit."""

    __slots__ = ("vars",)

    def __init__(self, vars: Iterable[Var] = ()):
        self.vars = tuple(vars)

    def __len__(self):
        return len(self.vars)

    def __mul__(self, other: "Monomial") -> "Monomial":
        return Monomial(self.vars + other.vars)

    def __eq__(self, other):
        return isinstance(other, Monomial) and self.vars == other.vars

    def __hash__(self):
        return hash(self.vars)

    def __repr__(self):
        if not self.vars:
            return "Monomial(1)"
        body = "*".join(f"x[{v.grade},{v.index}]" for v in self.vars)
        return f"Monomial({body})"

    @property
    def h(self) -> Tuple[Grade, ...]:
        """The degree tuple: grades of the variables in order."""
        return tuple(v.grade for v in self.vars)

    def degree(self, grading: ElementaryGrading) -> Grade:
        """Ordered product of the variable grades; absorbing-zero aware."""
        return grading.structure.product(self.h)

    def sort_key(self):
        return (len(self.vars), self.vars)


ONE = Monomial(())


class Polynomial:
    """Integer combination of monomials with the free product.

    The term map never stores zero coefficients; the zero polynomial is the
    empty map.  Instances are treated as immutable values.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Monomial, int]] = None):
        clean = {}
        if terms:
            for m, c in terms.items():
                if c:
                    clean[m] = c
        self.terms = clean

    @staticmethod
    def zero() -> "Polynomial":
        return Polynomial()

    @staticmethod
    def one() -> "Polynomial":
        return Polynomial({ONE: 1})

    @staticmethod
    def from_monomial(m: Monomial, coeff: int = 1) -> "Polynomial":
        return Polynomial({m: coeff})

    @staticmethod
    def from_var(v: Var) -> "Polynomial":
        return Polynomial({Monomial((v,)): 1})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def constant_term(self) -> int:
        return self.terms.get(ONE, 0)

    def monomials(self):
        return sorted(self.terms, key=Monomial.sort_key)

    def items_sorted(self):
        return [(m, self.terms[m]) for m in self.monomials()]

    def variables(self):
        out = set()
        for m in self.terms:
            out.update(m.vars)
        return out

    def __eq__(self, other):
        return isinstance(other, Polynomial) and self.terms == other.terms

    def __add__(self, other: "Polynomial") -> "Polynomial":
        merged = dict(self.terms)
        for m, c in other.terms.items():
            nc = merged.get(m, 0) + c
            if nc:
                merged[m] = nc
            else:
                merged.pop(m, None)
        return Polynomial(merged)

    def __neg__(self) -> "Polynomial":
        return Polynomial({m: -c for m, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial({m: c * other for m, c in self.terms.items()})
        out: Dict[Monomial, int] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = m1 * m2
                nc = out.get(m, 0) + c1 * c2
                if nc:
                    out[m] = nc
                else:
                    out.pop(m, None)
        return Polynomial(out)

    def __repr__(self):
        if self.is_zero:
            return "Polynomial(0)"
        return f"Polynomial({len(self.terms)} terms)"

    def homogeneous_degree(self, grading: ElementaryGrading) -> Optional[Grade]:
        """Common degree of all terms, or None for the zero polynomial.

        Raises when the terms carry different degrees.
        """
        degree = None
        for m in self.terms:
            d = m.degree(grading)
            if degree is None:
                degree = d
            elif d != degree:
                raise GradingError("polynomial is not homogeneous")
        return degree


def apply_substitution(
    f: Polynomial,
    mapping: Mapping[Var, Polynomial],
    grading: ElementaryGrading,
) -> Polynomial:
    """Image of f under the graded endomorphism sending each variable to its image.

    Every image must be homogeneous of the same grade as its variable (the
    zero polynomial is allowed for any grade).  Unmapped variables are fixed.
    """
    for v, image in mapping.items():
        if image.is_zero:
            continue
        d = image.homogeneous_degree(grading)
        if d != v.grade:
            raise GradingError(
                f"substitution image for x[{grading.structure.format_grade(v.grade)},{v.index}] "
                "has the wrong grade"
            )
    out = Polynomial.zero()
    for m, c in f.terms.items():
        acc = Polynomial({ONE: c})
        for v in m.vars:
            image = mapping.get(v)
            if image is None:
                image = Polynomial.from_var(v)
            acc = acc * image
            if acc.is_zero:
                break
        out = out + acc
    return out


# -- classification by subword degrees ----------------------------------------


class TwinBlocks(NamedTuple):
    """Witness of two equal neutral blocks separated by a neutral gap.

    Blocks are variables p1..p1+a and p2..p2+a (1-based, inclusive); both have
    neutral degree and identical degree tuples, and the gap between them is
    neutral too (possibly empty when p2 = p1 + a + 1).
    """

    a: int
    p1: int
    p2: int


class MonomialClass(NamedTuple):
    support_closed: bool
    twin_blocks: Optional[TwinBlocks]
    has_proper_neutral_subword: bool

    @property
    def has_twin_neutral_blocks(self) -> bool:
        return self.twin_blocks is not None


def twin_block_threshold(support_size: int) -> int:
    """Length above which neutral-free, support-closed multilinear words
    are forced to contain twin neutral blocks."""
    if support_size < 1:
        raise ValueError("support size must be at least 1")
    s = support_size
    total = sum((s - 1) ** i for i in range(1, s + 1))
    return (s + 1) * ((s + 1) * total + 1)


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


def classify(m: Monomial, grading: ElementaryGrading) -> MonomialClass:
    """Subword-degree classification of a monomial.

    ``support_closed``: every nonempty contiguous subword has degree inside
    the support.  ``has_proper_neutral_subword``: some proper nonempty subword
    has neutral degree.  ``twin_blocks``: a witness of two disjoint equal
    neutral blocks with a neutral gap, when one exists.  Without an identity
    (the positional kind) there are no neutral subwords or blocks.
    """
    st = grading.structure
    supp = grading.support()
    h = m.h
    l = len(h)
    if not st.has_identity:
        # a product of positions is nonzero exactly when each neighbouring
        # pair composes, so one pass over adjacent letters decides closure
        closed = all(g in supp for g in h) and all(st.mul(a, b) in supp for a, b in zip(h, h[1:]))
        return MonomialClass(closed, None, False)
    pref = [st.identity]
    for g in h:
        pref.append(st.mul(pref[-1], g))
    # The subword between prefixes a < b has degree pref[a]^-1 pref[b].  The
    # support holds the identity and is closed under inverses, so only the
    # distinct prefix values matter; pref[0] is the identity, so each value
    # must itself lie in the support, which bounds the pairs by |support|^2.
    values = set(pref)
    support_closed = values <= supp and all(st.mul(st.inverse(p), q) in supp for p in values for q in values)
    # each repeated prefix value is a neutral subword; the whole word is not proper
    has_proper = l + 1 - len(values) > (l >= 1 and pref[0] == pref[l])
    return MonomialClass(support_closed, _twin_blocks(pref, h, l), has_proper)


# -- text grammar ---------------------------------------------------------------


#: largest degree (number of letters, with ``x^k`` counting k) of one term
#: the parser accepts.  The parser expands powers into words, so the cap
#: refuses a huge exponent before anything is allocated.
MAX_TERM_DEGREE = 4096

#: largest evaluation work of one input: n (rows of the grading) times its
#: letters over all terms, with ``x^k`` counting k.  Parsing keeps every
#: letter.  Per row and letter, a verdict keeps about 50 bytes when it walks
#: every row (``z:``) and a few when it walks row 1 alone (a transitive
#: grading); ``evaluate``, which decodes the whole matrix, about 170.  The
#: parser refuses the factor that would pass the cap before expanding it.
MAX_INPUT_ROW_STEPS = 2_000_000


class PolynomialSyntaxError(ValueError):
    """Syntax error in polynomial text, with the 0-based offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class _Parser:
    """Reads text the term reader refused one character at a time, only to
    raise ``PolynomialSyntaxError`` at its first error."""

    def __init__(self, text: str, grading: ElementaryGrading):
        self.text = text
        self.pos = 0
        self.structure = grading.structure
        self.rows = grading.n
        self.letters = 0  # over all terms read so far

    def error(self, message: str, pos: Optional[int] = None):
        raise PolynomialSyntaxError(message, self.pos if pos is None else pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def read_nat(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.error("expected a number")
        try:
            return int(self.text[start : self.pos])
        except ValueError:  # a digit int() refuses, or too many digits
            self.error("malformed number", start)

    def read_int(self) -> int:
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        return sign * self.read_nat()

    def parse_grade(self) -> Grade:
        start = self.pos
        try:
            if self.peek() != "(":
                return self.structure.grade_from_int(self.read_int())
            self.pos += 1
            self.skip_ws()
            i = self.read_nat()
            self.skip_ws()
            self.expect(",")
            self.skip_ws()
            j = self.read_nat()
            self.skip_ws()
            self.expect(")")
            return self.structure.grade_from_pair(i, j)
        except GradingError as exc:
            self.error(str(exc), start)

    def parse_factor(self):
        self.expect("x")
        self.expect("[")
        self.skip_ws()
        self.parse_grade()
        self.skip_ws()
        self.expect(",")
        self.skip_ws()
        start = self.pos
        index = self.read_nat()
        if index < 1:
            self.error("variable index must be at least 1", start)
        self.skip_ws()
        self.expect("]")
        exp = 1
        self.skip_ws()
        if self.peek() == "^":
            self.pos += 1
            self.skip_ws()
            exp = self.read_nat()
        return exp

    def parse_term(self):
        degree = 0
        self.skip_ws()
        if self.peek().isdigit():
            self.read_nat()
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                self.skip_ws()
            else:
                return  # bare integer constant
        while True:
            if self.peek() != "x":
                self.error("expected a variable factor")
            start = self.pos
            exp = self.parse_factor()
            if degree + exp > MAX_TERM_DEGREE:
                self.error(f"term degree exceeds the limit {MAX_TERM_DEGREE}", start)
            self.letters += exp
            if self.rows * self.letters > MAX_INPUT_ROW_STEPS:
                self.error(
                    f"input of {self.letters} letters on {self.rows} rows exceeds "
                    f"the limit of {MAX_INPUT_ROW_STEPS} row steps",
                    start,
                )
            degree += exp
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                self.skip_ws()
                continue
            break

    def parse(self) -> None:
        self.skip_ws()
        if not self.peek():
            self.error("empty input")
        if self.peek() == "-":
            self.pos += 1
        while True:
            self.parse_term()
            self.skip_ws()
            ch = self.peek()
            if ch in ("+", "-"):
                self.pos += 1
            elif not ch:
                break
            else:
                self.error("expected '+', '-', or end of input")


# The term reader accepts exactly the texts ``_Parser`` accepts.  A match keeps
# a few kB of backtracking state per factor, so a term is matched at most 65
# factors at a time: ``_HEAD``, then ``_MORE`` until ``_END``.  ``\s`` and
# ``\d`` match what ``str.isspace`` and ``str.isdecimal`` (the digits ``int``
# reads) accept.  Every ``\s*`` is next to a literal, never to another
# ``\s*``, so a refusal takes linear time.
_VAR = r"\s*(?:(-?\d+)|\(\s*(\d+)\s*,\s*(\d+)\s*\))\s*,\s*(\d+)\s*"
_FACTOR = rf"x\[{_VAR}\](?:\s*\^\s*\d+)?"
_FACTORS = rf"(?:\s*\*\s*{_FACTOR}){{1,64}}"
_HEAD = re.compile(rf"\s*(?=[\dx])(?P<coeff>\d+)?(?:(?(coeff)\s*\*\s*){_FACTOR}(?:{_FACTORS})?)?")
_MORE = re.compile(_FACTORS)
_END = re.compile(r"\s*([+-]|\Z)")
_LEAD = re.compile(r"\s*(-?)")
# the bracket text, and the exponent, of each factor of an accepted term
_BRACKETS = re.compile(r"\[([^\]]*)\]")
_EXPONENTS = re.compile(r"\](?:\s*\^\s*(\d+))?")


class _Refused(ValueError):
    """The term reader does not accept the text; ``_Parser`` names the error."""


class _Vars(dict):
    """Bracket text to ``Var`` for one input, each distinct text read once."""

    def __init__(self, structure):
        super().__init__()
        self.structure = structure

    def __missing__(self, key):
        grade, i, j, index = re.fullmatch(_VAR, key).groups()
        if grade:
            g = self.structure.grade_from_int(int(grade))
        else:
            g = self.structure.grade_from_pair(int(i), int(j))
        index = int(index)
        if index < 1:
            raise _Refused
        return self.setdefault(key, Var(g, index))


def _read_terms(text: str, grading: ElementaryGrading) -> Polynomial:
    """The polynomial of ``text``, read a term at a time.  Raises ``ValueError``
    (``_Refused``, or from ``int`` or a grade constructor) on every text
    ``_Parser`` refuses, and checks both caps before a power expands."""
    rows = grading.n
    var_of = _Vars(grading.structure)
    powers = "^" in text
    terms: Dict[Monomial, int] = {}
    letters = 0
    last = _LEAD.match(text)  # the leading sign, read like an operator
    while True:
        pos = last.end()
        sign = -1 if last[1] == "-" else 1
        m = _HEAD.match(text, pos)
        if m is None:
            raise _Refused
        end = m.end()
        while (last := _END.match(text, end)) is None:
            more = _MORE.match(text, end)
            if more is None:
                raise _Refused
            end = more.end()
        word = tuple(map(var_of.__getitem__, _BRACKETS.findall(text, pos, end)))
        degree = len(word)
        if powers:
            exps = [int(e or 1) for e in _EXPONENTS.findall(text, pos, end)]
            degree = sum(exps)
        letters += degree
        if degree > MAX_TERM_DEGREE or rows * letters > MAX_INPUT_ROW_STEPS:
            raise _Refused
        if powers:
            word = tuple(v for v, e in zip(word, exps) for _ in range(e))
        mono = Monomial(word)
        nc = terms.get(mono, 0) + sign * int(m["coeff"] or 1)
        if nc:
            terms[mono] = nc
        else:
            terms.pop(mono, None)
        if not last[1]:
            return Polynomial(terms)


def parse_polynomial(text: str, grading: ElementaryGrading) -> Polynomial:
    """Parse polynomial text.

    Grammar: ``poly := ['-'] term (('+'|'-') term)*`` with
    ``term := int | [int '*'] factor ('*' factor)*``,
    ``factor := var ['^' nat]``, ``var := 'x[' grade ',' nat ']'`` and
    ``grade := int | '(' nat ',' nat ')' | '0'``.  Pair and 0 grades are only
    valid under matrix-position gradings; integer grades reduce modulo n under
    a cyclic grading.  Refused text raises ``PolynomialSyntaxError`` with the
    0-based position of the first error.
    """
    try:
        return _read_terms(text, grading)
    except ValueError:
        pass
    _Parser(text, grading).parse()
    raise RuntimeError("the term reader refused polynomial text the parser accepts")


def parse_monomial(text: str, grading: ElementaryGrading) -> Monomial:
    """Parse text that must denote a single monomial with coefficient 1."""
    poly = parse_polynomial(text, grading)
    items = poly.items_sorted()
    if len(items) != 1 or items[0][1] != 1:
        raise PolynomialSyntaxError("expected a single monomial with coefficient 1", 0)
    return items[0][0]


def _format_word(m: Monomial, grading: ElementaryGrading) -> str:
    parts = []
    for var, run in itertools.groupby(m.vars):
        count = len(list(run))
        text = f"x[{grading.structure.format_grade(var.grade)},{var.index}]"
        parts.append(text if count == 1 else f"{text}^{count}")
    return "*".join(parts)


def format_monomial(m: Monomial, grading: ElementaryGrading) -> str:
    if not len(m):
        return "1"
    return _format_word(m, grading)


def _signed_sum(terms: Iterable[Tuple[int, str]]) -> str:
    """``c1*w1 + c2*w2 - ...`` from (coefficient, word text) pairs, a bare
    magnitude for the empty word ``""``; "0" when there is no pair."""
    parts = []
    for c, word in terms:
        mag = abs(c)
        body = word or str(mag)
        if word and mag != 1:
            body = f"{mag}*{word}"
        if not parts:
            parts.append(("-" if c < 0 else "") + body)
        else:
            parts.append(("- " if c < 0 else "+ ") + body)
    return " ".join(parts) or "0"


def format_polynomial(f: Polynomial, grading: ElementaryGrading) -> str:
    """Canonical text form; ``parse_polynomial`` round-trips it."""
    return _signed_sum((c, _format_word(m, grading)) for m, c in f.items_sorted())
