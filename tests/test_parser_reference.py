"""Differential check of the term reader against the character parser it
replaced.

``parse_polynomial`` reads accepted text a whole term at a time with compiled
regular expressions, and hands refused text to ``freealg._Parser``, which
reads one character at a time, only to name the error.  ``ReferenceParser``
is the earlier parser, kept verbatim apart from its name: it built every
polynomial one character at a time.  On every text the two must give the
same terms in the same order, or the same error message and position.  The
texts are random valid polynomials on every grading kind, single-character
mutations of them, and every ``--poly`` the benchmark's ``check`` and
``congruence`` rounds generate.
"""

import os
import random
from typing import Dict, Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import KLEIN_TABLE, permutation_group_table
from gradedpi import freealg
from gradedpi.cli import main
from gradedpi.freealg import (
    MAX_INPUT_ROW_STEPS,
    MAX_TERM_DEGREE,
    Monomial,
    Polynomial,
    PolynomialSyntaxError,
    Var,
    parse_polynomial,
)
from gradedpi.grading import (
    ElementaryGrading,
    Grade,
    GradingError,
    TableGroup,
    parse_grading_spec,
)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class ReferenceParser:
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
        grade = self.parse_grade()
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
        return Var(grade, index), exp

    def parse_term(self):
        coeff = 1
        factors = []
        self.skip_ws()
        if self.peek().isdigit():
            coeff = self.read_nat()
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                self.skip_ws()
            else:
                return coeff, Monomial(())  # bare integer constant
        while True:
            if self.peek() != "x":
                self.error("expected a variable factor")
            start = self.pos
            var, exp = self.parse_factor()
            if len(factors) + exp > MAX_TERM_DEGREE:
                self.error(f"term degree exceeds the limit {MAX_TERM_DEGREE}", start)
            self.letters += exp
            if self.rows * self.letters > MAX_INPUT_ROW_STEPS:
                self.error(
                    f"input of {self.letters} letters on {self.rows} rows exceeds "
                    f"the limit of {MAX_INPUT_ROW_STEPS} row steps",
                    start,
                )
            factors.extend([var] * exp)
            self.skip_ws()
            if self.peek() == "*":
                self.pos += 1
                self.skip_ws()
                continue
            break
        return coeff, Monomial(factors)

    def parse(self) -> Polynomial:
        self.skip_ws()
        if not self.peek():
            self.error("empty input")
        terms: Dict[Monomial, int] = {}
        sign = 1
        if self.peek() == "-":
            sign = -1
            self.pos += 1
        while True:
            coeff, mono = self.parse_term()
            coeff *= sign
            nc = terms.get(mono, 0) + coeff
            if nc:
                terms[mono] = nc
            else:
                terms.pop(mono, None)
            self.skip_ws()
            ch = self.peek()
            if ch == "+":
                sign = 1
                self.pos += 1
            elif ch == "-":
                sign = -1
                self.pos += 1
            elif not ch:
                break
            else:
                self.error("expected '+', '-', or end of input")
        return Polynomial(terms)


def _klein():
    names, *rows = [line.split() for line in KLEIN_TABLE.splitlines()]
    index = {name: i for i, name in enumerate(names)}
    table = [[index[name] for name in row] for row in rows]
    return ElementaryGrading(TableGroup(names, table), (0, 1, 2))


def _s3():
    names, table = permutation_group_table(3)
    return ElementaryGrading(TableGroup(names, table), (0, 1, 3))


GRADINGS = {
    "zn:5": parse_grading_spec("zn:5"),
    "z:3": parse_grading_spec("z:3"),
    "mu:3": parse_grading_spec("mu:3"),
    "S3": _s3(),
    "Klein": _klein(),
}

#: whitespace the grammar allows between tokens, including characters only
#: ``str.isspace`` knows
SPACES = ["", "", "", " ", "  ", "\t", "\n", "\x1c", "　"]
#: characters a mutation inserts or substitutes
MUTATIONS = "x[](),*^+-0123456789 ٣²\t"


def _outcome(read, text, grading):
    try:
        poly = read(text, grading)
    except PolynomialSyntaxError as exc:
        return ("error", str(exc), exc.position)
    return ("ok", list(poly.terms.items()))


def _assert_same(text, grading):
    old = _outcome(lambda t, g: ReferenceParser(t, g).parse(), text, grading)
    assert _outcome(parse_polynomial, text, grading) == old, repr(text)
    return old


def _number(rng, value):
    text = str(value)
    if rng.random() < 0.1:
        text = "0" * rng.randint(1, 2) + text
    if rng.random() < 0.05:  # an Arabic-Indic digit, which int() reads
        text = text.replace("3", "٣")
    return text


def _spaced(rng, *tokens):
    """The tokens joined, with random whitespace around each."""
    return "".join(rng.choice(SPACES) + t for t in tokens) + rng.choice(SPACES)


def _grade(rng, name):
    if name == "mu:3":
        if rng.random() < 0.15:
            return "0"
        i, j = _number(rng, rng.randint(1, 3)), _number(rng, rng.randint(1, 3))
        return "(" + _spaced(rng, i, ",", j) + ")"
    order = {"zn:5": 5, "z:3": 4, "S3": 6, "Klein": 4}[name]
    value = rng.randint(-order if name in ("zn:5", "z:3") else 0, order - 1)
    return ("-" if value < 0 else "") + _number(rng, abs(value))


def random_text(rng, name):
    """A polynomial text that ``_Parser`` accepts on the named grading."""
    terms = []
    for k in range(rng.randint(1, 6)):
        factors = []
        # now and then a term longer than one match of the term reader
        for _ in range(rng.randint(60, 140) if rng.random() < 0.05 else rng.randint(0, 4)):
            index = _number(rng, rng.randint(1, 4))
            factor = "x[" + _spaced(rng, _grade(rng, name), ",", index) + "]"
            if rng.random() < 0.2:
                factor += _spaced(rng, "^", _number(rng, rng.randint(0, 3)))
            factors.append(factor)
        if not factors or rng.random() < 0.3:
            factors.insert(0, _number(rng, rng.randint(0, 12)))
        body = factors[0] + "".join(_spaced(rng, "*") + f for f in factors[1:])
        sign = rng.choice("+-") if k else rng.choice(["", "", "-"])
        terms.append(_spaced(rng, sign, body))
    return "".join(terms)


def mutate(rng, text):
    """``text`` with one character deleted, inserted or replaced."""
    pos = rng.randrange(len(text) + 1)
    op = rng.choice(("delete", "insert", "replace")) if pos < len(text) else "insert"
    ch = rng.choice(MUTATIONS)
    if op == "delete":
        return text[:pos] + text[pos + 1 :]
    if op == "insert":
        return text[:pos] + ch + text[pos:]
    return text[:pos] + ch + text[pos + 1 :]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(GRADINGS)), seed=st.integers(0, 2**32 - 1))
def test_reader_matches_parser_on_valid_texts_and_mutations(name, seed):
    rng = random.Random(seed)
    grading = GRADINGS[name]
    text = random_text(rng, name)
    assert _assert_same(text, grading)[0] == "ok", repr(text)
    for _ in range(8):
        _assert_same(mutate(rng, text), grading)


def test_mutations_reach_both_outcomes():
    """The mutated texts are not all refusals: the property above compares
    accepted polynomials, not just error lines."""
    rng = random.Random(7)
    kinds = set()
    for name, grading in GRADINGS.items():
        for _ in range(40):
            kinds.add(_assert_same(mutate(rng, random_text(rng, name)), grading)[0])
    assert kinds == {"ok", "error"}


@pytest.mark.parametrize("workload", ["check", "congruence"])
@pytest.mark.parametrize("seed", [0, 3])
def test_reader_matches_parser_on_benchmark_texts(workload, seed, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(os.path.join(ROOT, "perfbench"))
    from jobs import make_round

    monkeypatch.chdir(tmp_path)  # Cayley files are named relative to the round
    texts = 0
    for index in range(2):
        rnd = make_round(workload, seed, index)
        for file_name, file_text in rnd.files.items():
            (tmp_path / file_name).write_text(file_text, encoding="utf-8")
        for job in rnd.jobs:
            argv = job.argv
            try:
                grading = parse_grading_spec(argv[argv.index("--grading") + 1])
            except GradingError:
                continue
            for k, arg in enumerate(argv):
                if arg == "--poly":
                    _assert_same(argv[k + 1], grading)
                    texts += 1
    assert texts > 40


def test_text_only_the_parser_accepts_is_an_internal_error(monkeypatch, capsys):
    # the character parser only names errors: if it accepts a text the term
    # reader refused, the two grammars disagree, and no polynomial is made
    def refuse(text, grading):
        raise ValueError("refused")

    monkeypatch.setattr(freealg, "_read_terms", refuse)
    assert main(["check-identity", "--grading", "zn:3", "--poly", "x[0,1]"]) == 3
    assert capsys.readouterr().err == (
        "internal error: RuntimeError: the term reader refused polynomial text the parser accepts\n"
    )
    with pytest.raises(PolynomialSyntaxError, match=r"expected '\]' \(at position 5\)"):
        parse_polynomial("x[0,1", GRADINGS["zn:5"])
