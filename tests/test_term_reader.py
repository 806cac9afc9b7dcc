"""Pins for the term reader: bracket texts that only ``freealg._Vars``
refuses, the traced memory of reading an s_7-sized text, and the word
formatter's refusals.

The term patterns match a factor's bracket text as anything up to the next
``]``, and ``_Vars`` checks each distinct bracket text once against the
grade/index pattern.  So the texts below pass the term patterns and are
refused only by ``_Vars``.  Each must give the error text and position that
``ReferenceParser``, the earlier character parser, gives.
"""

import itertools
import tracemalloc

import pytest

from gradedpi.freealg import Monomial, Var, format_monomial, parse_polynomial
from gradedpi.grading import GradingError, parse_grading_spec
from test_parser_reference import GRADINGS, _assert_same

ZN5 = GRADINGS["zn:5"]
TERM_X12 = "*".join(["x[1,2]"] * 4095)

BAD_FACTORS = [
    "x[a,1]",
    "x[1,0]",
    "x[1 2,3]",
    "x[(1,2),1]",  # a pair grade on zn
    "x[0," + "1" * 4301 + "]",  # more digits than int converts
    "x[0,1 * x[1,2]",  # a bracket text that runs into the next factor
]


@pytest.mark.parametrize("factor", BAD_FACTORS)
@pytest.mark.parametrize("before", ["", "x[0,1] + ", "x[0,1]*", "2*x[1,1]^2 - "])
def test_bracket_texts_only_vars_refuses(before, factor):
    outcome = _assert_same(before + factor, ZN5)
    assert outcome[0] == "error", outcome


@pytest.mark.parametrize("factor", BAD_FACTORS)
def test_a_refused_bracket_text_seen_twice(factor):
    # a refused text is not kept, so its second occurrence is refused again
    assert _assert_same(f"x[0,1]*{factor} + x[1,1] - {factor}", ZN5)[0] == "error"


@pytest.mark.parametrize("tail", ["x[0,1", "x[0, 1 ", "x[a"])
def test_unclosed_bracket_ending_a_4096_factor_term(tail):
    assert _assert_same(f"{TERM_X12}*{tail}", ZN5)[0] == "error"


def _standard_text(k):
    """s_k on the neutral variables x[0,1], ..., x[0,k], one term per permutation."""
    parts = []
    for t, perm in enumerate(itertools.permutations(range(1, k + 1))):
        inversions = sum(perm[i] > perm[j] for i in range(k) for j in range(i + 1, k))
        word = "*".join(f"x[0,{i}]" for i in perm)
        parts.append(word if not t else ("- " if inversions % 2 else "+ ") + word)
    return " ".join(parts)


def test_reading_an_s7_text_keeps_little_memory():
    # The reader matches and splits one term at a time.  Measured on Python
    # 3.11: 0.84 MB traced, most of it the 5040 monomials it returns.  One
    # findall over the whole text peaks at 3.0 MB, and one fullmatch over it
    # at 18 MB; either breaks the bound.
    text = _standard_text(7)
    grading = parse_grading_spec("zn:3")
    tracemalloc.start()
    try:
        poly = parse_polynomial(text, grading)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(poly.terms) == 5040
    assert peak < 2_000_000, peak


def test_format_refuses_a_grade_outside_the_structure_at_every_occurrence():
    # each variable's text is built once per call, but a variable equal to one
    # already printed (1.0 == 1) is still checked
    zn3 = parse_grading_spec("zn:3")
    for word in ([Var(1, 1), Var(0, 1), Var(1.0, 1)], [Var(7, 1)], [Var(0, 2), Var(1, 1), Var(0, 2), Var(5, 1)]):
        with pytest.raises(GradingError, match="is not a grade of this structure"):
            format_monomial(Monomial(word), zn3)
    assert format_monomial(Monomial([Var(1, 1), Var(0, 1), Var(1, 1), Var(1, 1)]), zn3) == "x[1,1]*x[0,1]*x[1,1]^2"
