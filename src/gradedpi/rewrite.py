"""Rewriting calculus on graded monomials with replayable congruence proofs.

Two monomials with equal generic evaluations at some shared nonzero entry are
congruent modulo the commutation rules, and the congruence is witnessed by an
explicit chain of rule applications.  Rules act on contiguous blocks (images
of the generator variables under graded substitution) and come in three
shapes, read through the structure's ``is_diagonal`` and ``transpose``:

* swap      a b -> b a when deg(a) and deg(b) are both diagonal degrees,
* reversal  a b c -> c b a when deg(a) = deg(c) is not diagonal and deg(b)
            is its transpose,
* kill      a variable whose degree has no admissible row annihilates the
            monomial.

Group gradings name them ``commute-e``, ``reverse-conjugate`` and
``kill-empty-support``: the diagonal degree is the neutral element e, the
transpose is the inverse, so the reversal reads deg(a) = deg(c) = deg(b)^-1
!= e.  The positional grading names them ``mu-commute``, ``mu-reverse`` and
``mu-zero``: the diagonal degrees are the pairs (i, i), the transpose of
(i, j) is (j, i), and only the zero degree has no admissible row.

Windows are tuples of 1-based inclusive boundary positions: a swap window
(p, q, r) means blocks [p..q] and [q+1..r]; a reversal window (p, q, r, s)
means blocks [p..q], [q+1..r], [r+1..s]; a kill window is (p,).
"""

from __future__ import annotations

from collections import Counter, deque
from typing import Dict, List, NamedTuple, Optional, Tuple

from .grading import ElementaryGrading, MATRIX_UNITS, _walk_from
from .freealg import Monomial, format_monomial, parse_monomial
from .genericmodel import entry_match

SWAP_NEUTRAL = "commute-e"
REVERSE_CONJUGATE = "reverse-conjugate"
KILL_EMPTY_SUPPORT = "kill-empty-support"
MU_SWAP = "mu-commute"
MU_REVERSE = "mu-reverse"
MU_KILL = "mu-zero"


class RuleError(ValueError):
    """A rewrite rule was applied outside its precondition."""


class Step(NamedTuple):
    rule: str
    window: Tuple[int, ...]


class CongruenceProof(NamedTuple):
    """Replayable rewrite chain from ``start`` to ``end``."""

    start: Monomial
    end: Monomial
    steps: Tuple[Step, ...]


def _rule_names(grading: ElementaryGrading) -> Tuple[str, str, str]:
    """The swap, reversal and kill rule names of the grading's kind."""
    if grading.structure.kind == MATRIX_UNITS:
        return MU_SWAP, MU_REVERSE, MU_KILL
    return SWAP_NEUTRAL, REVERSE_CONJUGATE, KILL_EMPTY_SUPPORT


def apply_rule(m: Monomial, rule: str, window: Tuple[int, ...], grading: ElementaryGrading) -> Optional[Monomial]:
    """Apply one rule at a window; returns the new monomial, or None for a kill."""
    swap, reverse, kill = _rule_names(grading)
    if rule not in (swap, reverse, kill):
        raise RuleError(f"rule {rule!r} is unknown to this grading; its rules are {swap}, {reverse}, {kill}")
    st = grading.structure
    l = len(m)
    if rule == swap:
        if len(window) != 3:
            raise RuleError("swap rules take a window (p, q, r)")
        p, q, r = window
        if not (1 <= p <= q < r <= l):
            raise RuleError(f"bad swap window {window} for length {l}")
        a = m.vars[p - 1 : q]
        b = m.vars[q:r]
        if not all(st.is_diagonal(st.product(v.grade for v in block)) for block in (a, b)):
            raise RuleError(f"{rule} needs two adjacent blocks of diagonal degree")
        return Monomial(m.vars[: p - 1] + b + a + m.vars[r:])
    if rule == reverse:
        if len(window) != 4:
            raise RuleError("reversal rules take a window (p, q, r, s)")
        p, q, r, s = window
        if not (1 <= p <= q < r < s <= l):
            raise RuleError(f"bad reversal window {window} for length {l}")
        a = m.vars[p - 1 : q]
        b = m.vars[q:r]
        c = m.vars[r:s]
        da, db, dc = (st.product(v.grade for v in block) for block in (a, b, c))
        if da != dc or st.is_diagonal(da) or db != st.transpose(da):
            raise RuleError(
                f"{rule} needs deg(a) = deg(c) off the diagonal and deg(b) its transpose"
            )
        return Monomial(m.vars[: p - 1] + c + b + a + m.vars[s:])
    if len(window) != 1:
        raise RuleError("kill rules take a window (p,)")
    (p,) = window
    if not (1 <= p <= l):
        raise RuleError(f"bad kill window {window} for length {l}")
    if grading._target(m.vars[p - 1].grade):
        raise RuleError(f"{rule} needs a degree with no admissible row")
    return None


def replay(proof: CongruenceProof, grading: ElementaryGrading) -> Monomial:
    """Re-run a proof, validating every step, and return the final monomial."""
    cur = proof.start
    for step in proof.steps:
        nxt = apply_rule(cur, step.rule, step.window, grading)
        if nxt is None:
            raise RuleError("kill step inside a congruence proof")
        cur = nxt
    if cur != proof.end:
        raise RuleError("replayed chain does not reach the recorded end monomial")
    return cur


def _rearrangement_steps(grading, base, k1, k2, k3, grades):
    """Steps that bring the block [k2..k3] (suffix-relative) to the front.

    The three suffix blocks A = [1..k1-1], B = [k1..k2-1], C = [k2..k3] satisfy
    deg(A) = deg(C) with deg(B) its transpose.  When A is empty or of diagonal
    degree every block is, and adjacent swaps suffice; otherwise one reversal
    does it.  ``grades`` holds the current word's grades.
    """
    swap_rule, rev_rule, _ = _rule_names(grading)
    la, lb, lc = k1 - 1, k2 - k1, k3 - k2 + 1
    off = base
    if la == 0:
        return [Step(swap_rule, (off + 1, off + lb, off + lb + lc))]
    deg_a = grading.structure.product(grades[off : off + la])
    if grading.structure.is_diagonal(deg_a):
        return [
            Step(swap_rule, (off + la + 1, off + la + lb, off + la + lb + lc)),
            Step(swap_rule, (off + 1, off + la, off + la + lc)),
            Step(swap_rule, (off + lc + 1, off + lc + la, off + lc + la + lb)),
        ]
    return [
        Step(rev_rule, (off + 1, off + la, off + la + lb, off + la + lb + lc))
    ]


def _move_blocks(grading, step: Step, word: list, grades: list) -> None:
    """Apply a swap or reversal of the search in place, to the word and its
    grades, after checking its precondition on the moved blocks' degrees.

    Only the letters in the window are rewritten: a swap's blocks A B become
    B A, a reversal's A B C become C B A.  The search's windows are in
    range, so only the degrees are checked; a failure is a fault of the
    search and raises RuntimeError.
    """
    st = grading.structure
    if step.rule == _rule_names(grading)[0]:
        p, q, r = step.window
        holds = st.is_diagonal(st.product(grades[p - 1 : q])) and st.is_diagonal(st.product(grades[q:r]))
        order = ((q, r), (p - 1, q))
    else:
        p, q, r, s = step.window
        da, db, dc = st.product(grades[p - 1 : q]), st.product(grades[q:r]), st.product(grades[r:s])
        holds = da == dc and not st.is_diagonal(da) and db == st.transpose(da)
        order = ((r, s), (q, r), (p - 1, q))
    if not holds:
        raise RuntimeError(f"{step.rule} at {step.window} breaks its precondition")
    for letters in (word, grades):
        moved = []
        for lo, hi in order:
            moved += letters[lo:hi]
        letters[p - 1 : order[0][1]] = moved


def find_congruence(m: Monomial, n: Monomial, grading: ElementaryGrading) -> Optional[CongruenceProof]:
    """Rewrite chain taking m to n, when their evaluations share an entry.

    Both monomials must carry the same variable multiset.  The chain is built
    left to right: whenever the leading variables of the unmatched suffixes
    agree they are stripped; otherwise the suffixes are aligned position by
    position through their shared entry, the least block that must come first
    is located, and a swap or reversal brings it to the front.  Returns None
    exactly when no shared nonzero entry exists (except for m = n, which is
    trivially congruent).

    Cost: one search for the shared entry, at the start: ``entry_match``,
    which compares the two words' entry keys one start row at a time and
    stops at the first matching row.  The alignment needs every letter's
    row, which a key does not keep, so both row paths are then walked from
    that row, through one row-transition table built from the distinct
    grades, and the whole words are paired once, source with target
    positions, first in first out by (variable, row).  That pairing is kept
    to the end.  A strip changes no pair, since equal prefixes pair with
    themselves.  A swap or reversal reads every moved letter at the row it
    had, so each letter keeps its (variable, row) key; per key, the k3
    letters it moves held the first target positions of their key, and they
    take them back in their new order, in O(k3 log k3), while every later
    letter keeps its pair.  That is the first-in first-out pairing of the
    new suffixes, so the proof is the one a fresh search per
    rearrangement would give: on group gradings two matching start rows
    differ by a left multiplication of the row grades, a bijection applied
    to both paths alike, so the pairing by (variable, row) is the same; on
    ``mu:`` the first letter fixes the start row.

    The word is kept as one list of letters and one of their grades, and a
    step rewrites only the letters in its window, in place, after checking
    its precondition on the moved blocks' degrees, each a product of a
    slice of the grades.  So a rearrangement costs O(k3), not a copy of the
    whole word; the monomial is built once, for the final check.  The proof
    is not replayed here: ``replay`` and ``apply_rule`` check it
    independently.
    """
    if Counter(m.vars) != Counter(n.vars):
        raise RuleError("congruence needs monomials with the same variable multiset")
    if m == n:
        return CongruenceProof(m, n, ())
    hit = entry_match(m, n, grading)
    if hit is None:
        return None
    r = len(m)
    word = list(m.vars)
    grades = [v.grade for v in word]
    targets = {g: grading._target(g) for g in set(grades)}
    src_rows = _walk_from(targets, grades, hit[0])
    dst_rows = _walk_from(targets, [v.grade for v in n.vars], hit[0])
    # pair source with target positions by (variable, row), first in first
    # out; a (variable, row) pair is numbered by its first target position
    ids: Dict[tuple, int] = {}
    slots: Dict[int, deque] = {}
    for d, pair in enumerate(zip(n.vars, dst_rows)):
        slots.setdefault(ids.setdefault(pair, d), deque()).append(d)
    keys = [ids.get(pair) for pair in zip(m.vars, src_rows)]
    at = [0] * r  # at[d]: the source position paired with target position d
    to = [0] * r  # to[s]: the target position paired with source position s
    for s, key in enumerate(keys):
        queue = slots.get(key)
        if not queue:
            raise RuntimeError("inconsistent alignment despite matching entries")
        d = queue.popleft()
        at[d] = s
        to[s] = d
    steps: List[Step] = []
    base = 0
    guard = 0
    while base < r:
        guard += 1
        if guard > 6 * r + 6:
            raise RuntimeError("congruence construction failed to converge")
        if word[base] == n.vars[base]:
            base += 1
            continue
        # least target position after base whose source sits before the
        # source of the front target letter
        front = at[base]
        d = base + 1
        while d < r and at[d] >= front:
            d += 1
        if d == r or not (at[d] < front <= at[d - 1]):
            raise RuntimeError("misordered rearrangement windows")
        k1, k2, k3 = at[d] - base + 1, front - base + 1, at[d - 1] - base + 1
        for step in _rearrangement_steps(grading, base, k1, k2, k3, grades):
            _move_blocks(grading, step, word, grades)
            steps.append(step)
        if word[base] != n.vars[base]:
            raise RuntimeError("rearrangement did not surface the target variable")
        # the suffix blocks A B C became C B A, each letter keeping its key;
        # per key the moved letters take back, in their new order, the
        # target positions they held, which ascend with the old order
        a, b, c = base + k1 - 1, base + k2 - 1, base + k3
        old = keys[base:c]
        held = [to[base + i] for i in sorted(range(k3), key=old.__getitem__)]
        keys[base:c] = new = keys[b:c] + keys[a:b] + keys[base:a]
        for i, d in zip(sorted(range(k3), key=new.__getitem__), held):
            at[d] = base + i
            to[base + i] = d
    if Monomial(word) != n:
        raise RuntimeError("congruence construction ended on the wrong monomial")
    return CongruenceProof(m, n, tuple(steps))


def proof_to_json(proof: CongruenceProof, grading: ElementaryGrading) -> dict:
    return {
        "start": format_monomial(proof.start, grading),
        "end": format_monomial(proof.end, grading),
        "steps": [
            {"rule": step.rule, "window": list(step.window)} for step in proof.steps
        ],
    }


def proof_from_json(data: dict, grading: ElementaryGrading) -> CongruenceProof:
    steps = tuple(
        Step(item["rule"], tuple(item["window"])) for item in data.get("steps", ())
    )
    return CongruenceProof(
        parse_monomial(data["start"], grading),
        parse_monomial(data["end"], grading),
        steps,
    )
