"""Differential check of find_congruence against the search it replaced.

``reference_find_congruence`` and ``_reference_matched_walks`` are the
earliest construction, kept verbatim apart from their names and the source
of the row walks: before every strip or rearrangement it walked all start
rows of both suffixes and aligned the suffixes through the least matching
row.  Those walks now come from ``oracles.unit_walks``, which reads the unit
degrees, where the earlier code read the library's ``row_walk`` paths.
The current construction pairs the whole words once and re-pairs only the
letters a rearrangement moves; it must produce the same proof, step for
step.
"""

import random
import sys
from collections import Counter, deque
from typing import Dict, List, Optional

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from gradedpi import rewrite
from gradedpi.freealg import Monomial, Var
from gradedpi.grading import ElementaryGrading, parse_grading_spec
from gradedpi.oracles import unit_walks
from gradedpi.rewrite import (
    CongruenceProof,
    RuleError,
    Step,
    _rearrangement_steps,
    apply_rule,
    find_congruence,
    replay,
)


def _reference_matched_walks(src: Monomial, dst: Monomial, grading: ElementaryGrading):
    """Shared-entry data: a row k where both evaluations agree on a nonzero
    entry, along with both row paths."""
    hs_src = [v.grade for v in src.vars]
    hs_dst = [v.grade for v in dst.vars]
    w1 = unit_walks(grading, hs_src)
    w2 = unit_walks(grading, hs_dst)
    for k, p1 in w1.items():
        p2 = w2.get(k)
        if p2 is None or p1[-1] != p2[-1]:
            continue
        left = Counter(
            (src.vars[c].grade, src.vars[c].index, p1[c]) for c in range(len(src))
        )
        right = Counter(
            (dst.vars[c].grade, dst.vars[c].index, p2[c]) for c in range(len(dst))
        )
        if left == right:
            return k, p1, p2
    return None


def reference_find_congruence(m: Monomial, n: Monomial, grading: ElementaryGrading) -> Optional[CongruenceProof]:
    if Counter(m.vars) != Counter(n.vars):
        raise RuleError("congruence needs monomials with the same variable multiset")
    if m == n:
        return CongruenceProof(m, n, ())
    r = len(m)
    steps: List[Step] = []
    cur = m
    base = 0
    guard = 0
    while base < r:
        guard += 1
        if guard > 6 * r + 6:
            raise RuntimeError("congruence construction failed to converge")
        src = Monomial(cur.vars[base:r])
        dst = Monomial(n.vars[base:r])
        hit = _reference_matched_walks(src, dst, grading)
        if hit is None:
            if base == 0 and not steps:
                return None
            raise RuntimeError("shared entry lost during congruence construction")
        if src.vars[0] == dst.vars[0]:
            base += 1
            continue
        _, p_src, p_dst = hit
        # align src positions with dst positions by (variable, row)
        slots: Dict[tuple, deque] = {}
        for c in range(len(dst)):
            slots.setdefault((dst.vars[c], p_dst[c]), deque()).append(c + 1)
        pos: Dict[int, int] = {}
        for c in range(len(src)):
            key = (src.vars[c], p_src[c])
            queue = slots.get(key)
            if not queue:
                raise RuntimeError("inconsistent alignment despite matching entries")
            pos[queue.popleft()] = c + 1
        # least t whose successor block sits before the front block of dst
        t = 1
        while pos[t + 1] >= pos[1]:
            t += 1
        k1, k2, k3 = pos[t + 1], pos[1], pos[t]
        if not (k1 < k2 <= k3):
            raise RuntimeError("misordered rearrangement windows")
        for step in _rearrangement_steps(grading, base, k1, k2, k3, cur):
            cur = apply_rule(cur, step.rule, step.window, grading)
            steps.append(step)
        if cur.vars[base] != n.vars[base]:
            raise RuntimeError("rearrangement did not surface the target variable")
    if cur != n:
        raise RuntimeError("congruence construction ended on the wrong monomial")
    return CongruenceProof(m, n, tuple(steps))


# -- seeded pairs ------------------------------------------------------------------
#
# A word is built along a random row walk, so it survives; valid rewrites
# then act on blocks read off that walk: two adjacent loops at one row are
# neutral blocks that commute, and blocks a b c running u -> v -> u -> v
# (u != v) satisfy deg(a) = deg(c) = deg(b)^-1 and may be reversed.


def _rows(grading, word, start):
    rows = [start]
    for v in word:
        rows.append(grading._target(v.grade)[rows[-1]])
    return rows


def _swap(word, rows, rng):
    j = rng.randint(1, len(word) - 1)
    before = [i for i in range(j) if rows[i] == rows[j]]
    after = [k for k in range(j + 1, len(word) + 1) if rows[k] == rows[j]]
    if not before or not after:
        return False
    i, k = rng.choice(before), rng.choice(after)
    word[i:k] = word[j:k] + word[i:j]
    return True


def _reverse(word, rows, rng):
    p, q = sorted(rng.sample(range(len(word) + 1), 2))
    if rows[p] == rows[q]:
        return False
    rs = [r for r in range(q + 1, len(word)) if rows[r] == rows[p]]
    if not rs:
        return False
    r = rng.choice(rs)
    ss = [s for s in range(r + 1, len(word) + 1) if rows[s] == rows[q]]
    if not ss:
        return False
    s = rng.choice(ss)
    word[p:s] = word[r:s] + word[q:r] + word[p:q]
    return True


def _walk_word(grading, length, rng):
    rows = [rng.randint(1, grading.n) for _ in range(length + 1)]
    word = [
        Var(grading.unit_degree(rows[t], rows[t + 1]), rng.randint(1, 4))
        for t in range(length)
    ]
    return word, rows[0]


#: failed moves in a row after which a walk word is redrawn: a word that
#: admits no swap and no reversal would otherwise be retried forever.  The
#: pairs the suite draws never fail more than 7 times in a row, so none of
#: them is redrawn.
FAILED_MOVES_BEFORE_REDRAW = 1000


def congruent_pair(grading, length, rng):
    while True:
        word, start = _walk_word(grading, length, rng)
        dst = list(word)
        moves = failed = 0
        while failed < FAILED_MOVES_BEFORE_REDRAW:
            if moves >= length // 2 and dst != word:
                return Monomial(word), Monomial(dst)
            if (_swap if rng.random() < 0.5 else _reverse)(dst, _rows(grading, dst, start), rng):
                moves += 1
                failed = 0
            else:
                failed += 1


def killed_pair(grading, length, rng):
    while True:
        word, _ = _walk_word(grading, length, rng)
        dead = sorted(word, key=lambda v: (str(v.grade), v.index))
        if not grading.row_walk([v.grade for v in dead]):
            return Monomial(dead), Monomial(word)


KINDS = ["zn:3", "zn:5", "z:3", "mu:3", "s3", "klein"]


@pytest.fixture(scope="module")
def gradings(s3_grading, klein_file):
    specs = ("zn:3", "zn:5", "z:3", "mu:3")
    return {
        **{spec: parse_grading_spec(spec) for spec in specs},
        "s3": s3_grading,
        "klein": parse_grading_spec(f"group:{klein_file}:e,a,b"),
    }


@pytest.mark.parametrize("name", KINDS)
def test_same_proof_as_reference(gradings, name):
    grading = gradings[name]
    rng = random.Random(f"congruence-reference:{name}")
    for length in (48, 96, 192, 384):
        m, n = congruent_pair(grading, length, rng)
        for src, dst in ((m, n), (n, m)):
            proof = find_congruence(src, dst, grading)
            assert proof is not None
            assert proof.steps == reference_find_congruence(src, dst, grading).steps
            assert replay(proof, grading) == dst


#: kinds whose support misses a degree, so that a sorted walk word can die;
#: on zn:3 and zn:5 every word survives
KILLABLE = ("z:3", "mu:3", "s3", "klein")


def _outcome(search, m, n, grading):
    """The proof, None, or the type and text of the error raised."""
    try:
        return search(m, n, grading)
    except (RuleError, RuntimeError) as exc:
        return type(exc), str(exc)


#: the seed ``derandomize`` took from this property's source while it also
#: compared the superseded suffix search: a digest of the source, so that any
#: edit redraws the examples.  Pinned, the property keeps the same fifty
#: examples, among them three congruent pairs of 768 letters, on which the
#: reference spends most of its time (it walks every suffix again per step)
KEPT_ALIGNMENT_SEED = int(
    "33405481535117161097876899447737009556029913915651759270183433435265"
    "61298471416863152435425780559630404166647644910"
)


@seed(KEPT_ALIGNMENT_SEED)
@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data())
def test_kept_alignment_matches_both_references(gradings, data):
    name = data.draw(st.sampled_from(KINDS))
    grading = gradings[name]
    shape = data.draw(st.sampled_from(("congruent",) * 3 + ("equal", "shuffled", "killed", "other letter")))
    length = data.draw(st.sampled_from((4, 8, 24, 48, 96, 192, 384, 768)))
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    if shape == "congruent":
        m, n = congruent_pair(grading, length, rng)
    elif shape == "killed" and name in KILLABLE:
        m, n = killed_pair(grading, length, rng)
    else:
        word, _ = _walk_word(grading, length, rng)
        other = list(word)
        if shape == "other letter":
            # a variable no walk word has: the multisets differ
            other[rng.randrange(length)] = Var(word[0].grade, 5)
        elif shape != "equal":
            rng.shuffle(other)
        m, n = Monomial(word), Monomial(other)
    for src, dst in ((m, n), (n, m)):
        outcome = _outcome(find_congruence, src, dst, grading)
        assert outcome == _outcome(reference_find_congruence, src, dst, grading)
        if isinstance(outcome, CongruenceProof):
            assert replay(outcome, grading) == dst
        elif outcome is not None:
            assert outcome[0] is RuleError  # no guard fires on these words


def test_short_pairs_redraw_a_word_without_moves(gradings, monkeypatch):
    # the 7th draw, 8 letters, admits no swap and no reversal; it used to
    # be retried forever
    grading = gradings["zn:5"]
    rng = random.Random("alignment:zn:5")
    real = _walk_word
    draws = []

    def counted(*args):
        draws.append(args)
        return real(*args)

    monkeypatch.setattr(sys.modules[__name__], "_walk_word", counted)
    lengths = (8, 12, 16, 24, 48, 96) * 2
    for length in lengths:
        m, n = congruent_pair(grading, length, rng)
        assert m != n and len(m) == len(n) == length
        assert replay(find_congruence(m, n, grading), grading) == n
    assert len(draws) > len(lengths)


def _fifo_alignment(src, dst, p_src, p_dst):
    """The dst position each src position is matched with, first in first
    out among equal (variable, row) keys."""
    slots: Dict[tuple, deque] = {}
    for c, key in enumerate(zip(dst, p_dst)):
        slots.setdefault(key, deque()).append(c)
    return tuple(slots[key].popleft() for key in zip(src, p_src))


@pytest.mark.parametrize("name", KINDS)
def test_every_matching_start_row_gives_one_alignment(gradings, name):
    # the suffix pairs the construction aligns: at every intermediate
    # monomial, from the first position where it differs from the target
    grading = gradings[name]
    rng = random.Random(f"alignment:{name}")
    several = 0
    for length in (24, 48, 96) * 4:
        m, n = congruent_pair(grading, length, rng)
        cur = m
        for step in find_congruence(m, n, grading).steps:
            base = next(i for i in range(length) if cur.vars[i] != n.vars[i])
            src, dst = cur.vars[base:], n.vars[base:]
            w1 = unit_walks(grading, [v.grade for v in src])
            w2 = unit_walks(grading, [v.grade for v in dst])
            alignments = []
            for k, p1 in w1.items():
                p2 = w2.get(k)
                if p2 is None or p1[-1] != p2[-1]:
                    continue
                if Counter(zip(src, p1)) == Counter(zip(dst, p2)):
                    alignments.append(_fifo_alignment(src, dst, p1, p2))
            assert alignments and len(set(alignments)) == 1
            several += len(alignments) > 1
            cur = apply_rule(cur, step.rule, step.window, grading)
    # on mu: the first letter fixes the start row; group kinds meet suffixes
    # that several rows admit
    assert (several == 0) == (name == "mu:3")


@pytest.mark.parametrize("name,length", [("z:3", 48), ("z:3", 192), ("mu:3", 48), ("mu:3", 192)])
def test_killed_pairs_have_no_proof(gradings, name, length):
    grading = gradings[name]
    m, n = killed_pair(grading, length, random.Random(f"killed:{name}:{length}"))
    assert reference_find_congruence(m, n, grading) is None
    assert find_congruence(m, n, grading) is None
    assert find_congruence(n, m, grading) is None


def test_relabelled_source_rows_are_caught(gradings, monkeypatch):
    # the kept rows are trusted to the end; rows that do not fit the
    # letters break the alignment instead of giving a wrong proof
    grading = gradings["zn:3"]
    m, n = congruent_pair(grading, 96, random.Random("relabelled"))
    src_grades = [v.grade for v in m.vars]
    assert src_grades != [v.grade for v in n.vars]
    real = rewrite._walk_from

    def relabelled(targets, hs, start):
        path = real(targets, hs, start)
        return [row % grading.n + 1 for row in path] if hs == src_grades else path

    monkeypatch.setattr(rewrite, "_walk_from", relabelled)
    with pytest.raises(RuntimeError, match="inconsistent alignment despite matching entries"):
        find_congruence(m, n, grading)


def test_one_shared_entry_search_per_call(gradings, monkeypatch):
    grading = gradings["zn:5"]
    m, n = congruent_pair(grading, 96, random.Random("one-search"))
    searches, walks = [], []

    def counted(calls, real):
        def wrapper(*args):
            calls.append(args)
            return real(*args)

        return wrapper

    monkeypatch.setattr(rewrite, "entry_match", counted(searches, rewrite.entry_match))
    monkeypatch.setattr(rewrite, "_walk_from", counted(walks, rewrite._walk_from))
    proof = find_congruence(m, n, grading)
    assert len(proof.steps) > 1
    assert replay(proof, grading) == n
    assert len(searches) == 1
    # both row paths are walked once, from the row the search found
    assert len(walks) == 2
