"""Rewrite rules, congruence proofs, and their soundness."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from gradedpi.grading import MU_ZERO, parse_grading_spec
from gradedpi.freealg import Monomial, Polynomial, Var, classify
from gradedpi.genericmodel import entry_match, is_identity, monomial_product
from gradedpi.rewrite import (
    CongruenceProof,
    KILL_EMPTY_SUPPORT,
    MU_KILL,
    MU_REVERSE,
    MU_SWAP,
    REVERSE_CONJUGATE,
    RuleError,
    SWAP_NEUTRAL,
    Step,
    _rewrite_windows,
    apply_rule,
    find_congruence,
    proof_from_json,
    proof_to_json,
    replay,
)

ZN2 = parse_grading_spec("zn:2")
ZN3 = parse_grading_spec("zn:3")
Z2 = parse_grading_spec("z:2")
Z3 = parse_grading_spec("z:3")
MU2 = parse_grading_spec("mu:2")


def mono(*pairs):
    return Monomial(Var(g, i) for g, i in pairs)


class TestApplyRule:
    def test_reversal_of_whole_word(self):
        m = mono((1, 1), (1, 2), (1, 3))
        out = apply_rule(m, REVERSE_CONJUGATE, (1, 1, 2, 3), ZN2)
        assert out == mono((1, 3), (1, 2), (1, 1))

    def test_block_swap(self):
        # blocks x1 x2 and x3 x4, all of block degree 0
        m = mono((1, 1), (1, 2), (1, 3), (1, 4))
        out = apply_rule(m, SWAP_NEUTRAL, (1, 2, 4), ZN2)
        assert out == mono((1, 3), (1, 4), (1, 1), (1, 2))

    def test_kill_outside_support(self):
        m = mono((2, 1))
        assert apply_rule(m, KILL_EMPTY_SUPPORT, (1,), Z2) is None
        with pytest.raises(RuleError, match=r"^bad kill window \(2,\) for length 1$"):
            apply_rule(m, KILL_EMPTY_SUPPORT, (2,), Z2)

    def test_predicate_violations(self):
        with pytest.raises(RuleError):
            apply_rule(mono((1, 1), (0, 1)), SWAP_NEUTRAL, (1, 1, 2), ZN2)
        with pytest.raises(RuleError):
            apply_rule(mono((1, 1), (1, 2), (0, 1)), REVERSE_CONJUGATE, (1, 1, 2, 3), ZN3)
        with pytest.raises(RuleError):
            apply_rule(mono((1, 1)), KILL_EMPTY_SUPPORT, (1,), ZN2)
        with pytest.raises(RuleError):
            apply_rule(mono((1, 1), (1, 2)), SWAP_NEUTRAL, (1, 2, 2), ZN2)
        with pytest.raises(RuleError):
            apply_rule(mono((1, 1), (1, 2)), "no-such-rule", (1, 1, 2), ZN2)

    def test_rules_are_kind_specific(self):
        with pytest.raises(RuleError):
            apply_rule(mono(((1, 1), 1), ((1, 1), 2)), SWAP_NEUTRAL, (1, 1, 2), MU2)
        with pytest.raises(RuleError):
            apply_rule(mono((0, 1), (0, 2)), MU_SWAP, (1, 1, 2), ZN2)

    def test_positional_rules(self):
        m = mono(((1, 1), 1), ((1, 1), 2))
        assert apply_rule(m, MU_SWAP, (1, 1, 2), MU2) == mono(((1, 1), 2), ((1, 1), 1))
        m = mono(((1, 2), 1), ((2, 1), 2), ((1, 2), 3))
        out = apply_rule(m, MU_REVERSE, (1, 1, 2, 3), MU2)
        assert out == mono(((1, 2), 3), ((2, 1), 2), ((1, 2), 1))
        assert apply_rule(mono(((0, 0), 1)), MU_KILL, (1,), MU2) is None
        with pytest.raises(RuleError):
            apply_rule(mono(((1, 2), 1)), MU_KILL, (1,), MU2)

    def test_rule_applications_preserve_evaluation(self):
        cases = [
            (mono((1, 1), (1, 2), (1, 3)), REVERSE_CONJUGATE, (1, 1, 2, 3), ZN2),
            (mono((1, 1), (1, 2), (1, 3), (1, 4)), SWAP_NEUTRAL, (1, 2, 4), ZN2),
            (mono((1, 1), (2, 1), (1, 2), (2, 2)), SWAP_NEUTRAL, (1, 2, 4), ZN3),
            (
                mono(((1, 2), 1), ((2, 1), 2), ((1, 2), 3)),
                MU_REVERSE,
                (1, 1, 2, 3),
                MU2,
            ),
        ]
        for m, rule, window, grading in cases:
            out = apply_rule(m, rule, window, grading)
            assert monomial_product(grading, out) == monomial_product(grading, m)


class TestFindCongruence:
    def test_equal_monomials_give_empty_proof(self):
        m = mono((1, 1), (0, 1))
        proof = find_congruence(m, m, ZN2)
        assert proof == CongruenceProof(m, m, ())
        assert replay(proof, ZN2) == m

    def test_single_reversal_step(self):
        m = mono((1, 1), (2, 2), (1, 3))
        n = mono((1, 3), (2, 2), (1, 1))
        proof = find_congruence(m, n, ZN3)
        assert proof is not None
        assert [s.rule for s in proof.steps] == [REVERSE_CONJUGATE]
        assert replay(proof, ZN3) == n

    def test_absent_without_shared_entry(self):
        m = mono((1, 1), (2, 2))
        n = mono((2, 2), (1, 1))
        assert entry_match(m, n, ZN3) is None
        assert find_congruence(m, n, ZN3) is None
        # both words evaluate to zero: no shared nonzero entry either
        m = mono((1, 1), (1, 2))
        n = mono((1, 2), (1, 1))
        assert find_congruence(m, n, Z2) is None

    def test_multiset_precondition(self):
        with pytest.raises(RuleError):
            find_congruence(mono((1, 1)), mono((1, 2)), ZN2)

    def test_rearrangement_surfaces_target_variable(self):
        # after the first rearrangement the working word starts with the
        # target's first variable
        rng = random.Random(17)
        checked = 0
        while checked < 30:
            d = rng.randint(3, 6)
            m = Monomial(Var(rng.randrange(3), rng.randint(1, 2)) for _ in range(d))
            perm = list(m.vars)
            rng.shuffle(perm)
            n = Monomial(perm)
            if n == m or n.vars[0] == m.vars[0]:
                continue
            if entry_match(m, n, ZN3) is None:
                continue
            proof = find_congruence(m, n, ZN3)
            assert proof is not None and proof.steps
            cur = m
            consumed = 0
            for step in proof.steps:
                cur = apply_rule(cur, step.rule, step.window, ZN3)
                consumed += 1
                if cur.vars[0] == n.vars[0]:
                    break
            assert cur.vars[0] == n.vars[0]
            checked += 1

    def test_three_swap_case(self):
        # neutral leading block forces the swap-only rearrangement
        m = mono((0, 1), (1, 1), (1, 2), (1, 3), (1, 4))
        candidates = []
        rng = random.Random(2)
        for _ in range(200):
            perm = list(m.vars)
            rng.shuffle(perm)
            n = Monomial(perm)
            if n != m and entry_match(m, n, ZN2) is not None:
                candidates.append(n)
        assert candidates
        for n in candidates[:10]:
            proof = find_congruence(m, n, ZN2)
            assert proof is not None
            assert replay(proof, ZN2) == n

    def test_positional_congruence(self):
        m = mono(((1, 2), 1), ((2, 1), 2), ((1, 2), 3))
        n = mono(((1, 2), 3), ((2, 1), 2), ((1, 2), 1))
        proof = find_congruence(m, n, MU2)
        assert proof is not None
        assert [s.rule for s in proof.steps] == [MU_REVERSE]
        assert replay(proof, MU2) == n

    def test_positional_congruence_with_diagonal_blocks(self):
        m = mono(((1, 1), 1), ((1, 1), 2), ((1, 2), 1))
        n = mono(((1, 1), 2), ((1, 1), 1), ((1, 2), 1))
        proof = find_congruence(m, n, MU2)
        assert proof is not None
        assert replay(proof, MU2) == n

    def test_nonabelian_grading(self, s3_grading):
        # the engine is kind-generic; check soundness over a nonabelian group
        rng = random.Random(1)
        found = 0
        attempts = 0
        while found < 25 and attempts < 20000:
            attempts += 1
            d = rng.randint(3, 6)
            m = Monomial(Var(rng.randrange(6), rng.randint(1, 2)) for _ in range(d))
            perm = list(m.vars)
            rng.shuffle(perm)
            n = Monomial(perm)
            if n == m:
                continue
            if entry_match(m, n, s3_grading) is None:
                assert find_congruence(m, n, s3_grading) is None
                continue
            proof = find_congruence(m, n, s3_grading)
            assert proof is not None
            assert replay(proof, s3_grading) == n
            reference = monomial_product(s3_grading, m)
            cur = m
            for step in proof.steps:
                cur = apply_rule(cur, step.rule, step.window, s3_grading)
                assert monomial_product(s3_grading, cur) == reference
            found += 1
        assert found == 25


@pytest.fixture(scope="module")
def every_kind(s3_grading, klein_file):
    """One grading per kind, each with grades that include, where the kind
    has them, degrees outside the support (so kills occur)."""
    return {
        "zn:3": (ZN3, list(range(3))),
        "z:3": (Z3, list(range(-3, 4))),
        "mu:2": (MU2, [MU_ZERO, (1, 1), (1, 2), (2, 1), (2, 2)]),
        "s3": (s3_grading, list(range(6))),
        "klein": (parse_grading_spec(f"group:{klein_file}:e,a"), list(range(4))),
    }


class TestCongruenceProperties:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_proof_iff_shared_entry(self, every_kind, data):
        grading, grades = every_kind[data.draw(st.sampled_from(sorted(every_kind)))]
        if data.draw(st.booleans()):
            # along a row walk, so the word survives
            rows = data.draw(
                st.lists(st.integers(min_value=1, max_value=grading.n), min_size=3, max_size=8)
            )
            hs = [grading.unit_degree(a, b) for a, b in zip(rows, rows[1:])]
        else:
            hs = data.draw(st.lists(st.sampled_from(grades), min_size=2, max_size=7))
        indices = st.integers(min_value=1, max_value=2)
        m = Monomial(Var(h, data.draw(indices)) for h in hs)
        # a chain of legal rewrites, then possibly a shuffle that breaks it
        n = m
        for _ in range(data.draw(st.integers(min_value=1, max_value=3))):
            apps = list(_rewrite_windows(n, grading))
            if not apps:
                break
            rule, window = data.draw(st.sampled_from(apps))
            n = apply_rule(n, rule, window, grading)
        if data.draw(st.booleans()):
            n = Monomial(data.draw(st.permutations(n.vars)))
        proof = find_congruence(m, n, grading)
        if m == n:
            assert proof == CongruenceProof(m, n, ())
            return
        assert (proof is not None) == (entry_match(m, n, grading) is not None)
        if proof is None:
            return
        assert replay(proof, grading) == n
        reference = monomial_product(grading, m)
        cur = m
        for step in proof.steps:
            cur = apply_rule(cur, step.rule, step.window, grading)
            assert monomial_product(grading, cur) == reference


class TestReplay:
    def test_two_step_composition(self):
        # blocks x[1,*]x[2,*] have degree 0 over zn:3
        m = mono((1, 1), (2, 1), (1, 2), (2, 2), (1, 3))
        s1 = Step(SWAP_NEUTRAL, (1, 2, 4))
        after1 = apply_rule(m, s1.rule, s1.window, ZN3)
        s2 = Step(REVERSE_CONJUGATE, (1, 1, 2, 3))
        after2 = apply_rule(after1, s2.rule, s2.window, ZN3)
        proof = CongruenceProof(m, after2, (s1, s2))
        assert replay(proof, ZN3) == after2

    def test_corrupt_proofs_rejected(self):
        m = mono((1, 1), (1, 2), (1, 3))
        good = find_congruence(m, mono((1, 3), (1, 2), (1, 1)), ZN2)
        wrong_end = CongruenceProof(good.start, m, good.steps)
        with pytest.raises(RuleError):
            replay(wrong_end, ZN2)
        bad_step = CongruenceProof(m, m, (Step(SWAP_NEUTRAL, (1, 1, 2)),))
        with pytest.raises(RuleError):
            replay(bad_step, ZN2)
        x = mono((2, 1))
        with pytest.raises(RuleError, match="^kill step inside a congruence proof$"):
            replay(CongruenceProof(x, x, (Step(KILL_EMPTY_SUPPORT, (1,)),)), Z2)

    def test_json_round_trip(self):
        m = mono((1, 1), (2, 2), (1, 3))
        n = mono((1, 3), (2, 2), (1, 1))
        proof = find_congruence(m, n, ZN3)
        data = proof_to_json(proof, ZN3)
        assert data["start"] == "x[1,1]*x[2,2]*x[1,3]"
        assert data["steps"][0]["rule"] == REVERSE_CONJUGATE
        assert len(data["steps"][0]["window"]) == 4
        assert proof_from_json(data, ZN3) == proof

    @pytest.mark.parametrize(
        "step",
        [
            {"rule": REVERSE_CONJUGATE, "window": [1.0, 1, 2, 3]},
            {"rule": REVERSE_CONJUGATE, "window": [True, 1, 2, 3]},
            {"rule": REVERSE_CONJUGATE, "window": [1, 1, 2, "3"]},
            {"rule": REVERSE_CONJUGATE, "window": "1123"},
            {"rule": REVERSE_CONJUGATE, "window": 4},
            {"rule": REVERSE_CONJUGATE},
            {"window": [1, 1, 2, 3]},
            {"rule": ["reverse"], "window": [1, 1, 2, 3]},
            [REVERSE_CONJUGATE, [1, 1, 2, 3]],
        ],
        ids=repr,
    )
    def test_malformed_steps_are_rule_errors(self, step):
        data = {"start": "x[1,1]*x[2,2]*x[1,3]", "end": "x[1,3]*x[2,2]*x[1,1]", "steps": [step]}
        good = dict(data, steps=[{"rule": REVERSE_CONJUGATE, "window": [1, 1, 2, 3]}])
        assert replay(proof_from_json(good, ZN3), ZN3) == mono((1, 3), (2, 2), (1, 1))
        with pytest.raises(RuleError):
            replay(proof_from_json(data, ZN3), ZN3)

    @pytest.mark.parametrize(
        "data",
        [
            ["x[1,1]", "x[1,1]", []],
            {"start": "x[1,1]", "steps": []},
            {"start": 5, "end": "x[1,1]", "steps": []},
            {"start": "x[1,1]", "end": "x[1,1]", "steps": {}},
        ],
        ids=repr,
    )
    def test_malformed_proofs_are_rule_errors(self, data):
        with pytest.raises(RuleError, match="^a proof is an object with start and end texts and a list of steps"):
            proof_from_json(data, ZN3)


class TestFollowsFromKill:
    def test_examples(self):
        # each monomial identity has a subword whose degree leaves the support
        for m, grading in ((mono((1, 1), (1, 2)), Z2), (mono((3, 1)), Z3)):
            assert is_identity(Polynomial.from_monomial(m), grading)
            assert not classify(m, grading).support_closed

    def test_no_monomial_identities_over_full_support(self):
        # every residue word evaluates nonzero, so the kill question never arises
        import itertools

        for d in range(1, 4):
            for hs in itertools.product(range(2), repeat=d):
                m = Monomial(Var(h, i + 1) for i, h in enumerate(hs))
                assert not is_identity(Polynomial.from_monomial(m), ZN2)
