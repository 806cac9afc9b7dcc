"""Each `verify` suite and `basis` can fail: one fault planted in the library
code a suite checks makes some of its items fail, with the count of cases
checked, and the CLI print FAIL and exit 1.  A second table gives each kind
of item those faults leave passing a fault of its own.  The faults live in
these tests only, applied with ``monkeypatch``."""

import json

import pytest

from gradedpi import bases, cli, genericmodel, suites
from gradedpi.freealg import Monomial, Polynomial, Var
from gradedpi.grading import ElementaryGrading, parse_grading_spec
from gradedpi.rewrite import KILL_EMPTY_SUPPORT, Step


def reversal_moves_c_to_the_front(monkeypatch):
    # family (2) and (6) become a b c - c a b instead of a b c - c b a
    monkeypatch.setattr(
        bases, "_reversal", lambda a, b, c: Polynomial({Monomial((a, b, c)): 1, Monomial((c, a, b)): -1})
    )


def nothing_is_an_identity(monkeypatch):
    monkeypatch.setattr(suites, "is_identity", lambda f, grading: False)


def classify_with(monkeypatch, **fields):
    real = suites.classify
    monkeypatch.setattr(suites, "classify", lambda m, grading: real(m, grading)._replace(**fields))


def every_word_is_support_closed(monkeypatch):
    classify_with(monkeypatch, support_closed=True)


def no_twin_blocks(monkeypatch):
    classify_with(monkeypatch, twin_blocks=None)


def symmetrization_drops_a_rotation(monkeypatch):
    real = bases.cyclic_symmetrization

    def dropping(vars, grading):
        return real(vars, grading) - Polynomial.from_monomial(Monomial(tuple(vars)))

    monkeypatch.setattr(bases, "cyclic_symmetrization", dropping)
    monkeypatch.setattr(suites, "cyclic_symmetrization", dropping)


def exponents_read_as_one(monkeypatch):
    real = genericmodel._decode_key
    monkeypatch.setattr(
        genericmodel, "_decode_key", lambda grading, key: tuple((pair, 1) for pair, _ in real(grading, key))
    )


def shift_first_window(monkeypatch):
    # the first step of every proof moves one letter to the right
    real = suites.find_congruence

    def shifted(m, n, grading):
        proof = real(m, n, grading)
        if proof is None or not proof.steps:
            return proof
        first, *rest = proof.steps
        moved = first._replace(window=tuple(i + 1 for i in first.window))
        return proof._replace(steps=(moved, *rest))

    monkeypatch.setattr(suites, "find_congruence", shifted)


#: suite -> (planted fault, {failing item: detail}) at seed 0
FAULTS = {
    "lemma-luis1": (
        reversal_moves_c_to_the_front,
        {
            "zn:2/(2)": "0/1 instances",
            "zn:3/(2)": "0/2 instances",
            "zn:4/(2)": "0/3 instances",
            "z:2/(2)": "2/4 instances",
            "z:3/(2)": "2/6 instances",
            "z:4/(2)": "2/8 instances",
            "mu:2/(6)": "0/2 instances",
            "mu:3/(6)": "0/6 instances",
        },
    ),
    "mun-basis": (
        reversal_moves_c_to_the_front,
        {"mu:2/families": "5/7 instances", "mu:3/families": "10/16 instances"},
    ),
    "vasilovsky-zn": (
        nothing_is_an_identity,
        {f"zn:{n}/({k})/consequences": "1 random images" for n in (2, 3, 4) for k in (1, 2)},
    ),
    "vasilovsky-z": (
        every_word_is_support_closed,
        {"z:2/degree<=4": "4 degree tuples", "z:3/degree<=4": "6 degree tuples"},
    ),
    "central-zp": (
        symmetrization_drops_a_rotation,
        {"zp:2/(11)": "0/1 instances", "zp:3/(11)": "0/2 instances", "zp:5/(11)": "0/24 instances"},
    ),
    "central-z": (
        symmetrization_drops_a_rotation,
        {"z:2/(15)": "0/2 instances", "z:3/(15)": "0/6 instances"},
    ),
    "complete-seq": (
        symmetrization_drops_a_rotation,
        {"zn:2/symmetrization-central": "", "zn:3/symmetrization-central": ""},
    ),
    "oracle-equivalence": (exponents_read_as_one, {"closed-form-vs-naive": "3 monomials, all gradings"}),
    "lambda-type2": (
        no_twin_blocks,
        {"zn:2/support-2-long-words": "1 words, degree >= 21", "z:2/support-3-long-words": "1 words, degree >= 228"},
    ),
    "congruence": (shift_first_window, {"zn:3/proofs-found-and-replayed": "100 pairs"}),
}


def no_row_survives(monkeypatch):
    monkeypatch.setattr(ElementaryGrading, "row_walk", lambda self, hs: ())


def rows_read_as_one(monkeypatch):
    real = genericmodel._decode_key
    monkeypatch.setattr(
        genericmodel,
        "_decode_key",
        lambda grading, key: tuple(((g, i, 1), e) for (g, i, _), e in real(grading, key)),
    )


def every_sequence_is_complete(monkeypatch):
    monkeypatch.setattr(suites, "is_complete_sequence", lambda n, seq: True)
    monkeypatch.setattr(bases, "is_complete_sequence", lambda n, seq: True)


def witness_reversed(monkeypatch):
    real = suites.complete_sequence_unit_witness
    monkeypatch.setattr(
        suites, "complete_sequence_unit_witness", lambda n, seq: real(n, seq) and real(n, seq)[::-1]
    )


def no_congruence_found(monkeypatch):
    monkeypatch.setattr(suites, "find_congruence", lambda m, n, grading: None)


def thresholds_off_by_one(monkeypatch):
    real = suites.twin_block_threshold
    monkeypatch.setattr(suites, "twin_block_threshold", lambda size: real(size) + 1)


#: (suite, planted fault, items it must fail among others) for the items
#: that the faults of FAULTS leave passing
ITEM_FAULTS = [
    ("vasilovsky-zn", no_row_survives, ["zn:2/degree<=5", "zn:3/degree<=5"]),
    ("vasilovsky-z", nothing_is_an_identity, ["z:2/(1)/consequences", "z:4/(3)/consequences"]),
    ("mun-basis", no_row_survives, ["mu:2/monomial-identities"]),
    ("central-zp", nothing_is_an_identity, ["zp:3/power-collection-congruence"]),
    # over zn:2 the flattened diagonal of a non-central word is scalar, so skipped
    ("central-zp", rows_read_as_one, ["zn:3/distinct-diagonal"]),
    ("central-z", rows_read_as_one, ["z:2/distinct-entries", "z:3/distinct-entries"]),
    ("oracle-equivalence", nothing_is_an_identity, ["zn:2/oracle-agreement", "z:2/oracle-agreement"]),
    ("lambda-type2", thresholds_off_by_one, ["threshold-values"]),
    ("complete-seq", every_sequence_is_complete, ["zn:2/definition-vs-units", "zn:3/definition-vs-units"]),
    ("complete-seq", witness_reversed, ["zn:3/witness-valid"]),
    ("congruence", no_congruence_found, ["zn:3/proofs-found-and-replayed", "zn:3/proof-iff-entry-match"]),
]


def failed_items(suite):
    return {it.item: it.detail for it in suites.run_suite(suite, 0) if not it.passed}


def assert_cli_fails(suite, capsys, expected):
    assert cli.main(["verify", "--suite", suite]) == 1
    out = capsys.readouterr().out
    fails = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(fails) == len(expected)
    for item, detail in expected.items():
        assert f"FAIL  {suite}/{item}" + (f"  ({detail})" if detail else "") in fails


def test_every_suite_has_a_planted_fault():
    assert set(FAULTS) == set(suites.SUITES)


@pytest.mark.parametrize("suite", sorted(FAULTS))
def test_planted_fault_fails_the_suite(suite, monkeypatch, capsys):
    plant, expected = FAULTS[suite]
    plant(monkeypatch)
    assert failed_items(suite) == expected
    assert_cli_fails(suite, capsys, expected)


def test_a_step_apply_rule_refuses_fails_the_soundness_item(monkeypatch, capsys):
    # replay accepting any proof lets the shifted window reach apply_rule
    shift_first_window(monkeypatch)
    monkeypatch.setattr(suites, "replay", lambda proof, grading: proof.end)
    expected = {"zn:3/steps-preserve-evaluation": ""}
    assert failed_items("congruence") == expected
    assert_cli_fails("congruence", capsys, expected)


def test_a_kill_step_fails_the_soundness_item(monkeypatch):
    real = suites.find_congruence

    def killing(m, n, grading):
        proof = real(m, n, grading)
        return proof and proof._replace(steps=(Step(KILL_EMPTY_SUPPORT, (1,)),) + proof.steps)

    monkeypatch.setattr(suites, "find_congruence", killing)
    monkeypatch.setattr(suites, "replay", lambda proof, grading: proof.end)
    assert failed_items("congruence") == {"zn:3/steps-preserve-evaluation": ""}


def test_a_wrong_instance_is_listed_and_fails_basis(monkeypatch, capsys):
    real = bases.build_basis
    planted = bases.GeneratorInstance("(1)", Polynomial.from_var(Var(1, 1)), {"planted": 1})

    def with_wrong_instance(grading, kind, cutoff=None):
        built = real(grading, kind, cutoff)
        return built._replace(instances=built.instances + [planted])

    monkeypatch.setattr(bases, "build_basis", with_wrong_instance)
    report = bases.basis_report(parse_grading_spec("zn:2"), "identities")
    (fam,) = [fam for fam in report["families"] if fam["id"] == "(1)"]
    assert (fam["instances"], fam["verified"]) == (2, 1)
    assert fam["failures"] == [{"params": {"planted": 1}, "poly": "x[1,1]"}]
    assert cli.main(["basis", "--grading", "zn:2"]) == 1
    assert "  (1): 1/2 verified [FAILED]" in capsys.readouterr().out.splitlines()
    assert cli.main(["basis", "--grading", "zn:2", "--format", "json"]) == 1
    assert json.loads(capsys.readouterr().out) == report


@pytest.mark.parametrize(
    "suite, plant, items", ITEM_FAULTS, ids=[f"{suite}-{plant.__name__}" for suite, plant, _ in ITEM_FAULTS]
)
def test_planted_fault_fails_the_item(suite, plant, items, monkeypatch):
    plant(monkeypatch)
    assert set(items) <= set(failed_items(suite))
