"""Acceptance criteria: the exit gate for the whole package.

Each test runs one criterion battery end to end and prints a one-line
verdict; every check is an exact symbolic equality (no numeric tolerances).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

from gradedpi.suites import (
    all_passed,
    battery_central_integer,
    battery_central_residue,
    battery_complete_sequences,
    battery_congruence,
    battery_distinct_diagonal,
    battery_distinct_entries,
    battery_fast_product,
    battery_generator_identities,
    battery_integer_consequences,
    battery_integer_monomial_classification,
    battery_no_monomial_identities,
    battery_oracle_equivalence,
    battery_positional_basis,
    battery_residue_consequences,
    battery_twin_blocks,
)

SEED = 0


def _report(number, label, items):
    ok = all_passed(items)
    print(f"criterion {number:2d} [{label}]: {'PASS' if ok else 'FAIL'} ({len(items)} items)")
    for item in items:
        if not item.passed:
            print(f"    FAILED {item.item} {item.detail}")
    assert ok, f"criterion {number} failed"


def test_criterion_01_generator_batteries():
    items = battery_generator_identities(SEED) + battery_positional_basis(SEED)
    _report(1, "identity generators on all gradings", items)


def test_criterion_02_identity_consequences():
    items = battery_residue_consequences(SEED) + battery_integer_consequences(SEED)
    _report(2, "seeded consequence closure", items)


def test_criterion_03_no_residue_monomial_identities():
    _report(3, "no monomial identities over full support", battery_no_monomial_identities(SEED))


def test_criterion_04_integer_monomial_classification():
    _report(
        4,
        "integer monomial identities = non-support-closed tuples",
        battery_integer_monomial_classification(SEED),
    )


def test_criterion_05_oracle_equivalence():
    _report(5, "generic evaluation vs unit oracle", battery_oracle_equivalence(SEED))


def test_criterion_06_fast_product():
    _report(6, "closed-form product vs naive product", battery_fast_product(SEED))


def test_criterion_07_central_residue_suite():
    _report(7, "central families over prime residues", battery_central_residue(SEED))


def test_criterion_08_central_integer_suite():
    _report(8, "central families over the integers", battery_central_integer(SEED))


def test_criterion_09_complete_sequences():
    _report(9, "complete sequences and symmetrizations", battery_complete_sequences(SEED))


def test_criterion_10_congruence_engine():
    _report(10, "congruence proofs and replay", battery_congruence(SEED))


def test_criterion_11_twin_block_threshold():
    _report(11, "long words contain twin neutral blocks", battery_twin_blocks(SEED))


def test_criterion_12_distinct_entries():
    items = battery_distinct_diagonal(SEED) + battery_distinct_entries(SEED)
    _report(12, "distinct generic entries of neutral words", items)
