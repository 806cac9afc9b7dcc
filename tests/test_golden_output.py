"""Pinned CLI output: SHA-256 prefixes of reports that must stay byte-identical.

The prefixes were recorded before the per-kind grading structures replaced
the kind-string dispatch; those of ``basis z:5 central`` and ``enumerate zn:6
complete-sequences`` before the complete sequences were built from their
partial sums instead of filtered.  A refactor that changes a single byte of
these reports fails here.  ``basis zp:7 central``, refused by the filter, was
recorded after its family (11) sequences were checked once against the
filter run at n = 7.  The ``congruence`` reports on zn:5 and mu:3 were
recorded before the proof construction stopped searching for the shared
entry again after every rearrangement, and those on z:3, the Klein group and
the zn:3 pair without a shared entry before the search read the entry keys
of one walk; each congruent pair is built with ``congruent_pair`` from a
fixed seed string.  The ``check-identity``, ``check-central`` and ``enumerate --what
monomial-identities`` reports, and the error lines of malformed inputs, were
recorded before ``evaluate`` and ``monomial_product`` were folded into one
row walk; their polynomials reach every witness kind on zn:3, z:3, mu:2 and
the Klein group, and one has a constant term.  Paths of Cayley table files
are replaced by ``<klein>`` before hashing, since a fixture file lives in a
fresh temporary directory.

The reports in ``TRANSITIVE_GOLDEN`` were recorded before the verdicts on
gradings with transitive row grades were read from start row 1 alone: zn:64,
zp:5 (a family (11) instance, alone and with one stray monomial) and the whole
Klein group as row grades, where ``x[1,1]^2`` first differs from the (1,1)
entry at (3,3).  On ``zn:n`` the first diagonal mismatch is always at (2,2):
the relabelling of row k is the k-1 fold power of that of row 2.

The reports in ``FAMILY_4_GOLDEN`` were recorded before family (4) was built
by extending support-closed prefixes level by level: ``basis`` identities on
S3 with row grades (0, 1, 3) and cutoff 5, and on S4 with row grades
(0, 1, 3, 7) and cutoff 4, the first pins of a family (4) over a non-abelian
group.  Their Cayley tables are written from ``permutation_group_table``, and
their paths are replaced by ``<S3>`` and ``<S4>`` before hashing.
"""

import hashlib
import json
import random

import pytest

from gradedpi.cli import main
from gradedpi.freealg import format_monomial, parse_monomial
from gradedpi.grading import parse_grading_spec
from gradedpi.rewrite import proof_from_json, replay
from conftest import permutation_group_table
from test_congruence_reference import congruent_pair

GOLDEN = {
    ("verify", "text"): "ad616c76d988f2b6",
    ("verify", "json"): "452ca3a05d8ca427",
    ("basis zp:3 central", "text"): "675ffd632dfd5b0d",
    ("basis zp:3 central", "json"): "d0944fa2e941df5e",
    ("basis zp:5 central", "text"): "7c76cda57fce78c1",
    ("basis zp:5 central", "json"): "c423947863f0ff9d",
    ("basis z:3 central", "text"): "a5ff71761725b3c6",
    ("basis z:3 central", "json"): "498260e3106bd37c",
    ("basis z:4 central", "text"): "46a4652a431399fd",
    ("basis z:4 central", "json"): "62c7f5b75f2e13f1",
    ("basis z:5 central", "text"): "a470636987ef0fdf",
    ("basis z:5 central", "json"): "2770f0ef647b80cf",
    ("basis zp:7 central", "text"): "90f946d8f75a6dd4",
    ("basis zp:7 central", "json"): "e1c58ed08a6934b0",
    ("enumerate zn:6 complete-sequences", "text"): "e9a57eaa0885d883",
    ("enumerate zn:6 complete-sequences", "json"): "d8e24ea709eccc55",
    ("basis zn:4 identities", "text"): "03f663ab68d03f60",
    ("basis zn:4 identities", "json"): "583ce80b4e37c1c0",
    ("basis z:3 identities", "text"): "a7ddd852ed217423",
    ("basis z:3 identities", "json"): "5a829c9a0470192e",
    ("basis mu:3 identities", "text"): "be2251b3377ae45c",
    ("basis mu:3 identities", "json"): "a0b8fa77a1881170",
    ("basis klein identities", "text"): "85fd4d2cd997f1cc",
    ("basis klein identities", "json"): "1129b493551169f5",
    ("congruence zn:5 384", "text"): "65a792469e94da64",
    ("congruence zn:5 384", "json"): "1d38eda098c2a2fb",
    ("congruence mu:3 192", "text"): "b47d440d4e9acd77",
    ("congruence mu:3 192", "json"): "2b823944229aea0d",
    ("congruence z:3 192", "text"): "cd5e00151daefe60",
    ("congruence z:3 192", "json"): "ac034e16600ec32e",
    ("congruence klein 192", "text"): "9d763a126220bb00",
    ("congruence klein 192", "json"): "93c8e569c6bf128c",
    ("congruence zn:3 absent", "text"): "39d20a49b69b323b",
    ("congruence zn:3 absent", "json"): "d84f75b9a8c4ade5",
    ("check-identity zn:3", "text"): "7624944d8210fc44",
    ("check-identity zn:3", "json"): "b39a9d749385b6e7",
    ("check-central zn:3", "text"): "0c2da7a791d76616",
    ("check-central zn:3", "json"): "f22065ed7df80f73",
    ("check-identity z:3", "text"): "658c21d70da7883a",
    ("check-identity z:3", "json"): "09de2203fdff2ee0",
    ("check-central z:3", "text"): "a9bbdc0c7dd57e9b",
    ("check-central z:3", "json"): "0c46243481332624",
    ("check-identity mu:2", "text"): "d08f17a388388cb7",
    ("check-identity mu:2", "json"): "d54786c384cd0cb0",
    ("check-central mu:2", "text"): "d19242a00ca94769",
    ("check-central mu:2", "json"): "cc797eb347f5ff16",
    ("check-identity klein", "text"): "2fecebf57d2c2867",
    ("check-identity klein", "json"): "66b74ccede9f0dab",
    ("check-central klein", "text"): "5befe10228478727",
    ("check-central klein", "json"): "264dafb3bad80fed",
    ("enumerate zn:3 monomial-identities", "text"): "96f8fb0eae072310",
    ("enumerate zn:3 monomial-identities", "json"): "7d19e7010a838a0f",
    ("enumerate z:3 monomial-identities", "text"): "0619152fa95c58be",
    ("enumerate z:3 monomial-identities", "json"): "b46ea297bf2e34ec",
    ("enumerate mu:2 monomial-identities", "text"): "18f43c8ebbc45d78",
    ("enumerate mu:2 monomial-identities", "json"): "e392e7ad367a9c7a",
    ("enumerate klein monomial-identities", "text"): "7b912843a37dceba",
    ("enumerate klein monomial-identities", "json"): "4dfc5161d2d45d71",
}

#: --poly arguments of the pinned check reports and of one congruence report
#: without a shared entry; each report holds a false verdict, so it exits 1
POLYS = {
    "congruence zn:3 absent": ("x[1,1]*x[2,2]*x[0,3]", "x[2,2]*x[1,1]*x[0,3]"),
    "check-identity zn:3": (
        "x[0,1]*x[0,2] - x[0,2]*x[0,1]",
        "x[1,1]*x[2,1] - x[2,1]*x[1,1]",
        "3 + x[0,1]*x[0,2] - x[0,2]*x[0,1]",
    ),
    "check-central zn:3": ("x[1,1]^3", "x[1,1]", "x[1,1]*x[1,2]*x[1,3]", "x[0,1]"),
    "check-identity z:3": ("x[3,1]", "x[1,1]*x[-1,2] - x[-1,2]*x[1,1]"),
    "check-central z:3": (
        "x[1,1]*x[1,2]*x[-2,3] + x[1,2]*x[-2,3]*x[1,1] + x[-2,3]*x[1,1]*x[1,2]",
        "x[1,1]*x[1,2]*x[-1,1]",
        "x[1,1]*x[-1,2] + x[-1,2]*x[1,1]",
    ),
    "check-identity mu:2": ("x[0,1]", "x[(1,2),1]*x[(1,2),2]", "x[(1,2),1]*x[(2,1),2]"),
    "check-central mu:2": (
        "x[(1,2),1]*x[(2,1),2] + x[(2,1),2]*x[(1,2),1]",
        "x[(1,2),1]",
        "x[(1,1),1]",
    ),
    "check-identity klein": ("x[0,1]*x[0,2] - x[0,2]*x[0,1]", "x[1,1]*x[2,1]*x[3,1]", "x[3,1]"),
    "check-central klein": ("x[0,1]*x[0,2] - x[0,2]*x[0,1]", "x[1,1]^2", "x[3,1]"),
}

#: error lines of malformed polynomials under zn:3, each exiting 2
MALFORMED = {
    "x[(1,2),1]": "error: pair grades are only valid under a matrix-position grading (at position 2)",
    "x[1,1": "error: expected ']' (at position 5)",
    "x[1,1]^": "error: expected a number (at position 7)",
    "x[1,0]": "error: variable index must be at least 1 (at position 4)",
    "x[1,1]^4097": "error: term degree exceeds the limit 4096 (at position 0)",
}


def _argv(case, fmt, klein_spec):
    if case == "verify":
        return ["verify", "--suite", "all", "--seed", "0", "--format", fmt]
    command, name, *kind = case.split()
    spec = klein_spec if name == "klein" else name
    if command == "congruence" and case not in POLYS:
        grading = parse_grading_spec(spec)
        pair = congruent_pair(grading, int(kind[0]), random.Random(f"golden:{name}:{kind[0]}"))
        polys = [arg for m in pair for arg in ("--poly", format_monomial(m, grading))]
        return [command, "--grading", spec, *polys, "--format", fmt]
    if case in POLYS:
        polys = [arg for text in POLYS[case] for arg in ("--poly", text)]
        return [command, "--grading", spec, *polys, "--format", fmt]
    option = "--kind" if command == "basis" else "--what"
    return [command, "--grading", spec, option, kind[0], "--format", fmt]


@pytest.mark.parametrize("case, fmt", sorted(GOLDEN), ids=lambda x: str(x))
def test_output_digest(case, fmt, capsys, klein_file):
    klein_spec = f"group:{klein_file}:e,a,b"
    assert main(_argv(case, fmt, klein_spec)) == (1 if case in POLYS else 0)
    out = capsys.readouterr().out.replace(klein_file, "<klein>")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
    assert digest == GOLDEN[case, fmt]


@pytest.mark.parametrize(
    "case", sorted({case for case, _ in GOLDEN if case.startswith("congruence") and case not in POLYS})
)
def test_congruence_proof_replays(case, capsys, klein_file):
    # the pinned proofs, parsed back from the printed report, replay through
    # apply_rule to the printed end: an independent check of the search
    argv = _argv(case, "json", f"group:{klein_file}:e,a,b")
    assert main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    grading = parse_grading_spec(argv[2])
    proof = proof_from_json(report["proof"], grading)
    assert proof.steps
    assert format_monomial(proof.start, grading) == argv[4]
    assert replay(proof, grading) == parse_monomial(argv[6], grading) == proof.end


@pytest.mark.parametrize("poly", sorted(MALFORMED))
def test_malformed_input_error_line(poly, capsys):
    assert main(["check-identity", "--grading", "zn:3", "--poly", poly]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == MALFORMED[poly] + "\n"


#: a family (11) instance on zp:5, the cyclic symmetrization of (2,1,3,3,1)
FAMILY_11_ZP5 = (
    "x[1,2]*x[3,3]*x[3,4]*x[1,5]*x[2,1] + x[1,5]*x[2,1]*x[1,2]*x[3,3]*x[3,4] "
    "+ x[2,1]*x[1,2]*x[3,3]*x[3,4]*x[1,5] + x[3,3]*x[3,4]*x[1,5]*x[2,1]*x[1,2] "
    "+ x[3,4]*x[1,5]*x[2,1]*x[1,2]*x[3,3]"
)

#: --poly arguments of the pinned reports on transitive gradings; each holds
#: a false verdict, so it exits 1
TRANSITIVE_POLYS = {
    "check-identity zn:64": (
        "x[1,1]*x[63,2]*x[5,3]",
        "x[0,1]*x[0,2] - x[0,2]*x[0,1]",
        "x[7,1]*x[9,2] - x[9,2]*x[7,1]",
        "2 + x[1,1]*x[63,1] - x[63,1]*x[1,1]",
    ),
    "check-central zn:64": (
        "x[32,1]*x[32,2] + x[32,2]*x[32,1]",
        "x[1,1]",
        "x[0,1]*x[0,2] - x[0,2]*x[0,1]",
        "x[5,1]*x[59,2] + x[59,2]*x[5,1] - x[0,3]",
    ),
    "check-identity zp:5": (FAMILY_11_ZP5, FAMILY_11_ZP5 + " + x[0,9]"),
    "check-central zp:5": (FAMILY_11_ZP5, FAMILY_11_ZP5 + " + x[0,9]"),
    "check-identity klein-whole": ("x[1,1]*x[2,2] - x[2,2]*x[1,1]", "x[0,1]*x[0,2] - x[0,2]*x[0,1]", "x[3,1]"),
    "check-central klein-whole": (
        "x[1,1]^2",
        "x[1,1]*x[1,2] + x[1,2]*x[1,1]",
        "x[0,1]*x[0,2] - x[0,2]*x[0,1]",
        "x[2,1]",
    ),
}

TRANSITIVE_GOLDEN = {
    ("check-central klein-whole", "json"): "9605b12806cadf20",
    ("check-central klein-whole", "text"): "6eb093b5966b15fe",
    ("check-central zn:64", "json"): "148443bee38c5196",
    ("check-central zn:64", "text"): "219ccc085b01f186",
    ("check-central zp:5", "json"): "71b3979595aa1570",
    ("check-central zp:5", "text"): "dead75c743c2d406",
    ("check-identity klein-whole", "json"): "3da136b08163c705",
    ("check-identity klein-whole", "text"): "2315bbd2b0a6a671",
    ("check-identity zn:64", "json"): "ca8baa97380f5ff2",
    ("check-identity zn:64", "text"): "71fb7a1448dab151",
    ("check-identity zp:5", "json"): "914f82aa9a360a75",
    ("check-identity zp:5", "text"): "a9cdf9ae05d5e8c6",
}


def _transitive_report(case, fmt, klein_file, capsys):
    command, spec = case.split()
    spec = f"group:{klein_file}:e,a,b,c" if spec == "klein-whole" else spec
    polys = [arg for text in TRANSITIVE_POLYS[case] for arg in ("--poly", text)]
    assert main([command, "--grading", spec, *polys, "--format", fmt]) == 1
    return capsys.readouterr().out.replace(klein_file, "<klein>")


@pytest.mark.parametrize("case, fmt", sorted(TRANSITIVE_GOLDEN), ids=lambda x: str(x))
def test_transitive_output_digest(case, fmt, capsys, klein_file):
    out = _transitive_report(case, fmt, klein_file, capsys)
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
    assert digest == TRANSITIVE_GOLDEN[case, fmt]


#: symmetric group S_k on row grades given as indices of its sorted
#: permutations, with the family (4) cutoff
FAMILY_4_CASES = {"S3": (3, (0, 1, 3), 5), "S4": (4, (0, 1, 3, 7), 4)}

FAMILY_4_GOLDEN = {
    ("S3", "json"): "7f79fcf92d970409",
    ("S3", "text"): "3d4080369528c50b",
    ("S4", "json"): "9362643345b3f4ba",
    ("S4", "text"): "f22087a40d3f044d",
}


@pytest.fixture(scope="module")
def symmetric_specs(tmp_path_factory):
    """Grading spec of each family (4) case, with the path to replace."""
    specs = {}
    for name, (k, rows, _) in FAMILY_4_CASES.items():
        names, table = permutation_group_table(k)
        path = tmp_path_factory.mktemp(name) / f"{name}.txt"
        lines = [" ".join(names)] + [" ".join(names[x] for x in row) for row in table]
        path.write_text("\n".join(lines) + "\n")
        specs[name] = (f"group:{path}:{','.join(names[r] for r in rows)}", str(path))
    return specs


@pytest.mark.parametrize("case, fmt", sorted(FAMILY_4_GOLDEN), ids=lambda x: str(x))
def test_family_4_output_digest(case, fmt, symmetric_specs, capsys):
    spec, path = symmetric_specs[case]
    cutoff = FAMILY_4_CASES[case][2]
    argv = ["basis", "--grading", spec, "--kind", "identities", "--cutoff", str(cutoff), "--format", fmt]
    assert main(argv) == 0
    out = capsys.readouterr().out.replace(path, f"<{case}>")
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
    assert digest == FAMILY_4_GOLDEN[case, fmt]
