"""Command-line interface: verdicts, exit codes, and report stability."""

import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc

import pytest

from conftest import KLEIN_TABLE
from gradedpi import (
    MAX_CAYLEY_FILE_BYTES,
    MAX_COMPLETE_SEQUENCES,
    MAX_GROUP_ORDER,
    MAX_INPUT_ROW_STEPS,
    MAX_MATRIX_SIZE,
    MAX_TERM_DEGREE,
    PolynomialSyntaxError,
    parse_grading_spec,
    parse_monomial,
    parse_polynomial,
)
import gradedpi
from gradedpi import cli, suites
from gradedpi.cli import main
from gradedpi.suites import SUITES


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheckCommands:
    def test_identity_true(self, capsys):
        code, out, _ = run(
            capsys,
            "check-identity",
            "--grading", "zn:2",
            "--poly", "x[0,1]*x[0,2] - x[0,2]*x[0,1]",
        )
        assert code == 0
        assert "identity" in out

    def test_identity_false_with_witness(self, capsys):
        code, out, _ = run(
            capsys,
            "check-identity",
            "--grading", "zn:2",
            "--poly", "x[1,1]",
            "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        witness = payload["results"][0]["witness"]
        assert witness["kind"] == "nonzero_entry"
        assert witness["position"] == [1, 2]

    def test_verdicts_are_for_characteristic_zero(self, capsys):
        # 2*x[1,1] vanishes in characteristic 2, but its coefficient is not 0 in Z
        code, out, _ = run(capsys, "check-identity", "--grading", "zn:2", "--poly", "2*x[1,1]")
        assert code == 1
        assert out == (
            "not an identity: 2*x[1,1]\n"
            '  witness: {"entry": "2*y[1,1,1]", "kind": "nonzero_entry", "position": [1, 2]}\n'
        )

    def test_central_true(self, capsys):
        code, out, _ = run(
            capsys, "check-central", "--grading", "zp:2", "--poly", "x[1,1]^2"
        )
        assert code == 0
        assert "central" in out

    def test_multiple_polys_all_must_pass(self, capsys):
        code, _, _ = run(
            capsys,
            "check-identity",
            "--grading", "zn:2",
            "--poly", "x[0,1]*x[0,2] - x[0,2]*x[0,1]",
            "--poly", "x[1,1]",
        )
        assert code == 1

    def test_parse_error_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check-identity", "--grading", "zn:2", "--poly", "x[1,")
        assert code == 2
        assert "position" in err

    def test_bad_grading_spec(self, capsys):
        code, _, err = run(capsys, "check-identity", "--grading", "zp:4", "--poly", "x[1,1]")
        assert code == 2
        assert "prime" in err

    def test_cayley_file_grading(self, capsys, klein_file):
        # Klein four-group on M_2 via a table file; the neutral commutator
        # is an identity and a variable graded outside the support vanishes
        code, _, _ = run(
            capsys,
            "check-identity",
            "--grading", f"group:{klein_file}:e,a",
            "--poly", "x[0,1]*x[0,2] - x[0,2]*x[0,1]",
            "--poly", "x[2,1]",
        )
        assert code == 0


class TestParserReuse:
    def test_repeated_calls_report_only_their_own_polys(self, capsys):
        # the parser is built once per process; its --poly default list
        # must not collect the arguments of earlier calls
        first = ["check-identity", "--grading", "zn:2", "--format", "json", "--poly", "x[1,1]"]
        second = ["check-identity", "--grading", "zn:2", "--format", "json", "--poly", "x[0,1]"]
        polys = []
        for argv in (first, second, first):
            code, out, _ = run(capsys, *argv)
            assert code == 1
            polys.append([r["poly"] for r in json.loads(out)["results"]])
        assert polys == [["x[1,1]"], ["x[0,1]"], ["x[1,1]"]]
        assert cli.build_parser() is cli.build_parser()

    def test_import_builds_no_parser(self):
        code = "import gradedpi.cli as c\nprint(c.build_parser.cache_info().currsize)"
        env = dict(os.environ, PYTHONPATH=str(pathlib.Path(gradedpi.__file__).parent.parent))
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "0"


class TestCongruence:
    def test_proof_output(self, capsys):
        code, out, _ = run(
            capsys,
            "congruence",
            "--grading", "zn:3",
            "--poly", "x[1,1]*x[2,2]*x[1,3]",
            "--poly", "x[1,3]*x[2,2]*x[1,1]",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["congruent"] is True
        step = payload["proof"]["steps"][0]
        assert step["rule"] == "reverse-conjugate"
        assert step["window"] == [1, 1, 2, 3]

    def test_not_congruent(self, capsys):
        code, out, _ = run(
            capsys,
            "congruence",
            "--grading", "zn:3",
            "--poly", "x[1,1]*x[2,2]",
            "--poly", "x[2,2]*x[1,1]",
        )
        assert code == 1
        assert "not congruent" in out

    def test_needs_exactly_two(self, capsys):
        code, _, err = run(
            capsys, "congruence", "--grading", "zn:3", "--poly", "x[1,1]"
        )
        assert code == 2
        assert "two" in err


class TestEnumerate:
    def test_no_residue_monomial_identities(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate",
            "--grading", "zn:3",
            "--max-degree", "5",
            "--what", "monomial-identities",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["identities"] == []

    def test_integer_monomial_identities(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate",
            "--grading", "z:2",
            "--max-degree", "2",
            "--format", "json",
        )
        assert code == 0
        listing = json.loads(out)["identities"]
        assert "x[1,1]*x[1,2]" in listing

    def test_complete_sequences(self, capsys):
        code, out, _ = run(
            capsys,
            "enumerate",
            "--grading", "zn:2",
            "--what", "complete-sequences",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["sequences"] == [[1, 1]]

    def test_complete_sequences_need_a_cyclic_grading(self, capsys, klein_file):
        for spec in ("mu:3", "z:3", f"group:{klein_file}:e,a,b"):
            code, out, err = run(
                capsys, "enumerate", "--grading", spec, "--what", "complete-sequences"
            )
            assert (code, out) == (2, ""), spec
            assert err.startswith("error: ") and err.count("\n") == 1, spec
            assert repr(spec) in err, spec


class TestBasisAndVerify:
    def test_basis_report(self, capsys):
        code, out, _ = run(
            capsys, "basis", "--grading", "zp:3", "--kind", "central", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert [fam["id"] for fam in payload["families"]] == ["(8)", "(9)", "(10)", "(11)"]
        assert payload["truncated"] is False

    def test_json_output_is_stable(self, capsys):
        first = run(
            capsys, "basis", "--grading", "zn:2", "--kind", "identities", "--format", "json"
        )
        second = run(
            capsys, "basis", "--grading", "zn:2", "--kind", "identities", "--format", "json"
        )
        assert first == second

    def test_verify_suite(self, capsys):
        code, out, _ = run(capsys, "verify", "--suite", "complete-seq")
        assert code == 0
        assert "PASS" in out
        assert "suite complete-seq" in out

    def test_verify_unknown_suite(self, capsys):
        code, out, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2
        assert out == ""
        assert err == (
            "error: unknown suite 'nope'; known: central-z, central-zp, complete-seq, "
            "congruence, lambda-type2, lemma-luis1, mun-basis, oracle-equivalence, "
            "vasilovsky-z, vasilovsky-zn\n"
        )

    def test_verify_seeded_json_is_stable(self, capsys):
        a = run(capsys, "verify", "--suite", "complete-seq", "--seed", "7", "--format", "json")
        b = run(capsys, "verify", "--suite", "complete-seq", "--seed", "7", "--format", "json")
        assert a == b

    def test_usage_error_exit_code(self, capsys):
        assert main(["no-such-command"]) == 2

    def test_suites_are_tuples_of_every_battery(self):
        batteries = {
            obj for name, obj in vars(suites).items()
            if name.startswith("battery_") and callable(obj)
        }
        for name, members in SUITES.items():
            assert isinstance(members, tuple) and members, name
            assert set(members) <= batteries, name
        assert batteries == {b for members in SUITES.values() for b in members}

    def test_check_commands_call_the_witness_bound_in_cli(self, capsys, monkeypatch):
        # a tracer rebinds these names in gradedpi.cli; the handler must see it
        argv_tail = ["--grading", "zn:3", "--poly", "x[0,1]", "--poly", "x[1,1]*x[2,2]"]
        for command, name in (
            ("check-identity", "identity_witness"),
            ("check-central", "centrality_witness"),
        ):
            calls = []
            original = getattr(cli, name)

            def counting(*args, _original=original, _calls=calls):
                _calls.append(args)
                return _original(*args)

            monkeypatch.setattr(cli, name, counting)
            code, out, err = run(capsys, command, *argv_tail)
            assert (code, err, len(calls)) == (1, "", 2), command
            args = cli.build_parser().parse_args([command, *argv_tail])
            assert args.run(args) == 1 and len(calls) == 4, command
            assert capsys.readouterr().out == out, command


class TestInternalErrors:
    def _raise(self, exc):
        def broken(*args, **kwargs):
            raise exc

        return broken

    def test_congruence_guard_failure_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "gradedpi.cli.find_congruence",
            self._raise(RuntimeError("inconsistent alignment despite matching entries")),
        )
        code, out, err = run(
            capsys, "congruence", "--grading", "zn:3",
            "--poly", "x[1,1]*x[2,2]*x[1,3]", "--poly", "x[1,3]*x[2,2]*x[1,1]",
        )
        assert code == 3
        assert out == ""
        assert err == "internal error: RuntimeError: inconsistent alignment despite matching entries\n"

    def test_library_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setattr(
            "gradedpi.cli.find_congruence", self._raise(ValueError("bug\nin the library"))
        )
        code, _, err = run(
            capsys, "congruence", "--grading", "zn:3",
            "--poly", "x[1,1]*x[2,2]", "--poly", "x[2,2]*x[1,1]",
        )
        assert code == 3
        assert err == "internal error: ValueError: bug in the library\n"

    def test_library_key_error_in_a_battery_is_not_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setitem(SUITES, "complete-seq", (self._raise(KeyError("lost grade")),))
        code, out, err = run(capsys, "verify", "--suite", "complete-seq")
        assert code == 3
        assert out == ""
        assert err == "internal error: KeyError: 'lost grade'\n"

    def test_malformed_inputs_still_exit_2(self, capsys):
        cases = [
            ["check-identity", "--grading", "zn:3x", "--poly", "x[0,1]"],
            ["check-identity", "--grading", "q:3", "--poly", "x[0,1]"],
            ["check-identity", "--grading", "zn:3", "--poly", "x[0,1]*"],
            ["check-identity", "--grading", "zn:3", "--poly", "x[(1,2),1]"],
            ["check-central", "--grading", "mu:2", "--poly", "x[5,1]"],
            ["congruence", "--grading", "zn:3", "--poly", "x[1,1]", "--poly", "x[1,2]"],
            ["enumerate", "--grading", "zn:3", "--max-degree", "99"],
            ["basis", "--grading", "zn:4", "--kind", "central"],
        ]
        for argv in cases:
            code, out, err = run(capsys, *argv)
            assert code == 2, argv
            assert out == ""
            assert err.startswith("error: ") and err.count("\n") == 1, argv


    def test_cayley_rows_past_the_table_are_refused(self, capsys, tmp_path):
        path = tmp_path / "z2.txt"
        path.write_text("e a\ne a\na e\ne e\ngarbage row here\n")
        code, out, err = run(
            capsys, "check-identity", "--grading", f"group:{path}:e,a", "--poly", "x[1,1]"
        )
        assert (code, out) == (2, "")
        assert err == "error: Cayley table needs 2 product rows, found 4\n"
        path.write_text("e a\ne a\na e\n")
        code, _, _ = run(
            capsys, "check-identity", "--grading", f"group:{path}:e,a", "--poly", "x[1,1]"
        )
        assert code == 1

    def test_cayley_file_that_is_not_utf8_is_refused(self, capsys, tmp_path):
        path = tmp_path / "latin.txt"
        path.write_bytes(b"e a\n\xff\xfe a\na e\n")
        code, out, err = run(
            capsys, "check-identity", "--grading", f"group:{path}:e,a", "--poly", "x[1,1]"
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read Cayley table file {str(path)!r}: ")
        assert "can't decode byte 0xff" in err and err.count("\n") == 1


class TestResourceCaps:
    """Inputs over a documented cap exit 2 before anything is allocated."""

    def _refused(self, capsys, argv):
        tracemalloc.start()
        try:
            code, out, err = run(capsys, *argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1, argv
        assert peak < 2_000_000, (argv, peak)
        return err

    def test_term_degree_cap(self, capsys):
        for poly, message in (
            ("x[0,1]^9999999999999", "term degree exceeds the limit"),
            (f"x[0,1]^{MAX_TERM_DEGREE + 1}", "term degree exceeds the limit"),
            (f"x[0,1]^{MAX_TERM_DEGREE}*x[0,2]", "term degree exceeds the limit"),
            ("x[0,1]^" + "9" * 5000, "malformed number"),
            ("x[0,1]^\u00b2", "malformed number"),
        ):
            err = self._refused(
                capsys, ["check-identity", "--grading", "zn:3", "--poly", poly]
            )
            assert message in err, poly
        code, _, _ = run(
            capsys, "check-identity", "--grading", "zn:3", "--poly", f"x[0,1]^{MAX_TERM_DEGREE}"
        )
        assert code == 1

    def test_input_row_steps_cap(self, capsys):
        # one long term on many rows: refused before its power expands
        err = self._refused(capsys, ["check-identity", "--grading", "zn:512", "--poly", "x[0,1]^4096"])
        assert "exceeds the limit of 2000000 row steps (at position 0)" in err
        # many distinct terms, each under the term cap: refused at the term
        # that passes the cap, with only the terms before it kept
        terms = MAX_INPUT_ROW_STEPS // (3 * MAX_TERM_DEGREE) + 1
        poly = " + ".join(f"x[0,{k}]^{MAX_TERM_DEGREE}" for k in range(1, terms + 50))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "check-identity", "--grading", "zn:3", "--poly", poly)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert err.startswith(f"error: input of {terms * MAX_TERM_DEGREE} letters on 3 rows exceeds")
        assert poly.index(f"x[0,{terms}]^") == int(err.split("position ")[1].rstrip(")\n"))
        assert peak < 16_000_000, peak
        code, _, _ = run(
            capsys, "check-identity", "--grading", "zn:3", "--poly", f"x[0,1]^{MAX_TERM_DEGREE}"
        )
        assert code == 1

    def test_long_term_is_refused_in_bounded_memory(self, capsys):
        # a term four times over the degree cap, as long as one argument can
        # be; the text is matched a bounded number of factors at a time
        poly = "*".join(["x[1,2]"] * (4 * MAX_TERM_DEGREE))
        err = self._refused(capsys, ["check-identity", "--grading", "zn:3", "--poly", poly])
        position = len("x[1,2]*") * MAX_TERM_DEGREE  # the first factor past the cap
        assert err == f"error: term degree exceeds the limit {MAX_TERM_DEGREE} (at position {position})\n"

    def test_input_row_steps_boundary(self):
        grading = parse_grading_spec("zn:500")
        at_cap = MAX_INPUT_ROW_STEPS // 500
        assert len(parse_monomial(f"x[0,1]^{at_cap}", grading)) == at_cap
        with pytest.raises(PolynomialSyntaxError, match="row steps"):
            parse_polynomial(f"x[0,1]^{at_cap} + x[0,2]", grading)

    def test_matrix_size_cap(self, capsys):
        # zp: is refused before its primality loop could run
        for spec in ("zn:1000000000", "zp:1000000000000000003", "z:100000", f"mu:{MAX_MATRIX_SIZE + 1}"):
            err = self._refused(capsys, ["check-identity", "--grading", spec, "--poly", "x[0,1]"])
            assert "exceeds the limit" in err, spec
        code, _, _ = run(capsys, "check-identity", "--grading", "zn:128", "--poly", "x[0,1]")
        assert code == 1

    def test_monomial_scan_cap(self, capsys, klein_file):
        klein = f"group:{klein_file}:e,a,b"  # support of 4 grades on M_3
        for argv, message in (
            (["enumerate", "--grading", "z:16", "--max-degree", "8"], "exceeds the limit"),
            (["enumerate", "--grading", "zn:64"], "exceeds the limit"),
            # one support grade: few tuples, but 5e9 row steps
            (["enumerate", "--grading", "z:1", "--max-degree", "100000"], "exceeds the limit"),
            (["basis", "--grading", klein, "--cutoff", "30"], "exceeds the limit"),
            (["enumerate", "--grading", "zn:3", "--max-degree", "-2"], "non-negative"),
            (["basis", "--grading", klein, "--cutoff", "-1"], "non-negative"),
        ):
            start = time.perf_counter()
            err = self._refused(capsys, argv)
            assert time.perf_counter() - start < 1.0, argv
            assert message in err, argv
        # 2 * (1*2 + 2*4 + ... + 9*512) = 16388 row steps, under the cap;
        # the degree alone is no longer bounded
        code, out, _ = run(capsys, "enumerate", "--grading", "zn:2", "--max-degree", "9")
        assert code == 0
        assert out == "0 monomial identities up to degree 9\n"

    def test_complete_sequence_cap(self, capsys):
        # over MAX_COMPLETE_SEQUENCES sequences: 10! residue sequences on
        # zp:11, 8! lifts on z:8; refused before any family is built, and the
        # count, with over a thousand digits on z:512, is not printed
        for argv, n in (
            (["basis", "--grading", "zp:11", "--kind", "central"], 11),
            (["basis", "--grading", "zp:509", "--kind", "central"], 509),
            (["basis", "--grading", "z:8", "--kind", "central"], 8),
            (["basis", "--grading", "z:512", "--kind", "central"], 512),
            (["enumerate", "--grading", "zn:9", "--what", "complete-sequences"], 9),
        ):
            # timed without tracemalloc, which slows building zp:509 tenfold
            start = time.perf_counter()
            assert run(capsys, *argv)[0] == 2, argv
            assert time.perf_counter() - start < 1.0, argv
            err = self._refused(capsys, argv)
            assert err == (
                f"error: refusing to enumerate the complete sequences of length {n}: "
                f"there are more than {MAX_COMPLETE_SEQUENCES}\n"
            )
            assert len(err) < 200, argv

    def test_cayley_file_size_cap(self, capsys, tmp_path):
        # a valid Klein table padded by a comment line to the bound answers;
        # one byte more is refused after reading at most one byte past it
        path = tmp_path / "padded.txt"
        argv = ["check-identity", "--grading", f"group:{path}:e,a,b", "--poly", "x[1,1]"]
        padding = MAX_CAYLEY_FILE_BYTES - len(KLEIN_TABLE) - 2
        path.write_text(KLEIN_TABLE + "#" + "p" * padding + "\n")
        assert run(capsys, *argv)[0] == 1
        path.write_text(KLEIN_TABLE + "#" + "p" * (padding + 1) + "\n")
        err = self._refused(capsys, argv)
        assert err == (
            f"error: Cayley table file {str(path)!r} exceeds the limit of "
            f"{MAX_CAYLEY_FILE_BYTES} bytes\n"
        )

    def test_group_order_cap(self, capsys, tmp_path):
        # the header alone decides, before any row is read or checked
        path = tmp_path / "wide.txt"
        argv = ["check-identity", "--grading", f"group:{path}:g0", "--poly", "x[0,1]"]
        path.write_text(" ".join(f"g{k}" for k in range(MAX_GROUP_ORDER + 1)) + "\n")
        err = self._refused(capsys, argv)
        assert err == f"error: group order {MAX_GROUP_ORDER + 1} exceeds the limit {MAX_GROUP_ORDER}\n"
        path.write_text(" ".join(f"g{k}" for k in range(MAX_GROUP_ORDER)) + "\n")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: Cayley table needs {MAX_GROUP_ORDER} product rows, found 0\n"

    def test_zp7_central_answers(self, capsys):
        # 6! = 720 complete sequences, under the cap
        code, out, err = run(
            capsys, "basis", "--grading", "zp:7", "--kind", "central", "--format", "json"
        )
        assert (code, err) == (0, "")
        families = {fam["id"]: fam for fam in json.loads(out)["families"]}
        assert (families["(11)"]["instances"], families["(11)"]["verified"]) == (720, 720)
        assert all(fam["verified"] == fam["instances"] for fam in families.values())


class TestBoundedMemory:
    def test_wide_neutral_term_is_checked_in_bounded_memory(self, capsys):
        # one term of 4096 distinct neutral letters survives on every row of
        # z:61: about 250 000 coded letters, of which the witness decodes one
        # entry (the tuple keys peaked at 32 MB traced)
        poly = "*".join(f"x[0,{k}]" for k in range(1, MAX_TERM_DEGREE + 1))
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "check-identity", "--grading", "z:61", "--poly", poly, "--format", "json")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, err) == (1, "")
        witness = json.loads(out)["results"][0]["witness"]
        assert witness["position"] == [1, 1]
        assert witness["entry"] == "*".join(f"y[0,{k},1]" for k in range(1, MAX_TERM_DEGREE + 1))
        assert peak < 16_000_000, peak
