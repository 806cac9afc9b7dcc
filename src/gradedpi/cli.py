"""Command-line front end.

Subcommands: check-identity, check-central, congruence, enumerate, basis,
verify.  Exit status is 0 for verified/true verdicts, 1 for false verdicts,
2 for usage or parse errors, and 3 for an internal failure of the library
(reported as one ``internal error:`` line, never as a traceback).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import List, Optional

from .grading import GradingError, enumerate_complete_sequences, parse_grading_spec
from .freealg import (
    PolynomialSyntaxError,
    format_monomial,
    parse_monomial,
    parse_polynomial,
)
from .genericmodel import centrality_witness, identity_witness
from .rewrite import RuleError, find_congruence, proof_to_json
from .bases import BasesError, basis_report, enumerate_monomial_identities


class UsageError(Exception):
    pass


def _json_text(value) -> str:
    """The text of ``json.dumps(value, ensure_ascii=False, indent=2,
    sort_keys=True)``, for the types reports hold, without the pure-Python
    encoder that ``indent`` selects.  Raises TypeError where ``json.dumps``
    does; a report holds no cycles, which ``json.dumps`` would refuse."""
    out: List[str] = []
    _write_json(value, "\n", out)
    return "".join(out)


def _write_json(value, newline: str, out: List[str]) -> None:
    """Append the indented JSON text of ``value`` to ``out``; ``newline``
    is the line break and indent of the value's own level."""
    encode = json.encoder.encode_basestring
    if isinstance(value, str):
        out.append(encode(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        sep = "{" + inner
        # sorted before any key is converted, as json.dumps does
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                if key is not None and not isinstance(key, (int, float)):
                    raise TypeError(f"keys must be str, int, float, bool or None, not {key.__class__.__name__}")
                key = json.dumps(key)
            out.append(sep + encode(key) + ": ")
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        if all(type(item) is int for item in value):
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, value)) + newline + "]")
            return
        sep = "[" + inner
        for item in value:
            out.append(sep)
            _write_json(item, inner, out)
            sep = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    else:
        # floats, and the TypeError of a type JSON cannot hold
        out.append(json.dumps(value))


def _emit(payload: dict, fmt: str, text_lines: List[str]):
    if fmt == "json":
        print(_json_text(payload))
    else:
        for line in text_lines:
            print(line)


def _cmd_check(args) -> int:
    # read through the module globals on every call, so that a rebinding of
    # the witness functions here (a tracer, a test) takes effect
    witness_of, yes, no = {
        "check-identity": (identity_witness, "identity", "not an identity"),
        "check-central": (centrality_witness, "central", "not central"),
    }[args.command]
    grading = parse_grading_spec(args.grading)
    results = []
    lines = []
    all_true = True
    for text in args.poly:
        poly = parse_polynomial(text, grading)
        witness = witness_of(poly, grading)
        verdict = witness["kind"] == "verified"
        all_true = all_true and verdict
        results.append({"poly": text, "verdict": verdict, "witness": witness})
        lines.append(f"{yes if verdict else no}: {text}")
        if not verdict:
            lines.append(f"  witness: {json.dumps(witness, sort_keys=True)}")
    payload = {"command": args.command, "grading": args.grading, "results": results}
    _emit(payload, args.format, lines)
    return 0 if all_true else 1


def _cmd_congruence(args) -> int:
    grading = parse_grading_spec(args.grading)
    if len(args.poly) != 2:
        raise UsageError("congruence needs exactly two --poly monomials")
    m = parse_monomial(args.poly[0], grading)
    n = parse_monomial(args.poly[1], grading)
    proof = find_congruence(m, n, grading)
    if proof is None:
        payload = {"command": "congruence", "grading": args.grading, "congruent": False}
        _emit(payload, args.format, ["not congruent: no shared nonzero entry"])
        return 1
    data = proof_to_json(proof, grading)
    payload = {
        "command": "congruence",
        "grading": args.grading,
        "congruent": True,
        "proof": data,
    }
    lines = [f"congruent in {len(proof.steps)} steps"]
    for step in data["steps"]:
        lines.append(f"  {step['rule']} at {step['window']}")
    _emit(payload, args.format, lines)
    return 0


def _cmd_enumerate(args) -> int:
    grading = parse_grading_spec(args.grading)
    if args.what == "monomial-identities":
        found = enumerate_monomial_identities(grading, args.max_degree)
        listing = [format_monomial(m, grading) for m in found]
        payload = {
            "command": "enumerate",
            "grading": args.grading,
            "what": args.what,
            "max_degree": args.max_degree,
            "identities": listing,
        }
        lines = [f"{len(listing)} monomial identities up to degree {args.max_degree}"]
        lines += [f"  {text}" for text in listing]
        _emit(payload, args.format, lines)
        return 0
    if not grading.structure.is_cyclic:
        raise UsageError(
            f"complete sequences are listed for cyclic residue gradings only, not {args.grading!r}"
        )
    sequences = [list(seq) for seq in enumerate_complete_sequences(grading.n)]
    payload = {
        "command": "enumerate",
        "grading": args.grading,
        "what": args.what,
        "sequences": sequences,
    }
    lines = [f"{len(sequences)} complete sequences of length {grading.n}"]
    lines += [f"  {seq}" for seq in sequences]
    _emit(payload, args.format, lines)
    return 0


def _cmd_basis(args) -> int:
    grading = parse_grading_spec(args.grading)
    report = basis_report(grading, args.kind, args.cutoff)
    lines = [f"basis report for {report['grading']} ({report['kind']})"]
    ok = True
    for fam in report["families"]:
        status = "ok" if fam["verified"] == fam["instances"] else "FAILED"
        ok = ok and fam["verified"] == fam["instances"]
        lines.append(
            f"  {fam['id']}: {fam['verified']}/{fam['instances']} verified [{status}]"
        )
    if report["truncated"]:
        lines.append("  (enumerated family truncated at the cutoff)")
    _emit(report, args.format, lines)
    return 0 if ok else 1


def _cmd_verify(args) -> int:
    # the suites and their reference oracles load only for this subcommand
    from .suites import SUITES, all_passed, run_suite

    if args.suite != "all" and args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; known: {', '.join(sorted(SUITES))}")
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    overall = True
    payload = {"command": "verify", "seed": args.seed, "suites": []}
    lines = []
    for name in names:
        items = run_suite(name, args.seed)
        passed = all_passed(items)
        overall = overall and passed
        payload["suites"].append(
            {
                "suite": name,
                "passed": passed,
                "items": [
                    {"id": it.item, "passed": it.passed, "detail": it.detail}
                    for it in items
                ],
            }
        )
        for it in items:
            mark = "PASS" if it.passed else "FAIL"
            detail = f"  ({it.detail})" if it.detail else ""
            lines.append(f"{mark}  {name}/{it.item}{detail}")
        lines.append(
            f"suite {name}: {sum(it.passed for it in items)}/{len(items)} passed"
        )
    _emit(payload, args.format, lines)
    return 0 if overall else 1


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gradedpi",
        description=(
            "Decide, construct, and verify graded polynomial identities and "
            "central polynomials of matrix algebras under elementary gradings."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run, polys=False):
        p.set_defaults(run=run)
        p.add_argument("--grading", required=True, help="grading spec, e.g. zn:3, z:2, mu:2")
        if polys:
            p.add_argument(
                "--poly", action="append", default=[], required=True,
                help="polynomial text (repeatable)",
            )
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("check-identity", help="decide graded identity")
    common(p, _cmd_check, polys=True)
    p = sub.add_parser("check-central", help="decide graded centrality")
    common(p, _cmd_check, polys=True)
    p = sub.add_parser("congruence", help="rewrite one monomial into another")
    common(p, _cmd_congruence, polys=True)
    p = sub.add_parser("enumerate", help="enumerate monomial identities or complete sequences")
    common(p, _cmd_enumerate)
    p.add_argument("--max-degree", type=int, default=4)
    p.add_argument(
        "--what",
        choices=("monomial-identities", "complete-sequences"),
        default="monomial-identities",
    )
    p = sub.add_parser("basis", help="build and verify a generating family")
    common(p, _cmd_basis)
    p.add_argument("--kind", choices=("identities", "central"), default="identities")
    p.add_argument("--cutoff", type=int, default=None, help="enumeration cap for the monomial family")
    p = sub.add_parser("verify", help="run a named verification suite")
    p.set_defaults(run=_cmd_verify)
    p.add_argument("--suite", required=True, help="suite name or 'all'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="text")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.run(args)
    except (GradingError, PolynomialSyntaxError, BasesError, RuleError, UsageError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        detail = " ".join(str(exc).split())
        name = type(exc).__name__
        print(f"internal error: {name}: {detail}" if detail else f"internal error: {name}", file=sys.stderr)
        return 3


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
