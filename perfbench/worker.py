"""Workload process: import gradedpi.cli, then run one workload's jobs.

Run by run.py, never directly. Each job is one in-process
``gradedpi.cli.main(argv)`` call with stdout and stderr captured, run one at
a time (a closed loop with one client). Only the call itself is timed; job
generation and output checks happen between jobs.

Modes:
  --probe            print the time the import finished, then exit
  --workload ...     run jobs in whole rounds for --seconds and report JSON
  --trace 1          run a fixed number of rounds, alternating untraced and
                     traced ones, and report per-layer spans and counters
"""

from __future__ import annotations

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXPECTED_PATH = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 0
HARD_LIMIT_S = 120.0
#: an untraced run keeps starting rounds past --seconds until this many jobs
#: ran, so that at least ten samples lie beyond the 90th percentile
MIN_JOBS = 100
#: traced runs cover a fixed number of round pairs so their counters are exact;
#: about this many seconds of untraced work per pair
TRACE_PAIR_S = {"check": 3.0, "basis": 1.5, "congruence": 2.0, "verify": 3.5}


def trace_pairs(workload: str, seconds: float) -> int:
    return max(1, int(seconds / (2 * TRACE_PAIR_S[workload])))


def run_job(job):
    """Run one job; returns (exit code, stdout, stderr, seconds, traceback)."""
    import contextlib
    import io
    import traceback

    from gradedpi import cli
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(list(job.argv))
    except Exception:
        return None, out.getvalue(), err.getvalue(), time.perf_counter() - start, traceback.format_exc()
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - start, None


# -- output checks --------------------------------------------------------------------


def _check_verdicts(job, code, payload):
    verdicts = job.expect["verdicts"]
    want_code = 0 if all(verdicts) else 1
    if code != want_code:
        return f"exit {code}, expected {want_code}"
    got = [r["verdict"] for r in payload["results"]]
    if got != verdicts:
        return f"verdicts {got}, expected {verdicts}"
    for r in payload["results"]:
        if not r["verdict"] and r["witness"]["kind"] == "verified":
            return "a false verdict without a witness"
    return None


def _check_lifts(n, fam):
    """Family (15) on z:n against the benchmark's own enumeration: every
    properly central lift is emitted and verified, and every instance the
    report rejects is a lift whose symmetrization vanishes, so rejecting it
    is the true verdict."""
    from jobs import integer_lifts

    lifts = integer_lifts(n)
    proper = sum(lifts.values())
    if fam["verified"] != proper:
        return f"family (15): {fam['verified']} verified, expected all {proper} proper lifts"
    rejected = [tuple(int(g) for g in f["params"]["degrees"]) for f in fam["failures"]]
    if len(set(rejected)) != len(rejected) or any(lifts.get(seq, True) for seq in rejected):
        return "family (15) rejects an instance that is not a vanishing lift"
    if fam["instances"] != proper + len(rejected):
        return f"family (15): {fam['instances']} instances, {proper} verified, {len(rejected)} rejected"
    return None


def _check_basis(job, code, payload):
    rejected = rejected_instances(payload)
    if code != (1 if rejected else 0):
        return f"exit {code} with {rejected} rejected instances"
    for fam in payload["families"]:
        if fam["id"] == "(15)" and "lifts" in job.expect:
            problem = _check_lifts(job.expect["lifts"], fam)
            if problem:
                return problem
        elif fam["verified"] != fam["instances"] or fam["failures"]:
            return f"family {fam['id']}: {fam['verified']}/{fam['instances']} verified"
    counts = basis_counts(payload)
    if job.expect["counts"] is not None and counts != job.expect["counts"]:
        return f"instance counts {counts}, expected {job.expect['counts']}"
    return None


def rejected_instances(payload) -> int:
    """Instances a basis report lists as failing its own verification."""
    return sum(len(fam["failures"]) for fam in payload["families"])


def basis_counts(payload) -> dict:
    return {
        "families": {fam["id"]: fam["instances"] for fam in payload["families"]},
        "truncated": payload["truncated"],
    }


def _check_congruence(job, code, payload):
    from gradedpi.grading import parse_grading_spec
    from gradedpi.freealg import parse_monomial
    from gradedpi.rewrite import proof_from_json, replay

    want = job.expect["congruent"]
    if code != (0 if want else 1) or payload["congruent"] is not want:
        return f"exit {code}, congruent={payload['congruent']}, expected {want}"
    if not want:
        return None
    grading = parse_grading_spec(job.expect["spec"])
    proof = proof_from_json(payload["proof"], grading)
    if proof.start != parse_monomial(job.expect["start"], grading):
        return "proof starts on the wrong monomial"
    if replay(proof, grading) != parse_monomial(job.expect["end"], grading):
        return "proof replays to the wrong monomial"
    return None


def _check_verify(job, code, payload):
    if code != 0:
        return f"exit {code}, expected 0"
    for suite in payload["suites"]:
        failed = [it["id"] for it in suite["items"] if not it["passed"]]
        if not suite["passed"] or failed:
            return f"suite {suite['suite']} failed items {failed}"
    return None


CHECKS = {
    "check": _check_verdicts,
    "basis": _check_basis,
    "congruence": _check_congruence,
    "verify": _check_verify,
}


def check_outcome(job, code, out, err):
    """None when the job produced its expected outcome, else why not."""
    import json

    kind = job.expect["type"]
    if kind == "usage-error":
        if code != 2 or out or not err.startswith("error: ") or err.count("\n") != 1:
            return f"exit {code}, stderr {err[:200]!r}; expected exit 2 and one error line"
        return None
    if err:
        return f"unexpected stderr {err[:200]!r}"
    try:
        payload = json.loads(out)
    except ValueError:
        return f"stdout is not JSON: {out[:200]!r}"
    return CHECKS[kind](job, code, payload)


# -- the loop -------------------------------------------------------------------------


class Runner:
    def __init__(self, workload: str, seed: int, expected: dict):
        self.workload = workload
        self.seed = seed
        self.counts = expected.get("basis_counts")
        recorded = expected.get("digests", {}).get(workload, [])
        self.digests = recorded if seed == DEFAULT_SEED else []
        self.attempted = 0
        self.failures = []
        self.latencies = []  # seconds, None for a failed job
        self.stdout_bytes = 0
        self.rejected = 0  # basis instances the program's own check rejects
        self.rounds = 0
        self.jobs_per_round = 0
        self.outputs = []  # digests per round, when recording
        self.basis_counts = {}  # instance counts per basis class, when recording

    def run_round(self, index: int, tracer=None, record=False) -> float:
        """Run round ``index``; returns the time spent inside the jobs."""
        import hashlib
        import json

        from jobs import make_round

        rnd = make_round(self.workload, self.seed, index, self.counts)
        for name, text in rnd.files.items():
            with open(name, "w", encoding="utf-8") as fh:
                fh.write(text)
        busy = 0.0
        digests = []
        try:
            for k, job in enumerate(rnd.jobs):
                if tracer is not None:
                    tracer.job = f"r{index}.{k}"
                    tracer.install()
                try:
                    code, out, err, seconds, crash = run_job(job)
                finally:
                    if tracer is not None:
                        tracer.uninstall()
                busy += seconds
                self.stdout_bytes += len(out.encode("utf-8"))
                try:
                    problem = crash or check_outcome(job, code, out, err)
                except Exception as exc:  # a malformed payload is a wrong output
                    problem = f"output check raised {exc!r}"
                rejected = 0
                if problem is None and job.expect["type"] == "basis":
                    rejected = rejected_instances(json.loads(out))
                self.rejected += rejected
                digest = hashlib.sha256(out.encode("utf-8")).hexdigest()[:16]
                # a job that fails, or whose report rejects instances, gets no
                # digest and no counts when recording: a defect is never the
                # expected output
                clean = problem is None and not rejected
                digests.append(digest if clean else None)
                recorded = self.digests[index][k] if index < len(self.digests) else None
                if problem is None and recorded not in (None, digest):
                    problem = "stdout differs from the digest recorded for the default seed"
                if record and clean and job.expect["type"] == "basis":
                    self.basis_counts[job.expect["class"]] = basis_counts(json.loads(out))
                self.attempted += 1
                if problem is None:
                    self.latencies.append(seconds)
                else:
                    self.latencies.append(None)
                    self.failures.append(f"round {index} job {k} ({job.label}): {problem}")
        finally:
            for name in rnd.files:
                os.remove(name)
        self.rounds += 1
        self.jobs_per_round = len(rnd.jobs)
        if record:
            self.outputs.append(digests)
        return busy


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run(workload: str, seed: int, seconds: float, trace: bool, spans_path: str) -> dict:
    import json

    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        expected = json.load(fh)
    runner = Runner(workload, seed, expected)
    result = {}
    start = time.monotonic()
    if not trace:
        busy = 0.0
        index = 0
        while time.monotonic() - start < HARD_LIMIT_S and (
            time.monotonic() - start < seconds or runner.attempted < MIN_JOBS
        ):
            busy += runner.run_round(index)
            index += 1
        result["busy_s"] = busy
    else:
        from spans import Tracer

        tracer = Tracer()
        plain = traced = 0.0
        for pair in range(trace_pairs(workload, seconds)):
            plain += runner.run_round(2 * pair)
            traced += runner.run_round(2 * pair + 1, tracer)
        tracer.write_spans(spans_path)
        result["trace"] = dict(tracer.summary(), plain_s=plain, traced_s=traced, spans_path=spans_path)
    result.update(
        attempted=runner.attempted,
        failed=len(runner.failures),
        failures=runner.failures[:20],
        latencies=runner.latencies,
        rounds=runner.rounds,
        jobs_per_round=runner.jobs_per_round,
        stdout_bytes=runner.stdout_bytes,
        rejected_instances=runner.rejected,
        wall_s=time.monotonic() - start,
        peak_rss_mb=peak_rss_mb(),
    )
    return result


def main(ready: float) -> int:
    import argparse
    import json
    import shutil
    import tempfile

    if sys.argv[1:] == ["--probe"]:
        print(repr(ready))
        return 0
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--spans", required=True, help="where the traced run writes its spans")
    args = parser.parse_args()
    spans_path = os.path.abspath(args.spans)
    # Cayley table files are written into a private directory and named
    # relative to it, so the CLI's output does not depend on where it is.
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    os.chdir(scratch)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), spans_path)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import gradedpi.cli  # noqa: F401  (the import is part of set-up time)

    READY = time.monotonic()
    sys.exit(main(READY))
