"""In-process A/B comparison of two gradedpi checkouts on one benchmark workload.

    python3 tools/inprocess_ab.py --workload check --seed 941 --rounds 6 PARENT CHANGE

Starts one worker process per checkout. Each worker imports ``gradedpi.cli``
from its checkout's ``src`` and the job generator from ``perfbench/jobs.py``
(by default the one next to this tool, read as it is), so both sides run the
same argv. Round by round, alternating which side goes first, the workers run
every job of the round through ``gradedpi.cli.main`` with stdout and stderr
captured, timing only the call. At the end the tool prints, per side, the
busy-time jobs/s (jobs over the summed call times), the median and 90th
percentile job time, and one SHA-256 digest over every job's exit code,
stdout and stderr, in order; equal digests mean byte-identical output.
``--by-label`` also prints each side's busy milliseconds per job class, the
job label's text before its first ``/`` (``s7``, ``(2)+walk``, ``384``), so
an A/B shows where a gain lands.

Standard library only. The two workers never run at the same time.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_JOBS = os.path.join(os.path.dirname(HERE), "perfbench", "jobs.py")


def worker(checkout: str, jobs_path: str, workload: str, seed: int) -> int:
    """Read round indices from stdin, one a line; answer each with one JSON
    line: per job, its call time, its label and the digest of its exit code
    and output."""
    sys.path.insert(0, os.path.join(checkout, "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(jobs_path)))
    from gradedpi import cli
    from jobs import make_round

    # Cayley tables are written here and named relative to it, as the
    # benchmark does, so the output does not depend on the checkout's path
    with tempfile.TemporaryDirectory(prefix="inprocess-ab-") as scratch:
        os.chdir(scratch)
        for line in sys.stdin:
            rnd = make_round(workload, seed, int(line))
            for name, text in rnd.files.items():
                with open(name, "w", encoding="utf-8") as fh:
                    fh.write(text)
            results = []
            for job in rnd.jobs:
                out, err = io.StringIO(), io.StringIO()
                start = time.perf_counter()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main(list(job.argv))
                    except Exception as exc:  # a crash is an outcome to compare, not a stop
                        code = f"raised {type(exc).__name__}: {exc}"
                seconds = time.perf_counter() - start
                blob = f"{code}\0{out.getvalue()}\0{err.getvalue()}\0".encode("utf-8")
                results.append([seconds, job.label, hashlib.sha256(blob).hexdigest()])
            for name in rnd.files:
                os.remove(name)
            print(json.dumps(results), flush=True)
    return 0


def summary(times: list, digests: list) -> dict:
    cuts = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "jobs": len(times),
        "jobs_per_s": len(times) / sum(times),
        "p50_ms": statistics.median(times) * 1000,
        "p90_ms": cuts[8] * 1000,
        "digest": hashlib.sha256("".join(digests).encode("ascii")).hexdigest()[:16],
    }


def by_label(labels: list, times: list) -> None:
    """Print both sides' busy milliseconds per job class, largest A first."""
    busy = [{}, {}]
    for s in (0, 1):
        for label, seconds in zip(labels[s], times[s]):
            key = label.split("/", 1)[0]
            busy[s][key] = busy[s].get(key, 0.0) + seconds * 1000
    print(f"{'class':<12} {'A ms':>10} {'B ms':>10} {'B/A':>6}")
    for key in sorted(busy[0], key=lambda k: (-busy[0][k], k)):
        a, b = busy[0][key], busy[1].get(key, 0.0)
        print(f"{key:<12} {a:>10.1f} {b:>10.1f} {b / a if a else float('nan'):>6.2f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("check", "basis", "congruence", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--rounds", type=int, default=4)
    parser.add_argument("--jobs", default=DEFAULT_JOBS, help="the job generator to read (default: %(default)s)")
    parser.add_argument("--by-label", action="store_true", help="also print busy ms per job class (label before '/')")
    parser.add_argument("--worker", metavar="CHECKOUT", help=argparse.SUPPRESS)
    parser.add_argument("checkouts", nargs="*", metavar="CHECKOUT")
    args = parser.parse_args(argv)
    if args.worker:
        return worker(args.worker, args.jobs, args.workload, args.seed)
    if len(args.checkouts) != 2:
        parser.error("give two checkouts: A and B")
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")
    sides = [os.path.abspath(c) for c in args.checkouts]
    procs = [
        subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--worker", side, "--jobs", args.jobs,
             "--workload", args.workload, "--seed", str(args.seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        for side in sides
    ]
    times = [[], []]
    labels = [[], []]
    digests = [[], []]
    try:
        for index in range(args.rounds):
            for s in (0, 1) if index % 2 == 0 else (1, 0):
                procs[s].stdin.write(f"{index}\n")
                procs[s].stdin.flush()
                line = procs[s].stdout.readline()
                if not line:
                    raise SystemExit(f"worker for {sides[s]} stopped in round {index}")
                for seconds, label, digest in json.loads(line):
                    times[s].append(seconds)
                    labels[s].append(label)
                    digests[s].append(digest)
    finally:
        for proc in procs:
            proc.stdin.close()
            proc.wait(timeout=60)
    print(f"workload {args.workload}, seed {args.seed}, {args.rounds} rounds, alternating")
    results = [summary(times[s], digests[s]) for s in (0, 1)]
    for name, side, res in zip("AB", sides, results):
        print(
            f"{name} {side}: {res['jobs']} jobs, {res['jobs_per_s']:.1f} jobs/s busy, "
            f"p50 {res['p50_ms']:.2f} ms, p90 {res['p90_ms']:.2f} ms, digest {res['digest']}"
        )
    if args.by_label:
        by_label(labels, times)
    same = results[0]["digest"] == results[1]["digest"]
    print("digests equal" if same else "DIGESTS DIFFER")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
