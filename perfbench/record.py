"""Record expected.json from the current commit.

    python3 perfbench/record.py

Writes the basis instance counts of every basis job class, and the SHA-256
prefix of every job's stdout over the first rounds of the default seed. The
benchmark fails a job whose output no longer matches. A job that fails its
check by construction while recording is listed on stderr, and it and a
basis job whose report rejects instances get no digest and no counts, so a
wrong output or a known defect is never recorded as the expected one.
Re-record only when a change to the CLI's output is intended.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: rounds recorded per workload: more than a 25-second run of this commit uses
RECORD_ROUNDS = {"check": 16, "basis": 40, "congruence": 20, "verify": 10}


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import worker

    expected = {"basis_counts": {}, "digests": {}}
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    os.chdir(scratch)
    try:
        for workload, rounds in RECORD_ROUNDS.items():
            runner = worker.Runner(workload, worker.DEFAULT_SEED, {})
            for index in range(rounds):
                runner.run_round(index, record=True)
            for line in runner.failures:
                print(f"not recorded, failed: {workload} {line}", file=sys.stderr)
            expected["digests"][workload] = runner.outputs
            expected["basis_counts"].update(runner.basis_counts)
            print(f"{workload}: {rounds} rounds, {runner.attempted} jobs")
    finally:
        os.chdir(ROOT)
        shutil.rmtree(scratch, ignore_errors=True)
    with open(worker.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
