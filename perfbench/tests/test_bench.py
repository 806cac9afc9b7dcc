"""Tests of the benchmark itself: run with ``python3 -m pytest -q perfbench/tests``."""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    SPEC = json.load(fh)

def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def run_tiny(workload, trace, seed=0):
    done = bench("--workload", workload, "--seed", str(seed), "--seconds", "1", "--trace", str(trace))
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines(), json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_prints_with_its_unit(workload, trace):
    lines, result = run_tiny(workload, trace)
    wanted = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]
    assert f"(base: 0 failed / {result['attempted']} attempted)" in "\n".join(lines)
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        value = result["metrics"][metric["name"]]
        assert value["unit"] == metric["unit"]
        assert any(line.startswith(f"{metric['name']} ") and f" {metric['unit']}" in line for line in lines)
    if trace == 0:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_family_15_check_uses_the_lift_oracle():
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    import jobs
    import worker

    lifts = jobs.integer_lifts(4)
    assert lifts[(1, 1, 1, -3)] is True  # partial sums 0, 1, 2, 3, 0 fit four rows
    assert lifts[(-3, -2, 3, 2)] is False  # every rotation's partial sums span 5
    proper = sum(lifts.values())
    job = jobs.Job([], "central/z:4", {"type": "basis", "class": "central/z:4", "counts": None, "lifts": 4})

    def report(verified, rejected):
        failures = [{"params": {"degrees": [str(g) for g in seq]}, "poly": ""} for seq in rejected]
        fam = {"id": "(15)", "instances": verified + len(rejected), "verified": verified, "failures": failures}
        return {"families": [fam], "truncated": False}

    assert worker._check_basis(job, 0, report(proper, [])) is None
    assert worker._check_basis(job, 1, report(proper, [(-3, -2, 3, 2)])) is None
    assert worker._check_basis(job, 0, report(proper, [(-3, -2, 3, 2)])) is not None
    assert worker._check_basis(job, 1, report(proper - 1, [(1, 1, 1, -3)])) is not None
    assert worker._check_basis(job, 0, report(proper - 1, [])) is not None


def test_traced_counters_repeat_exactly():
    def counters():
        _, result = run_tiny("basis", 1, seed=5)
        return {
            name: v["value"]
            for name, v in result["metrics"].items()
            if not name.endswith("_ms") and name != "trace_overhead_ratio"
        }

    first, second = counters(), counters()
    assert first == second
    assert first["bases.build_basis.calls"] > 0 and first["grading.row_walk.letters"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "check", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
