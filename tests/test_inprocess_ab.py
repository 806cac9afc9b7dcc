"""Smoke test of tools/inprocess_ab.py: one congruence round of this
checkout against itself, so a change to the benchmark's job generator that
breaks the tool shows here."""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_one_round_of_this_checkout_against_itself():
    tool = os.path.join(ROOT, "tools", "inprocess_ab.py")
    argv = [sys.executable, tool, "--workload", "congruence", "--seed", "0", "--rounds", "1", ROOT, ROOT]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "digests equal" in proc.stdout


def test_by_label_prints_busy_time_per_job_class():
    tool = os.path.join(ROOT, "tools", "inprocess_ab.py")
    argv = [sys.executable, tool, "--workload", "check", "--seed", "0", "--rounds", "1", "--by-label", ROOT, ROOT]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    header = lines.index(f"{'class':<12} {'A ms':>10} {'B ms':>10} {'B/A':>6}")
    classes = {line.split()[0] for line in lines[header + 1 : -1]}
    assert {"s5", "s6", "s7", "(2)+walk"} <= classes
    assert lines[-1] == "digests equal"
