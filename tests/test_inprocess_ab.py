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
