"""The coverage gate, checked in a fresh pytest: `-p coverage_gate` over one
test file, which runs only part of src/cotsum, fails a run whose tests all
pass, naming lines that never ran and branches that only went one way."""

import os
import pathlib
import subprocess
import sys

import pytest

TESTS = pathlib.Path(__file__).resolve().parent


@pytest.mark.skipif(sys.version_info < (3, 12), reason="sys.monitoring is Python 3.12+")
def test_the_gate_fails_a_run_that_leaves_lines_unrun_and_branches_one_way():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(TESTS.parent / "src"), str(TESTS), env.get("PYTHONPATH")) if p)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-p", "coverage_gate", "test_errors.py"],
        capture_output=True, text=True, timeout=120, cwd=TESTS, env=env,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    lines = run.stdout.splitlines()
    assert " passed in " in lines[-1] and "failed" not in lines[-1], run.stdout  # the gate alone fails it
    assert any(line.endswith(" never ran") for line in lines), run.stdout
    assert any(" only went to offset " in line for line in lines), run.stdout
