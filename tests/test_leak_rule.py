"""The suite's leak rule, checked in a fresh pytest: pyproject.toml's
`filterwarnings` fails a test that drops an open file object or a
`subprocess.Popen` still running."""

import pathlib
import subprocess
import sys

PYPROJECT = pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml"

LEAKS = '''
import os
import subprocess
import sys


def test_drops_a_pipe():
    read, write = os.pipe()
    os.close(write)
    os.fdopen(read, "rb")  # never closed: its finalizer warns


def test_drops_a_running_popen():
    proc = subprocess.Popen([sys.executable, "-c", "import sys; sys.stdin.read()"], stdin=subprocess.PIPE)
    pid, stdin = proc.pid, proc.stdin
    del proc  # the child reads stdin to EOF, so it is still running here
    stdin.close()
    os.waitpid(pid, 0)
'''


def test_a_test_that_leaks_a_pipe_or_a_running_subprocess_fails(tmp_path):
    (tmp_path / "test_leaks.py").write_text(LEAKS, encoding="utf-8")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_leaks.py"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    assert run.returncode == 1, run.stdout + run.stderr
    failed = [line.split()[1] for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    assert failed == ["test_leaks.py::test_drops_a_pipe", "test_leaks.py::test_drops_a_running_popen"], run.stdout
