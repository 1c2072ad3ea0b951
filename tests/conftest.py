"""Shared test helpers: `run_cli`, the one way a test drives the CLI in this
process; `run_python` and `run_cotsum` for tests of a fresh interpreter; and
the acceptance tests' `cotsum verify` runs, started at collection as children
that work beside the rest of the suite."""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import subprocess
import sys
import tempfile
from typing import IO

import pytest

from cotsum import cli

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# fixture name: the `python -m cotsum` argv of the child it waits for, {tmp}
# a directory of the run's own. The acceptance tests that read them run last.
CHILDREN = {
    "battery_stdout": ("verify", "--max-b", "500", "--max-n", "2000", "--seed", "42", "--report", "-"),
    "contract_verify": ("verify", "--max-b", "100", "--max-n", "500", "--seed", "42",
                        "--report", "{tmp}/report.json"),
}


def run_cli(*argv: str) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of cli.main(argv) in this process.

    argparse's SystemExit counts as its code, as it would for `python -m cotsum`.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def child_env() -> dict[str, str]:
    """os.environ with this checkout's `src` first on PYTHONPATH.

    pytest's `pythonpath` setting reaches only the pytest process, so without
    this a child of an uninstalled checkout cannot import cotsum.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def run_python(*args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    """A fresh `python args` with this checkout's `src` first on its PYTHONPATH."""
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, timeout=timeout, env=child_env()
    )


def run_cotsum(*args: str, timeout: float = 300) -> subprocess.CompletedProcess:
    return run_python("-m", "cotsum", *args, timeout=timeout)


class ChildRuns:
    """The CHILDREN of one pytest run: each started once, waited for by its fixture."""

    def __init__(self) -> None:
        self.started: dict[str, tuple[subprocess.Popen, IO[bytes]]] = {}
        self.tmp: str | None = None

    def argv(self, name: str) -> list[str]:
        if self.tmp is None:
            self.tmp = tempfile.mkdtemp(prefix="cotsum-tests-")
        return [arg.format(tmp=self.tmp) for arg in CHILDREN[name]]

    def start(self, name: str) -> subprocess.Popen:
        if name not in self.started:
            # progress lines go to a file, read only if the child fails
            stderr = tempfile.TemporaryFile()
            proc = subprocess.Popen(
                [sys.executable, "-m", "cotsum", *self.argv(name)],
                stdout=subprocess.PIPE, stderr=stderr, env=child_env(),
            )
            self.started[name] = (proc, stderr)
        return self.started[name][0]

    def wait(self, name: str) -> tuple[int, bytes]:
        """(exit code, stdout); exit 1 is a failing report, which the tests name."""
        proc = self.start(name)
        out, _ = proc.communicate(timeout=900)
        if proc.returncode not in (0, 1):
            stderr = self.started[name][1]
            stderr.seek(0)
            tail = stderr.read().decode(errors="replace")[-2000:]
            pytest.fail(f"cotsum {' '.join(self.argv(name))} exited {proc.returncode}:\n{tail}")
        return proc.returncode, out

    def close(self) -> None:
        for proc, stderr in self.started.values():
            if proc.poll() is None:  # the run stopped before a test read it
                proc.kill()
                proc.wait()
            proc.stdout.close()
            stderr.close()
        if self.tmp is not None:
            shutil.rmtree(self.tmp, ignore_errors=True)


_CHILD_RUNS = pytest.StashKey[ChildRuns]()


def pytest_configure(config: pytest.Config) -> None:
    config.stash[_CHILD_RUNS] = ChildRuns()


def pytest_collection_modifyitems(items: list[pytest.Item]) -> None:
    # the acceptance tests wait on the children, so every other test runs first
    items.sort(key=lambda item: item.path.name == "test_acceptance.py")


def pytest_collection_finish(session: pytest.Session) -> None:
    # after deselection: start only the children a selected test reads
    for name in CHILDREN:
        if any(name in getattr(item, "fixturenames", ()) for item in session.items):
            session.config.stash[_CHILD_RUNS].start(name)


def pytest_sessionfinish(session: pytest.Session) -> None:
    session.config.stash[_CHILD_RUNS].close()


@pytest.fixture(scope="session")
def battery_stdout(pytestconfig: pytest.Config) -> bytes:
    """The bytes `cotsum verify --max-b 500 --max-n 2000 --seed 42 --report -` writes."""
    return pytestconfig.stash[_CHILD_RUNS].wait("battery_stdout")[1]


@pytest.fixture(scope="session")
def contract_verify(pytestconfig: pytest.Config) -> tuple[int, str]:
    """(exit code, report path) of `cotsum verify --max-b 100 --max-n 500 --seed 42 --report PATH`."""
    children = pytestconfig.stash[_CHILD_RUNS]
    return children.wait("contract_verify")[0], children.argv("contract_verify")[-1]
