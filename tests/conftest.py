"""Shared test helpers: `run_cli`, the one way a test drives the CLI in this
process; `traced_peak`, the peak memory one call traces; `run_python` and
`run_cotsum` for tests of a fresh interpreter; the acceptance battery, one
`cotsum verify` child started at collection that works beside the rest of
the suite and that the acceptance gate and the CLI contract both read;
`forked_children_reaped`, which fails a test that leaves a forked child
unreaped; and `fork_here`, which runs each share a test would fork in the
test's own process.

`forked_children_reaped` is one half of the suite's leak rule. The other is
pyproject.toml's `filterwarnings`, which makes a ResourceWarning an error, and
so fails every test that drops an open file object (a pipe's, say) or a
`subprocess.Popen` still running: pytest reports the error raised in its
finalizer as a PytestUnraisableExceptionWarning, an error too. A bare
`os.fork()` child warns nothing, hence the fixture."""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import tempfile
import tracemalloc
from typing import IO

import pytest

from cotsum import cli, distribution

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# fixture name: the `python -m cotsum` argv of the child it waits for. The
# acceptance tests that read them run last.
CHILDREN = {
    "battery_child": ("verify", "--max-b", "500", "--max-n", "2000", "--seed", "42", "--report", "-"),
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


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc traced while it ran).

    A line tracer that sys.settrace installed, a coverage run's say, would
    allocate as it records lines, so it is suspended for the call and
    restored after it.
    """
    tracer = sys.gettrace()
    sys.settrace(None)
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        sys.settrace(tracer)


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

    def start(self, name: str) -> subprocess.Popen:
        if name not in self.started:
            # progress lines go to a file, read only if the child fails
            stderr = tempfile.TemporaryFile()
            proc = subprocess.Popen(
                [sys.executable, "-m", "cotsum", *CHILDREN[name]],
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
            pytest.fail(f"cotsum {' '.join(CHILDREN[name])} exited {proc.returncode}:\n{tail}")
        return proc.returncode, out

    def close(self) -> None:
        for proc, stderr in self.started.values():
            if proc.poll() is None:  # the run stopped before a test read it
                proc.kill()
                proc.wait()
            proc.stdout.close()
            stderr.close()


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
def battery_child(pytestconfig: pytest.Config) -> tuple[int, bytes]:
    """(exit code, stdout) of `cotsum verify --max-b 500 --max-n 2000 --seed 42 --report -`."""
    return pytestconfig.stash[_CHILD_RUNS].wait("battery_child")


@pytest.fixture(autouse=True)
def forked_children_reaped(monkeypatch: pytest.MonkeyPatch):
    """Each child that distribution forks in a test is reaped by the test's end.

    A bare os.fork() child left unreaped raises no ResourceWarning, so a
    wrapper of os.fork, as distribution sees it, records each child's pid and
    the teardown asks for each one: os.waitpid(pid, WNOHANG) raises
    ChildProcessError only once the pid has been reaped. waitpid(-1, ...)
    would also see the acceptance child. A test that uses fork_here, the
    stand-in for distribution._fork, forks nothing here.
    """
    pids = []
    fork = getattr(distribution.os, "fork", None)

    def recording():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    if fork is not None:  # without os.fork every share runs here
        monkeypatch.setattr(distribution.os, "fork", recording)
    yield
    for pid in pids:
        with pytest.raises(ChildProcessError):  # no longer a child of this process
            os.waitpid(pid, os.WNOHANG)


@pytest.fixture
def fork_here(monkeypatch: pytest.MonkeyPatch) -> list[list[int]]:
    """A stand-in for distribution._fork that runs each forked share in this process.

    It returns the list it fills: the items of each share handed to the fork
    step, in the order they were forked. So no process is started however
    large workers is. A forked job that forks again fails the test, since a
    kill of the children would not reach a grandchild.
    """
    forked = []
    forking = []  # the share the stand-in is running, if any

    def fork(fn, share):
        if forking:
            pytest.fail("a forked job forked again")
        forking.append(share)
        try:
            results = [fn(x) for x in share]
        finally:
            forking.pop()
        forked.append(share)
        return lambda kill=False: results

    monkeypatch.setattr(distribution, "_fork", fork)
    return forked
