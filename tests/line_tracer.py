"""A pytest plugin that fails the run if an executable line of src/cotsum never runs.

    PYTHONPATH=src:tests python -m pytest -q -p line_tracer

A sys.settrace tracer, started when pytest imports the plugin and so before
any cotsum import, records each (file, line) that runs in this process. At
the session's end every line that compiles to bytecode but never ran is
listed, and the run fails, unless KNOWN names it. It makes tier-1 several
times slower, so it is a CI job of its own, not part of the tier-1 command.
"""

import ast
import os
import sys
import types

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "cotsum") + os.sep

# (file, function, the test of an `if` in it), or (file, None, None) for a
# whole file: lines this process cannot see. They are named, not numbered, so
# that a line shift leaves the list as it is.
KNOWN = [
    ("__main__.py", None, None),  # runs only in a fresh interpreter
    ("distribution.py", "_fork", "pid == 0"),  # the branch runs only in the forked child
]

_ran: set[tuple[str, int]] = set()


def _lines(frame, event, arg):
    if event == "line":
        _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _calls(frame, event, arg):
    if not frame.f_code.co_filename.startswith(SRC):
        return None  # no line events for the frames of other code
    _ran.add((frame.f_code.co_filename, frame.f_lineno))
    return _lines


def _executable(source: str, path: str) -> set[int]:
    lines, todo = set(), [compile(source, path, "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    return lines


def _known(name: str, source: str, path: str) -> set[int]:
    """The lines of this file that KNOWN names."""
    lines = set()
    for file, fn, test in KNOWN:
        if file == name and fn is None:
            lines |= _executable(source, path)
        elif file == name:
            for node in ast.walk(ast.parse(source)):
                if isinstance(node, ast.FunctionDef) and node.name == fn:
                    for branch in ast.walk(node):
                        if isinstance(branch, ast.If) and ast.unparse(branch.test) == test:
                            lines.update(range(branch.body[0].lineno, branch.body[-1].end_lineno + 1))
    return lines


sys.settrace(_calls)
_missed: list[str] = []


def pytest_sessionfinish(session: pytest.Session) -> None:
    sys.settrace(None)
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            path = SRC + name
            with open(path) as handle:
                source = handle.read()
            ran = {line for file, line in _ran if file == path}
            _missed.extend(f"{name}:{line}" for line in sorted(_executable(source, path) - _known(name, source, path) - ran))
    if _missed:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter) -> None:
    terminalreporter.write_sep("-", f"line tracer: {len(_missed)} src/cotsum line(s) never ran", red=bool(_missed))
    for line in _missed:
        terminalreporter.write_line(f"  {line}")
