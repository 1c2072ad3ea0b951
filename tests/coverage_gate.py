"""A pytest plugin that fails the run on a src/cotsum line that never runs, or
a branch that only ever goes one way.

    PYTHONPATH=src:tests python -m pytest -q -p coverage_gate    # Python 3.12+

It takes PEP 669's sys.monitoring LINE and BRANCH events (a BRANCH is a
conditional jump or a for loop's next step) under a free tool id, claimed
when pytest imports it, before any cotsum import. An event is disabled once
seen, a branch's once its site has gone both ways, and other code's at once.
At the session's end each line that compiles to bytecode but never ran, and
each branch site that ran only one way, fails the run unless KNOWN names it.
Two rules need no name, each a jump on an exception's path: an `except`
clause's type test (right after CHECK_EXC_MATCH) may only ever match, since
an exception that no clause matches fails a test, and a `with` exit's
suppress test (right after WITH_EXCEPT_START; 3.13 puts a TO_BOOL between)
may only ever re-raise, since no context manager cotsum uses suppresses one.
A site that never ran is left to the lines: on a line that ran, only a jump
on an exception's path can be missed that way.
"""

import ast
import dis
import os
import sys
import types

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "cotsum") + os.sep

# What the pytest process cannot run: (file, function, header, ...) for one
# `if` statement, named by its function and the headers of the `if`
# statements down to its own. An entry excuses the statement's test and its
# body's lines; it must name exactly one statement. It is named, not
# numbered, so that a line shift leaves the list as it is.
KNOWN = [
    ("distribution.py", "_fork", "if pid == 0"),  # its body runs only in the forked child
]
# the op before a jump (TO_BOOL passed over) that puts it on an exception's path
_ONE_WAY_AFTER = {"CHECK_EXC_MATCH", "WITH_EXCEPT_START"}

_mon = sys.monitoring
# PEP 669 names 0, 1, 2 and 5 (debugger, coverage, profiler, optimizer), and
# Hypothesis takes 3 to explain a failure
_TOOL = next(tool for tool in (4, 3, 2, 0, 5) if _mon.get_tool(tool) is None)
_ran: set[tuple[str, int]] = set()
_first: dict[tuple[types.CodeType, int], int] = {}  # (code, offset): the first destination
_both: set[tuple[types.CodeType, int]] = set()


def _line(code, line):
    if code.co_filename.startswith(SRC):
        _ran.add((code.co_filename, line))
    return _mon.DISABLE


def _branch(code, offset, dest):
    if not code.co_filename.startswith(SRC):
        return _mon.DISABLE
    if _first.setdefault((code, offset), dest) != dest:
        _both.add((code, offset))
        return _mon.DISABLE
    return None


_mon.use_tool_id(_TOOL, "cotsum coverage gate")
_mon.register_callback(_TOOL, _mon.events.LINE, _line)
_mon.register_callback(_TOOL, _mon.events.BRANCH, _branch)
_mon.set_events(_TOOL, _mon.events.LINE | _mon.events.BRANCH)


def _text(lines: list[str], pos) -> str:
    """The source a jump's position spans, on one line."""
    span = [line.encode() for line in lines[pos.lineno - 1:pos.end_lineno]]  # columns count UTF-8 bytes
    span[-1] = span[-1][:pos.end_col_offset]
    span[0] = span[0][pos.col_offset:]
    return " ".join(b" ".join(span).decode().split())


def _statements(node, path=()):
    """(path, statement) for each `if` in a function, path as KNOWN names it."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield from _statements(child, (child.name,))
            continue
        here = path
        if path and isinstance(child, ast.If):
            here = path + (f"if {ast.unparse(child.test)}",)
            yield here, child
        yield from _statements(child, here)


def _excused(name: str, tree: ast.Module) -> tuple[set[tuple], set[int], list[str]]:
    """The spans of the tests that KNOWN names in this file, the body lines it
    excuses, and a complaint for each entry that names no statement or several."""
    named = {entry[1:]: [] for entry in KNOWN if entry[0] == name}
    for path, node in _statements(tree):
        if path in named:
            named[path].append(node)
    spans, lines, bad = set(), set(), []
    for path, nodes in named.items():
        if len(nodes) != 1:
            bad.append(f"{name} KNOWN entry {' / '.join(path)} names {len(nodes)} statements")
            continue
        test, body = nodes[0].test, nodes[0].body
        spans.add((test.lineno, test.end_lineno, test.col_offset, test.end_col_offset))
        lines.update(range(body[0].lineno, body[-1].end_lineno + 1))
    return spans, lines, bad


def _misses(name: str) -> list[tuple[int, str]]:
    path = SRC + name
    with open(path) as handle:
        source = handle.read()
    lines = source.splitlines()
    spans, known_lines, bad = _excused(name, ast.parse(source))
    first = {(c.co_qualname, c.co_firstlineno, at): to for (c, at), to in _first.items() if c.co_filename == path}
    both = {(c.co_qualname, c.co_firstlineno, at) for c, at in _both if c.co_filename == path}
    missed, executable, todo = [(0, text) for text in bad], set(), [compile(source, path, "exec", dont_inherit=True)]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        executable.update(line for _, _, line in code.co_lines() if line)
        previous, claimed = None, set()
        for ins in dis.get_instructions(code):
            key = (code.co_qualname, code.co_firstlineno, ins.offset)
            span = tuple(ins.positions)
            if ins.opname.startswith("POP_JUMP_IF") and span in spans and span not in claimed:
                claimed.add(span)  # the first jump of a KNOWN statement
            elif key in first and key not in both and previous not in _ONE_WAY_AFTER:
                text = _text(lines, ins.positions)
                missed.append((ins.positions.lineno, f"{name}:{ins.positions.lineno} {code.co_qualname}: `{text}` only went to offset {first[key]}"))
            if ins.opname != "TO_BOOL":
                previous = ins.opname
    ran = {line for file, line in _ran if file == path}
    return missed + [(line, f"{name}:{line} never ran") for line in executable - known_lines - ran]


_missed: list[str] = []


def pytest_sessionfinish(session: pytest.Session) -> None:
    _mon.set_events(_TOOL, 0)
    _mon.free_tool_id(_TOOL)
    _missed.extend(f"KNOWN entry {entry} names no file" for entry in KNOWN if not os.path.isfile(SRC + entry[0]))
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            _missed.extend(text for _, text in sorted(_misses(name)))
    if _missed:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED


def pytest_terminal_summary(terminalreporter) -> None:
    terminalreporter.write_sep("-", f"coverage gate: {len(_missed)} unrun line(s) or one-way branch(es) in src/cotsum", red=bool(_missed))
    for line in _missed:
        terminalreporter.write_line(f"  {line}")
