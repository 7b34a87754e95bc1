"""An opt-in line tracer: the statements of the package a test run never
executes.

A pytest plugin using only the standard library. Its name does not
match ``test_*.py``, so a plain run never collects it; load it by name,
from the repository root:

    PYTHONPATH=src:tests python -m pytest -p linecov tests

It traces with ``sys.settrace`` and ``threading.settrace`` from
``pytest_configure`` on, before the tests import the package, so
module-level statements count. Only frames whose code lives in the
package directory are traced line by line. At the end of the session
it lists every statement of the package that no line event reached, as
``path:line: source``, in the terminal summary. The whole suite runs
about twice as long traced.

It cannot see statements that run only in a child process, such as the
command line tests' ``python -m xpdp`` runs: those are listed as not
executed.

A statement counts as executed when a line event falls on one of its
own lines: all of them for a simple statement, the header (up to its
first nested statement) for a compound one. Docstrings and other
constant expressions compile to no code and are not listed; neither
are ``try:`` and ``else:`` headers, which emit no event of their own.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import sys
import threading
from pathlib import Path

# Found without importing the package, which must first run traced.
PACKAGE = Path(importlib.util.find_spec("xpdp").origin).resolve().parent
_PREFIX = str(PACKAGE) + os.sep

# Every (file name, line) a line event reached in the package.
_hits: set[tuple[str, int]] = set()


def _local(frame, event, arg):
    if event == "line":
        _hits.add((frame.f_code.co_filename, frame.f_lineno))
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_PREFIX):
        return _local
    return None


def _own_lines(node: ast.stmt) -> range:
    """The lines of ``node`` that are not lines of a nested statement."""
    nested = [
        child.lineno
        for field in ("body", "orelse", "finalbody", "handlers", "cases")
        for child in getattr(node, field, ())
    ]
    end = min(nested) if nested else node.end_lineno + 1
    start = min([node.lineno, *(d.lineno for d in getattr(node, "decorator_list", ()))])
    return range(start, end)


def statements(path: Path):
    """``(line, own lines)`` for each statement of ``path`` that compiles
    to code of its own."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if not isinstance(node, ast.stmt) or isinstance(node, ast.Try):
            continue
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            continue
        yield node.lineno, _own_lines(node)


def missed() -> list[tuple[Path, int]]:
    """The package's statements no line event reached, by file and line."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        name = str(path)
        for line, own in statements(path):
            if not any((name, n) in _hits for n in own):
                found.append((path, line))
    return sorted(set(found))


def pytest_configure(config):
    threading.settrace(_global)
    sys.settrace(_global)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    rows = missed()
    terminalreporter.section(f"linecov: {len(rows)} statements of {PACKAGE.name} never executed")
    sources = {}
    for path, line in rows:
        lines = sources.setdefault(path, path.read_text().splitlines())
        terminalreporter.write_line(f"{os.path.relpath(path)}:{line}: {lines[line - 1].strip()}")
