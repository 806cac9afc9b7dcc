"""Statement lines of the library that no test runs.

    python3 tools/linecov.py                  # the whole tier-1 suite
    python3 tools/linecov.py tests/test_cli.py -q

Runs pytest in this process, with any arguments given (default ``-q
tests``, from the repository root), under a ``sys.settrace`` recorder that traces only frames of code
in ``src/gradedpi``. Then it prints, per module, the statement lines inside
functions and methods that never ran: the first line of each statement,
docstrings skipped. A compound statement (``if``, ``for``, ``try``, ...)
counts as run when its header or any statement in its body ran. Module-level
code and class bodies run at import and are not listed.

Lines run only in a child process, such as the CLI tests that start
``gradedpi`` through ``subprocess``, are invisible to the recorder. Tracing
every call makes the suite several times slower.

Standard library only.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from types import CodeType
from typing import Dict, Iterator, List, Optional, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "gradedpi")


def _body_statements(body: List[ast.stmt]) -> Iterator[ast.stmt]:
    """The statements of a function body, docstring skipped, in order."""
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) and isinstance(body[0].value.value, str):
        body = body[1:]
    return iter(body)


def _children(stmt: ast.stmt) -> Iterator[ast.stmt]:
    """The statements nested directly in a compound statement."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return
    if isinstance(stmt, ast.ClassDef):
        yield from _body_statements(stmt.body)
        return
    for field in ("body", "orelse", "finalbody"):
        yield from getattr(stmt, field, ())
    for handler in getattr(stmt, "handlers", ()):
        yield from handler.body
    for case in getattr(stmt, "cases", ()):
        yield from case.body


def _functions(tree: ast.AST) -> Iterator[ast.stmt]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def unrun_lines(source: str, hits: Set[int]) -> List[int]:
    """First lines of the statements inside the functions of ``source`` that
    did not run, given the set of line numbers that did."""
    unrun: Set[int] = set()

    def ran(stmt: ast.stmt) -> bool:
        children = list(_children(stmt))
        nested = [ran(child) for child in children]
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            last = stmt.lineno
        elif children:
            last = children[0].lineno - 1
        else:
            last = stmt.end_lineno
        done = any(nested) or any(line in hits for line in range(stmt.lineno, last + 1))
        if not done:
            unrun.add(stmt.lineno)
        return done

    for func in _functions(ast.parse(source)):
        for stmt in _body_statements(func.body):
            ran(stmt)
    return sorted(unrun)


def _recorder(hits: Dict[str, Set[int]]):
    """A global trace function that records the line events of frames whose
    code lies in the package, into ``hits`` keyed by file name."""
    lines_of: Dict[CodeType, Optional[Set[int]]] = {}

    def on_line(frame, event, arg):
        if event == "line":
            lines_of[frame.f_code].add(frame.f_lineno)
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if code not in lines_of:
            name = code.co_filename
            lines_of[code] = hits.setdefault(name, set()) if name.startswith(PACKAGE + os.sep) else None
        return on_line if lines_of[code] is not None else None

    return on_call


def main(argv: List[str]) -> int:
    import pytest

    sys.path.insert(0, os.path.dirname(PACKAGE))
    hits: Dict[str, Set[int]] = {}
    tracer = _recorder(hits)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", os.path.join(ROOT, "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            unrun = unrun_lines(fh.read(), hits.get(path, set()))
        rel = os.path.relpath(path, ROOT)
        print(f"{rel}: {len(unrun)} unrun" + (": " + ", ".join(map(str, unrun)) if unrun else ""))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
