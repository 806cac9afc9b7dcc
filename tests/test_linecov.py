"""Line selection of tools/linecov.py on a toy source: statements inside
functions only, docstrings skipped, and a compound statement run when its
header or its body ran."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SPEC = importlib.util.spec_from_file_location("linecov", os.path.join(ROOT, "tools", "linecov.py"))
linecov = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(linecov)

TOY = '''\
LIMIT = 3


def first(a):
    """Docstring."""
    if a > LIMIT:
        return (
            a
        )
    try:
        b = a + 1
    except ValueError:
        b = 0
    return b


class Box:
    size = 2

    def second(self):
        def inner():
            return 1
        return inner
'''


def test_every_statement_inside_a_function_is_selected():
    assert linecov.unrun_lines(TOY, set()) == [6, 7, 10, 11, 13, 14, 21, 22, 23]


def test_a_statement_runs_by_any_of_its_lines_and_a_header_by_its_body():
    # line 8 is inside the return's parentheses; line 11 is the try body
    assert linecov.unrun_lines(TOY, {8, 11, 14, 21, 23}) == [13, 22]
