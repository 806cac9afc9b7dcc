"""Every function, class and non-dunder method the library defines is read
somewhere in the library, so a member that nothing reaches shows up.

A definition counts as read when its name appears in ``src/gradedpi`` as a
loaded name or an attribute outside the definition's own body.  Names are
matched without their class, so a method shares its reads with every
attribute of the same name.  Exempt are the names ``__init__.py``
re-exports, the package's API, and ``KEPT``: members with no caller in the
library that are kept on purpose.
"""

import ast
import pathlib
from collections import Counter

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gradedpi"

#: the neutral degree is part of a grading's documented data, and
#: ``SparsePoly.monomial`` builds an entry from its exponents
KEPT = {"ElementaryGrading.neutral", "SparsePoly.monomial"}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(tree: ast.Module):
    """(qualified name, node) of every module-level function and class and
    of every non-dunder member defined in a class body."""
    for node in tree.body:
        if isinstance(node, _DEFS):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, _DEFS) and not (item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def _reads(node: ast.AST) -> Counter:
    """How often each name is loaded, or read as an attribute, under ``node``."""
    reads = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            reads[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            reads[sub.attr] += 1
    return reads


def unread_definitions(sources: dict, exempt=frozenset()) -> list:
    """``module:qualified name`` of each definition in ``sources`` (module
    name to text) that no code in them reads outside the definition."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    total = sum((_reads(tree) for tree in trees.values()), Counter())
    return [
        f"{module}:{qualified}"
        for module, tree in sorted(trees.items())
        for qualified, node in _definitions(tree)
        if qualified not in exempt and total[node.name] == _reads(node)[node.name]
    ]


def test_every_definition_is_read():
    sources = {p.name: p.read_text(encoding="utf-8") for p in sorted(SRC.glob("*.py"))}
    exports = {
        alias.asname or alias.name
        for node in ast.parse(sources["__init__.py"]).body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    unread = unread_definitions(sources, exports | KEPT)
    assert unread == [], f"the library defines members it never reads: {unread}"


def test_the_check_sees_an_unread_definition():
    sources = {
        "a.py": (
            "def used(): return 1\n"
            "def recursive(k): return recursive(k - 1) if k else used()\n"
            "def exported(): pass\n"
            "class Box:\n"
            "    def __init__(self): self.value = 0\n"
            "    def read(self): return self.value\n"
            "    def unread(self): pass\n"
        ),
        "b.py": "from a import Box\nprint(Box().read())\n",
    }
    assert unread_definitions(sources, {"exported"}) == ["a.py:recursive", "a.py:Box.unread"]
