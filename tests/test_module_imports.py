"""Every name a library module imports at module level is read somewhere in
that module, so deleting code cannot leave a stale import behind.

``__init__.py`` is exempt: its imports are the package's re-exports.
``from __future__`` imports bind no name.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "gradedpi"
MODULES = sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py")


def unread_imports(source: str):
    """(name, line) of every module-level import whose name the module
    never reads."""
    tree = ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unread = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names = [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names = [alias.asname or alias.name for alias in node.names]
        else:
            continue
        unread += [(name, node.lineno) for name in names if name not in read]
    return unread


@pytest.mark.parametrize("module", MODULES)
def test_every_module_level_import_is_read(module):
    unread = unread_imports((SRC / module).read_text(encoding="utf-8"))
    assert unread == [], f"{module} imports names it never reads: {unread}"


def test_the_check_sees_an_unread_import():
    source = "from __future__ import annotations\nimport os.path\nfrom typing import List, Tuple\nx: List[str] = [os.sep]\n"
    assert unread_imports(source) == [("Tuple", 3)]
