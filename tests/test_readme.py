"""README's size-cap table against the package's ``MAX_*`` constants."""

import importlib
import pathlib
import re

import gradedpi

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `gradedpi\.(\w+)\.(MAX_\w+)` *\| *(\w+) *\|", re.MULTILINE)


def test_size_cap_table_matches_the_constants():
    rows = ROW.findall(README.read_text(encoding="utf-8"))
    documented = {name: (module, value) for module, name, value in rows}
    assert len(documented) == len(rows), "a constant has two rows"
    exported = {name for name in dir(gradedpi) if name.startswith("MAX_")}
    assert set(documented) == exported
    for name, (module, value) in documented.items():
        assert getattr(importlib.import_module(f"gradedpi.{module}"), name, None) is getattr(
            gradedpi, name
        ), f"{name} is not in gradedpi.{module}"
        assert int(value) == getattr(gradedpi, name), name
