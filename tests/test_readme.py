"""README against the package: the size-cap table against the ``MAX_*``
constants, every backticked ``gradedpi.<module>[.<name>]`` against the
package, and every Quick start command against the CLI."""

import importlib
import pathlib
import re
import shlex

import gradedpi
from gradedpi.cli import main

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
ROW = re.compile(r"^\| `gradedpi\.(\w+)\.(MAX_\w+)` *\| *(\w+) *\|", re.MULTILINE)
DOTTED = re.compile(r"`gradedpi\.([\w.]+)`")
QUICK_START = re.compile(r"^## Quick start\n+```sh\n(.*?)^```", re.MULTILINE | re.DOTALL)


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


def test_dotted_names_resolve():
    dotted = DOTTED.findall(README.read_text(encoding="utf-8"))
    assert dotted
    for path in dotted:
        module, *names = path.split(".")
        obj = importlib.import_module(f"gradedpi.{module}")
        for name in names:
            assert hasattr(obj, name), f"gradedpi.{path}"
            obj = getattr(obj, name)


def test_quick_start_commands_exit_0(capsys):
    block = QUICK_START.search(README.read_text(encoding="utf-8")).group(1)
    commands = [
        line for line in block.replace("\\\n", " ").splitlines() if line.startswith("gradedpi ")
    ]
    assert len(commands) == 6
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
        capsys.readouterr()
