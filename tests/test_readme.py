import ast
import dataclasses
import doctest
import importlib
import inspect
import re
import shlex
import textwrap
from pathlib import Path

from prymdice.cli import main

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

# an upper-case word such as GRAPH or SUBCOMMAND stands for an argument
PLACEHOLDER = re.compile(r"\b[A-Z][A-Z_]+\b")


def test_readme_examples_run():
    result = doctest.testfile(str(README), module_relative=False)
    assert result.attempted > 0
    assert result.failed == 0


def _shell_examples():
    """Each line of a fenced README block that runs prymdice with real arguments."""
    fenced = README.read_text(encoding="utf-8").split("```")[1::2]
    return [
        line
        for block in fenced
        for line in block.splitlines()
        if line.startswith("prymdice ") and not PLACEHOLDER.search(line)
    ]


def test_readme_shell_examples_run(monkeypatch):
    examples = _shell_examples()
    assert examples
    monkeypatch.chdir(ROOT)
    for line in examples:
        assert main(shlex.split(line, comments=True)[1:]) == 0, line


IDENTIFIER = re.compile(r"[A-Za-z_]\w*(\.[A-Za-z_]\w*)?")


def _module_table():
    """(module name, backticked identifiers) for each row of "Library overview"."""
    section = README.read_text(encoding="utf-8").split("## Library overview", 1)[1]
    section = section.split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = line.split(" | ", 1)
        if not line.startswith("| `prymdice.") or len(cells) != 2:
            continue
        names = [
            name
            for name in re.findall(r"`([^`]+)`", cells[1])
            if IDENTIFIER.fullmatch(name) and len(name) > 1
        ]
        rows.append((cells[0].strip("| `"), names))
    return rows


def _class_names(cls) -> set:
    """Attributes, dataclass fields and attributes its __init__ assigns on self."""
    names = set(dir(cls))
    if dataclasses.is_dataclass(cls):
        names |= {field.name for field in dataclasses.fields(cls)}
    elif "__init__" in vars(cls):
        tree = ast.parse(textwrap.dedent(inspect.getsource(cls.__init__)))
        names |= {
            node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        }
    return names


def test_readme_module_table_names_real_things():
    rows = _module_table()
    assert len(rows) == 7
    for module_name, names in rows:
        module = importlib.import_module(module_name)
        classes = [
            cls
            for cls in vars(module).values()
            if inspect.isclass(cls) and cls.__module__ == module_name
        ]
        known = set(vars(module)).union(*map(_class_names, classes))
        for name in names:
            head, _, attr = name.partition(".")
            if attr:
                cls = getattr(module, head, None)
                assert inspect.isclass(cls) and attr in _class_names(cls), (module_name, name)
            else:
                assert name in known, (module_name, name)
