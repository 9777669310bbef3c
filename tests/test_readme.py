import doctest
import re
import shlex
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
