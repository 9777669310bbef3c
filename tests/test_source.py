"""Checks on the library's source text."""

import ast
import sys
from pathlib import Path

import prymdice


def _nodes(directory):
    sources = sorted(directory.glob("*.py"))
    assert len(sources) >= 10
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path, node


def _library_nodes():
    return _nodes(Path(prymdice.__file__).parent)


def test_library_has_no_assert_statements():
    # ``python -O`` strips assert statements, so a runtime check written as
    # one would vanish there; library checks raise exceptions instead
    found = [
        f"{path.name}:{node.lineno}"
        for path, node in _library_nodes()
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _imported_modules(nodes=None):
    """(file name, module) for every absolute import among ``nodes``, by
    default the library's."""
    imported = set()
    for path, node in nodes or _library_nodes():
        if isinstance(node, ast.Import):
            imported.update((path.name, alias.name) for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            imported.add((path.name, node.module))
    return imported


def test_library_imports_only_itself_and_the_standard_library():
    # the package declares no runtime dependencies
    imported = _imported_modules()
    outside = sorted(
        (name, module)
        for name, module in imported
        if module.split(".")[0] not in sys.stdlib_module_names | {"prymdice"}
    )
    assert outside == []
    assert ("cli.py", "argparse") in imported


def test_tests_import_only_pytest_the_package_and_the_standard_library():
    # the test extra is pytest alone: randomized tests draw from seeded_rng
    # and the reference implementations live in oracles.py
    allowed = sys.stdlib_module_names | {"pytest", "prymdice", "conftest", "oracles"}
    imported = _imported_modules(_nodes(Path(__file__).parent))
    outside = sorted((name, module) for name, module in imported if module.split(".")[0] not in allowed)
    assert outside == []
    assert ("test_enumerate.py", "oracles") in imported


def test_only_graph_imports_fractions():
    # half-integers are held doubled as integers; Fractions appear only in
    # graph.py, where cochains read input and show their coefficients
    importers = {name for name, module in _imported_modules() if module == "fractions"}
    assert importers == {"graph.py"}


def test_no_library_module_imports_another_modules_private_name():
    # an underscore name belongs to its module; a decision two modules need
    # lives behind a public name in one of them
    found = sorted(
        f"{path.name}: {alias.name}"
        for path, node in _library_nodes()
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "prymdice")
        for alias in node.names
        if alias.name.startswith("_")
    )
    assert found == []
