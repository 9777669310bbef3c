"""Checks on the library's source text."""

import ast
import importlib
import re
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


def test_the_library_has_one_union_find():
    # connectivity is decided in one place: graph.union_find's ``find``
    found = [
        path.name
        for path, node in _library_nodes()
        if isinstance(node, ast.FunctionDef) and node.name == "find"
    ]
    assert found == ["graph.py"]


def test_holders_is_defined_once_on_the_system():
    # a system's independence data is its own cached ``holders``; no second
    # object copies its elimination, and none stores holders or bases
    defined = [
        (path.name, node.lineno)
        for path, node in _library_nodes()
        if isinstance(node, ast.FunctionDef) and node.name == "holders"
    ]
    on_system = [
        (path.name, node.lineno)
        for path, cls in _library_nodes()
        if isinstance(cls, ast.ClassDef) and cls.name == "UnimodularSystem"
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and node.name == "holders"
        and [d.id for d in node.decorator_list] == ["cached_property"]
    ]
    assert len(on_system) == 1 and defined == on_system
    stored = [
        f"{path.name}:{node.lineno}"
        for path, node in _library_nodes()
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
        and node.attr in ("holders", "bases")
    ]
    assert stored == []


def test_every_module_parses_as_python_3_10():
    # pyproject.toml admits Python 3.10, so no library or test module may
    # use syntax that a later version added
    root = Path(__file__).parents[1]
    assert 'requires-python = ">=3.10"' in (root / "pyproject.toml").read_text()
    paths = [*Path(prymdice.__file__).parent.glob("*.py"), *(root / "tests").glob("*.py")]
    assert len(paths) >= 20
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_the_only_boolean_knobs_are_the_enumerators_loops_flags():
    # each of these is read with both values, by the benchmark's corpora;
    # a flag with a default that every caller overrides, or none does, is a
    # second code path that serves no workload
    found = []
    for path, node in _library_nodes():
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            positional = args.posonlyargs + args.args
            defaults = zip(positional[len(positional) - len(args.defaults):], args.defaults)
            for arg, default in [*defaults, *zip(args.kwonlyargs, args.kw_defaults)]:
                if isinstance(default, ast.Constant) and isinstance(default.value, bool):
                    found.append((path.name, node.name, arg.arg))
    assert sorted(found) == [
        ("enumerate_graphs.py", name, "loops")
        for name in ("all_multigraphs", "connected_multigraphs", "connected_multigraphs_any_order")
    ]


def _traced_names():
    """The ``module.name`` entries that perfbench's tracer looks up, read from
    its source without importing it."""
    source = Path(__file__).parents[1] / "perfbench" / "tracing.py"
    names = []
    for node in ast.parse(source.read_text()).body:
        if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            target, value = node.targets[0].id, node.value
            if target in ("SPANNED", "COUNTED", "CONSTRUCTED"):
                names += ast.literal_eval(value)
            elif target == "OBSERVED":
                names += [ast.literal_eval(key) for key in value.keys]
    return names


def test_every_name_the_benchmark_traces_exists():
    # the tracer records a missing name as absent instead of failing, so a
    # library name that is renamed or deleted would silently drop a layer
    names = _traced_names()
    assert len(names) == 24
    missing = []
    for name in names:
        module, attribute = name.split(".")
        if not hasattr(importlib.import_module(f"prymdice.{module}"), attribute):
            missing.append(name)
    assert missing == []


def _identifiers(nodes):
    """Every name that ``nodes`` read, import or look up as an attribute,
    with the node that names it."""
    for node in nodes:
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node


def test_every_library_definition_is_named_elsewhere():
    # an underscore name must be used by the library itself, outside its
    # own definition; a public one by the library, the tests, the
    # benchmark or the README
    library = list(_library_nodes())
    uses = {}
    for name, node in _identifiers(node for _, node in library):
        uses.setdefault(name, set()).add(id(node))
    root = Path(__file__).parents[1]
    named = {name for _, node in _nodes(root / "tests") for name, _ in _identifiers([node])}
    for path in sorted((root / "perfbench").glob("*.py")):
        named |= {name for name, _ in _identifiers(ast.walk(ast.parse(path.read_text())))}
    named |= {name.partition(".")[2] for name in _traced_names()}
    named |= set(re.findall(r"\w+", (root / "README.md").read_text()))
    unused = []
    for path, node in library:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("__"):
            continue
        outside = uses.get(node.name, set()) - {id(inner) for inner in ast.walk(node)}
        if not outside and (node.name.startswith("_") or node.name not in named):
            unused.append(f"{path.name}:{node.lineno} {node.name}")
    assert unused == []
