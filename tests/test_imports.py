"""Every name a kmetrics module or a test module imports is used in that
module, every method is called, every command-line option is read, every
name the package exports is defined in the module its export table names, and
every km.<name> a kmetrics module reads through the package resolves, and no
kmetrics module imports a sibling but simplicial at its top level.

A method counts as used when its name is read as an attribute anywhere in
src/, tests/, perfbench/ or demos/.  An option counts as read when cli.py
reads its dest as args.<dest>.  The export table is read from __init__.py's
source, without importing anything.
"""

import argparse
import ast
from pathlib import Path

import pytest

import kmetrics
from kmetrics.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "kmetrics"
MODULES = sorted(p.name for p in SRC.glob("*.py"))
TESTS = sorted(p.name for p in (ROOT / "tests").glob("*.py"))


def _unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_the_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport os, sys\nfrom typing import Optional\n"
    source += "sys.exit()\n"
    assert _unused_imports(source) == [(2, "os"), (3, "Optional")]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_imports(module):
    assert _unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("module", TESTS)
def test_no_unused_imports_in_tests(module):
    assert _unused_imports((ROOT / "tests" / module).read_text()) == []


def _unaccessed_methods(defining: list, reading: list) -> list:
    """Class.method defined in the defining sources whose name no reading source reads as .name.

    Dunder methods are left out: Python calls them.
    """
    accessed = {
        node.attr for source in reading for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute)
    }
    return sorted(
        f"{cls.name}.{f.name}"
        for source in defining for cls in ast.walk(ast.parse(source))
        if isinstance(cls, ast.ClassDef)
        for f in cls.body
        if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (f.name.startswith("__") and f.name.endswith("__"))
        and f.name not in accessed
    )


def test_the_check_finds_an_unaccessed_method():
    source = "class A:\n    def __init__(self): pass\n    def used(self): pass\n"
    source += "    @property\n    def size(self): return 1\n    def dead(self): pass\n"
    assert _unaccessed_methods([source], [source, "A().used()\nprint(A().size)\n"]) == ["A.dead"]


def test_every_method_is_accessed():
    reading = [
        p.read_text() for d in ("src", "tests", "perfbench", "demos")
        for p in sorted((ROOT / d).rglob("*.py"))
    ]
    defining = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert _unaccessed_methods(defining, reading) == []


def _parsers(parser: argparse.ArgumentParser):
    """parser and every subparser below it."""
    yield parser
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield from _parsers(sub)


def _unread_options(parser: argparse.ArgumentParser, source: str) -> list:
    """Argument dests, in parser and its subparsers, that source never reads as args.<dest>."""
    read = {
        node.attr for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "args"
    }
    dests = {
        action.dest for p in _parsers(parser) for action in p._actions
        if not isinstance(action, argparse._HelpAction)
    }
    return sorted(dests - read)


def test_the_check_finds_an_unread_option():
    parser = argparse.ArgumentParser()
    run = parser.add_subparsers(dest="command").add_parser("run")
    run.add_argument("path")
    run.add_argument("--tol", type=float)
    run.add_subparsers(dest="mode").add_parser("fast").add_argument("--cprime")
    source = "def run(args):\n    return args.command, args.mode, args.path\n"
    assert _unread_options(parser, source) == ["cprime", "tol"]


def test_every_cli_option_is_read():
    assert _unread_options(build_parser(), (SRC / "cli.py").read_text()) == []


def _top_level_names(source: str) -> set:
    """Names a module binds at its top level: defs, classes, assignments and imports."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
    return names


def _missing_exports(init_source: str, module_source) -> list:
    """module.name entries of init_source's _EXPORTS table that the module does not bind."""
    (exports,) = [
        ast.literal_eval(node.value) for node in ast.parse(init_source).body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "_EXPORTS" for t in node.targets)
    ]
    return sorted(
        f"{module}.{name}" for module, names in exports.items()
        for name in names if name not in _top_level_names(module_source(module))
    )


def test_the_check_finds_a_missing_export():
    init = '_EXPORTS = {"a": ("f", "g", "os", "X", "Y")}\n'
    modules = {"a": "import os\nX: int = 1\ndef f(): pass\nclass C:\n    Y = 2\n"}
    assert _missing_exports(init, modules.__getitem__) == ["a.Y", "a.g"]


def test_every_export_is_a_top_level_name_of_its_module():
    assert _missing_exports((SRC / "__init__.py").read_text(),
                            lambda module: (SRC / f"{module}.py").read_text()) == []


def _unknown_package_names(source: str, known: set) -> list:
    """(line, name) of each alias.name whose name is not in known, for every alias
    that source binds by `import kmetrics as alias`."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
        for alias in node.names if alias.name == "kmetrics"
    }
    return sorted(
        (node.lineno, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in aliases and node.attr not in known
    )


def test_the_check_finds_an_unknown_package_name():
    source = "import kmetrics as km\ntry:\n    km.check_weak(km.corpus)\n"
    source += "except km.NotStrongErorr:\n    pass\n"
    assert _unknown_package_names(source, {"check_weak", "corpus", "NotStrongError"}) == [
        (4, "NotStrongErorr")]


@pytest.mark.parametrize("module", MODULES)
def test_every_package_name_a_module_reads_resolves(module):
    # an except clause reads its name only when an exception reaches it, so check them here
    known = set(kmetrics.__all__) | kmetrics._SUBMODULES
    assert _unknown_package_names((SRC / module).read_text(), known) == []


def _sibling_imports(source: str) -> list:
    """(line, module) of each top-level relative import that does not name simplicial."""
    return [
        (node.lineno, node.module) for node in ast.parse(source).body
        if isinstance(node, ast.ImportFrom) and node.level and node.module != "simplicial"
    ]


def test_the_check_finds_a_sibling_import():
    source = "import kmetrics as km\nfrom .simplicial import Record\nfrom .lp import solve\n"
    source += "from . import cli\ndef main():\n    from .metric import KMetric\n"
    assert _sibling_imports(source) == [(3, "lp"), (4, None)]


@pytest.mark.parametrize("module", MODULES)
def test_a_module_imports_no_sibling_but_simplicial(module):
    # every other module's name is reached at its use through the package table (km.name)
    assert _sibling_imports((SRC / module).read_text()) == []
