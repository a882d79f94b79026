"""Every name a module imports is read somewhere in that module, and every
public name a module defines is named somewhere outside its definition.

``__init__.py`` is left out: its imports are the package's re-exports.
"""

import ast
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "modegap"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
READERS = sorted(p for folder in ("src", "tests", "perfbench")
                 for p in (ROOT / folder).rglob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in read)


def test_unused_import_is_found():
    assert unused_imports("import os\nfrom sys import argv, path\nprint(path)\n") == [
        "argv (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def identifiers(tree) -> Counter:
    """How often each identifier is named in a tree: as a variable, an
    attribute, an imported name or the name of a function or class."""
    named = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            named[node.id] += 1
        elif isinstance(node, ast.Attribute):
            named[node.attr] += 1
        elif isinstance(node, ast.alias):
            named[node.name.rpartition(".")[2]] += 1
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            named[node.name] += 1
    return named


def dead_public_names(modules: dict, readers: list) -> list[str]:
    """Public top-level functions, classes and constants of ``modules`` (name ->
    source) that no source in ``readers`` names outside their own definition."""
    named = sum((identifiers(ast.parse(source)) for source in readers), Counter())
    dead = []
    for module, source in modules.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
            else:
                continue
            own = identifiers(node)
            dead += [f"{module}.{name}" for name in names
                     if not name.startswith("_") and named[name] == own[name]]
    return dead


def test_dead_public_name_is_found():
    module = ("LIMIT = 3\n_PRIVATE = 4\n"
              "def used():\n    return LIMIT\n"
              "def recursive(n):\n    return recursive(n - 1)\n"
              "class Shape:\n    pass\n")
    reader = "from m import used\nprint(used(), m.Shape)\n"
    assert dead_public_names({"m": module}, [module, reader]) == ["m.recursive"]
    assert dead_public_names({"m": module}, [module]) == ["m.used", "m.recursive", "m.Shape"]


def test_no_dead_public_names():
    modules = {path.stem: path.read_text() for path in MODULES}
    assert dead_public_names(modules, [path.read_text() for path in READERS]) == []
