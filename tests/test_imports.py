"""Every name a module imports is read somewhere in that module, and every
public name a module defines is named somewhere outside its definition.

``__init__.py`` is left out: its imports are the package's re-exports.
"""

import ast
import builtins
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


def unraised_errors(sources: list) -> list[str]:
    """Exception classes that ``sources`` define, those derived from a builtin
    exception or from another such class, and that no ``raise`` in them names."""
    bases, raised = {}, set()
    for node in (n for source in sources for n in ast.walk(ast.parse(source))):
        if isinstance(node, ast.ClassDef):
            bases[node.name] = [getattr(b, "id", getattr(b, "attr", None)) for b in node.bases]
        elif isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            raised.add(getattr(exc, "id", getattr(exc, "attr", None)))

    def is_error(name):
        if name in bases:
            return any(is_error(base) for base in bases[name])
        found = getattr(builtins, str(name), None)
        return isinstance(found, type) and issubclass(found, BaseException)
    return sorted(name for name in bases if is_error(name) and name not in raised)


def test_unraised_error_is_found():
    source = ("class AError(ValueError):\n    pass\nclass BError(AError):\n    pass\n"
              "class CError(m.BError):\n    pass\nclass Plain:\n    pass\n"
              "raise AError('a')\nraise m.CError\n")
    assert unraised_errors([source]) == ["BError"]


def test_every_error_is_raised():
    """An error type that the package defines but never raises is dead code
    that its callers may still catch."""
    assert unraised_errors([path.read_text() for path in SRC.glob("*.py")]) == []


def module_calls(source: str, name: str, modules=("os",)) -> list[int]:
    """The line of every ``<module>.<name>()`` call in a source, for each
    module named in ``modules``."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == name and getattr(node.func.value, "id", None) in modules]


def test_one_fork_site():
    """The package forks, reaps, kills and ends a worker in one place,
    ``workers``; every other module that computes in workers goes through
    ``workers.run``."""
    assert module_calls("import os\nos.fork()\nlocks.fork()\nif os.fork(): pass\n", "fork") == [2, 4]
    for name, count in [("fork", 1), ("waitpid", 2), ("kill", 1), ("_exit", 1)]:
        sites = {path.name: len(module_calls(path.read_text(), name)) for path in SRC.glob("*.py")}
        assert {module: n for module, n in sites.items() if n} == {"workers.py": count}, name


def test_one_lattice_read():
    """The package reads a table off the lattice in one place,
    ``DegradedActivation._lookup``, which gives ``np.interp``'s bits; no
    module calls ``np.interp`` itself.  The tests and the benchmark's checks
    keep it as their independent reference."""
    snippet = "import numpy as np\nnp.interp(z, x, y)\nm.interp(z)\nnumpy.interp(z, x, y)\n"
    assert module_calls(snippet, "interp", ("np", "numpy")) == [2, 4]
    sites = {path.name: module_calls(path.read_text(), "interp", ("np", "numpy"))
             for path in SRC.glob("*.py")}
    assert {module: lines for module, lines in sites.items() if lines} == {}


def constructions(source: str, name: str) -> list[str]:
    """The function around every call of ``name`` in a source, as ``name()``
    or ``<module>.name()``, the innermost when functions nest; "" at the top
    level."""
    found = []

    def visit(node, around):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            around = node.name
        elif isinstance(node, ast.Call) and name in (getattr(node.func, "id", None),
                                                     getattr(node.func, "attr", None)):
            found.append(around)
        for child in ast.iter_child_nodes(node):
            visit(child, around)
    visit(ast.parse(source), "")
    return found


def test_one_table_maker():
    """The package makes a ``DegradedActivation`` in ``reconstruct`` and
    takes one table of a stack in ``DegradedActivation.level``; no other
    function and no other module constructs one."""
    snippet = ("act = DegradedActivation(c, s)\n"
               "def make(c):\n    return bogoliubov.DegradedActivation(c, s)\n"
               "class Stack:\n    def level(self, i):\n"
               "        def row():\n            return DegradedActivation(c, s[i])\n"
               "        return row()\n"
               "DegradedActivations(c)\nm.DegradedActivation\n")
    assert constructions(snippet, "DegradedActivation") == ["", "make", "row"]
    sites = {path.name: constructions(path.read_text(), "DegradedActivation")
             for path in SRC.glob("*.py")}
    assert {module: sorted(found) for module, found in sites.items() if found} == {
        "bogoliubov.py": ["level", "reconstruct"]}


def process_patches(source: str) -> list[int]:
    """The line of every ``os.waitpid()`` call and every patch of ``os.fork``
    or ``os.sched_getaffinity`` in a source: a call given ``os`` and the
    name, as ``monkeypatch.setattr`` and ``delattr`` are, or an assignment."""
    names = {"fork", "sched_getaffinity"}
    lines = module_calls(source, "waitpid")
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Call) and len(node.args) >= 2:
            target, name = node.args[:2]
            if getattr(target, "id", None) == "os" and getattr(name, "value", None) in names:
                lines.append(node.lineno)
        elif isinstance(node, ast.Assign):
            lines += [node.lineno for t in node.targets if isinstance(t, ast.Attribute)
                      and t.attr in names and getattr(t.value, "id", None) == "os"]
    return sorted(lines)


def test_one_fork_harness():
    """Tests fork, count cores and reap through one harness, ``conftest.py``."""
    assert process_patches('m.setattr(os, "fork", f)\nos.waitpid(-1, 0)\nm.setattr(os, "getpid", g)\n'
                           'm.delattr(os, "sched_getaffinity")\nos.fork = f\nos.fork()\n') == [1, 2, 4, 5]
    found = {path.name: process_patches(path.read_text())
             for path in (ROOT / "tests").glob("*.py") if path.name != "conftest.py"}
    assert {module: lines for module, lines in found.items() if lines} == {}


SPAN_READERS = {"calls", "seconds", "calls_inside"}


def read_span_names(source: str) -> set[str]:
    """The span names a benchmark child reads: every string its ``calls``,
    ``seconds`` and ``calls_inside`` calls are given, and every string of
    the tuples its ``for`` loops run over."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.For) and isinstance(node.iter, (ast.Tuple, ast.List)):
            found = node.iter.elts
        elif isinstance(node, ast.Call) and getattr(node.func, "id",
                                                    getattr(node.func, "attr", None)) in SPAN_READERS:
            found = [c for arg in node.args for c in ast.walk(arg)]
        else:
            continue
        names |= {c.value for c in found
                  if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    return names


def span_names(modules: dict) -> set[str]:
    """``module.name`` of every public top-level function and public method
    of a top-level class of ``modules`` (name -> source): the spans a traced
    round records."""
    spans = set()
    for module, source in modules.items():
        for node in ast.parse(source).body:
            body = node.body if isinstance(node, ast.ClassDef) else [node]
            spans |= {f"{module}.{fn.name}" for fn in body
                      if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}
    return spans


def test_read_span_names_are_found():
    child = ("for name in ('m.f', 'm.g'):\n    x[f'{name}.calls'] = calls(name)\n"
             "y['m.h.calls'] = calls('m.h')\nseconds('m.C')\n"
             "tracer.calls_inside(['m.i'], 'm.method')\nfor a, b in pairs:\n    pass\n")
    assert read_span_names(child) == {"m.f", "m.g", "m.h", "m.C", "m.i", "m.method"}
    module = "def f():\n    pass\ndef _g():\n    pass\nclass C:\n    def method(self):\n        pass\n"
    assert span_names({"m": module}) == {"m.f", "m.method"}


def test_benchmark_reads_only_spans_the_package_records():
    """A traced benchmark round looks every span it reads up by name, and
    a name the package no longer defines fails that round with a KeyError."""
    read = read_span_names((ROOT / "perfbench" / "child.py").read_text())
    assert "bogoliubov.reconstruct" in read and "spectral.gap_samples" in read
    assert read - span_names({path.stem: path.read_text() for path in MODULES}) == set()
