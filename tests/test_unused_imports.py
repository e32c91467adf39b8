"""Every name a runtime module imports is used there, and every private
module-level name a runtime module defines is read by one of them.

An import no code reads is dead weight that outlives the code that
needed it.  Three kinds are exempt: ``from __future__`` imports, the
package's ``__init__.py``, which imports to re-export, and the module
attributes perfbench/tracing.py rebinds, which a module keeps bound
for the tracer though it no longer calls them (their table in
perfbench/tracing.py says why each stays).  A private function, class
or constant (one named with a single leading underscore) that no
runtime module reads is dead the same way: a constant left behind by
the loop that used it, say.  So is an exported name that no runtime
module reads and README.md never names: only its own tests call it.
"""

import ast
import re
from pathlib import Path

import credalbox
from test_tracing_places import tracing_tables

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "credalbox"


def unused_imports(tree):
    """(line, name) for every name an import binds and the module never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.partition(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def private_definitions(tree):
    """(line, name) for every function, class or constant the module
    defines at its top level under a single-underscore name."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [ast.Name(node.name)]
        elif isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, ast.AnnAssign):
            targets = [node.target]
        else:
            continue
        found.extend((node.lineno, name.id) for target in targets
                     for name in ast.walk(target) if isinstance(name, ast.Name)
                     and name.id.startswith("_") and not name.id.startswith("__"))
    return found


def read_names(tree):
    """Every name the module reads, bare or as an attribute."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            | {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)})


def rebound_attributes():
    """(module file name, attribute) for every module attribute the
    tracer rebinds."""
    return {(place[0].rpartition(".")[2] + ".py", place[1])
            for table in tracing_tables() for bound in table.values()
            for place in bound if len(place) == 2}


def test_finds_unused_imports():
    tree = ast.parse("from __future__ import annotations\nimport os.path\n"
                     "import json\nfrom typing import Mapping as M, Sequence\n"
                     "def f(x: M) -> None:\n    return json.dumps(x)\n")
    assert unused_imports(tree) == [(2, "os"), (4, "Sequence")]


def test_runtime_modules_use_every_import():
    sources = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sources
    kept = rebound_attributes()
    unused = [
        f"{path.name}:{line}: {name}"
        for path in sources
        for line, name in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
        if (path.name, name) not in kept
    ]
    assert unused == []


def test_finds_private_definitions_and_reads():
    tree = ast.parse("_A = 1\n_B: int = 2\n__all__ = []\nC = 3\n"
                     "def _f():\n    return _A + mod._g\nclass _K:\n    _x = 0\n")
    assert private_definitions(tree) == [(1, "_A"), (2, "_B"), (5, "_f"), (7, "_K")]
    assert {"_A", "_g", "mod"} <= read_names(tree)
    assert not {"_B", "_f", "_K", "_x"} & read_names(tree)


def test_runtime_modules_read_every_private_definition():
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    read = set().union(*map(read_names, trees.values()))
    dead = [
        f"{name}:{line}: {private}"
        for name, tree in trees.items()
        for line, private in private_definitions(tree)
        if private not in read
    ]
    assert dead == []


def unread_exports(names, trees, readme):
    """Every one of names that no tree reads and the readme text never names."""
    read = set().union(*map(read_names, trees))
    named = set(re.findall(r"\w+", readme))
    return [name for name in names if name not in read | named]


def test_finds_unread_exported_names():
    trees = [ast.parse("from .intervals import frechet_and\n"
                       "def f(a, b):\n    return intersect(a, b)\n")]
    readme = "`bel(m, event)` is the belief in an event."
    assert unread_exports(["intersect", "bel", "frechet_and", "scale_add"],
                          trees, readme) == ["frechet_and", "scale_add"]


def test_every_exported_name_is_read_or_documented():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in PACKAGE.glob("*.py") if path.name != "__init__.py"]
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert unread_exports(credalbox.__all__, trees, readme) == []
