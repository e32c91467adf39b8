"""Every name a runtime module imports is used there.

An import no code reads is dead weight that outlives the code that
needed it.  Three kinds are exempt: ``from __future__`` imports, the
package's ``__init__.py``, which imports to re-export, and the module
attributes perfbench/tracing.py rebinds, which a module keeps bound
for the tracer though it no longer calls them (their table in
perfbench/tracing.py says why each stays).
"""

import ast
from pathlib import Path

from test_tracing_places import tracing_tables

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "credalbox"


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
