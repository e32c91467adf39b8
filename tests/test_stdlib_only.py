"""The runtime imports nothing beyond the standard library and itself."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "credalbox"


def absolute_imports(tree):
    """(line, top-level module) for every absolute import in the tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_finds_absolute_imports_only():
    tree = ast.parse("import numpy.linalg\nfrom . import x\n"
                     "from os import path\nfrom .engine import y\n")
    assert list(absolute_imports(tree)) == [(1, "numpy"), (3, "os")]


def test_runtime_imports_only_the_standard_library():
    sources = sorted(PACKAGE.glob("*.py"))
    assert sources
    allowed = set(sys.stdlib_module_names) | {"credalbox"}
    strays = [
        f"{path.name}:{line}: {module}"
        for path in sources
        for line, module in absolute_imports(
            ast.parse(path.read_text(encoding="utf-8")))
        if module not in allowed
    ]
    assert strays == []
