"""The runtime imports nothing beyond the standard library and itself."""

import ast
import subprocess
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


def test_cli_start_up_loads_no_heavy_stdlib_module():
    # every CLI command pays for what `import credalbox.cli` loads; the
    # interpreter runs without site (-S), whose .pth files may load some
    # of these themselves, and only what the import adds is counted
    code = (
        "import sys\n"
        f"sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
        "before = set(sys.modules)\n"
        "import credalbox.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    done = subprocess.run([sys.executable, "-S", "-c", code], check=True,
                          capture_output=True, text=True)
    loaded = set(done.stdout.split())
    assert "credalbox.cli" in loaded
    assert loaded & {"statistics", "fractions", "decimal", "random"} == set()
