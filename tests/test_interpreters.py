"""The package behaves the same on every Python it declares.

pyproject.toml's requires-python names the oldest supported version.
The syntax guard parses every runtime module with the grammar of that
version, which catches newer syntax on a machine that has no older
interpreter.  The parity test finds every other CPython at or above
that version that starts, runs tests/parity_driver.py under each and
under the running interpreter, and compares what they print; it skips
when it finds none, after checking that the running interpreter finds
every cut body equal to its constructor-built twin.  Candidates are
each python3 and python3.N on PATH and each pyenv version's python3,
since a pyenv shim may name a version it then refuses to start.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from support import seeded_pool

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DRIVER = Path(__file__).resolve().parent / "parity_driver.py"
# prints the implementation and version of the interpreter that runs it
PROBE = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:3])"


def declared_floor() -> tuple[int, int]:
    """(major, minor) of requires-python = ">=X.Y" in pyproject.toml."""
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.M)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def floor_syntax_errors(source: str, name: str) -> list[str]:
    """The SyntaxError, if any, of source under the floor's grammar."""
    try:
        ast.parse(source, name, feature_version=declared_floor())
    except SyntaxError as exc:
        return [f"{name}:{exc.lineno}: {exc.msg}"]
    return []


def test_the_floor_grammar_refuses_newer_syntax():
    # except* arrived in 3.11
    source = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    assert declared_floor() < (3, 11)
    [error] = floor_syntax_errors(source, "snippet.py")
    assert error.startswith("snippet.py:")
    assert error.endswith("Exception groups are only supported in Python 3.11 and greater")


def test_runtime_modules_parse_with_the_floor_grammar():
    sources = sorted((SRC / "credalbox").glob("*.py"))
    assert sources
    assert [error for path in sources for error in floor_syntax_errors(
        path.read_text(encoding="utf-8"), path.name)] == []


def candidate_paths() -> set[Path]:
    """Each python3 or python3.N file on PATH and each pyenv version's
    python3; some may not start."""
    found = {path for entry in os.environ.get("PATH", "").split(os.pathsep) if entry
             for path in Path(entry).glob("python3*")
             if re.fullmatch(r"python3(\.\d+)?", path.name)}
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    found.update(pyenv.glob("versions/*/bin/python3"))
    return found


def other_interpreters() -> list[tuple[tuple[int, ...], str]]:
    """(version, path) of one interpreter per CPython version at or above
    the floor that starts, the running version excluded."""
    floor = declared_floor()
    running = tuple(sys.version_info[:3])
    found = {}
    for path in sorted(candidate_paths()):
        try:
            done = subprocess.run([str(path), "-c", PROBE], capture_output=True,
                                  text=True, timeout=30)
        except (OSError, subprocess.TimeoutExpired):
            continue
        words = done.stdout.split()
        if done.returncode != 0 or len(words) != 4 or words[0] != "CPython":
            continue
        version = tuple(map(int, words[1:]))
        if version[:2] >= floor and version != running:
            found.setdefault(version, str(path))
    return sorted(found.items())


def drive(python: str, workdir: Path) -> tuple[int, bytes]:
    """Exit code and stdout of the parity driver under python in workdir."""
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
    done = subprocess.run([python, str(DRIVER)], cwd=workdir, env=env,
                          capture_output=True, timeout=600)
    return done.returncode, done.stdout


def test_other_interpreters_print_the_same_bytes(tmp_path):
    for workload in ("explore-wide", "refclass-chain"):
        for k, doc in enumerate(seeded_pool(workload)):
            (tmp_path / f"pool-{workload}-{k:03d}.json").write_text(
                json.dumps(doc), encoding="utf-8")
    code, want = drive(sys.executable, tmp_path)
    assert code == 0 and b"\nexit raised " not in want
    # every last body matches its twin here, so on every interpreter
    # that prints the same bytes
    twins = re.findall(rb"^twin pool-refclass-chain-\d{3}\.json: (.*)$", want, re.M)
    assert len(twins) == len(seeded_pool("refclass-chain"))
    assert set(twins) == {b"== True hash True repr True pickle True deepcopy True"}
    others = other_interpreters()
    if not others:
        pytest.skip("no other CPython at or above the declared floor starts here")
    differ = [f"{python} ({'.'.join(map(str, version))})"
              for version, python in others
              if drive(python, tmp_path) != (code, want)]
    assert differ == []
