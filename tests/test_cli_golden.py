"""Byte-for-byte CLI output on every bundled fixture.

The files under tests/data/golden hold the stdout of `compare --level k`
at every level k, of the `decide` table, of `decide --json` and of
`decide --odds-derived --json`.  Regenerate them, after a change that
is meant to alter the output, with

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import pytest

from credalbox.cli import main
from credalbox.replicate import fixture_text, load_fixture

GOLDEN = Path(__file__).resolve().parent / "data" / "golden"
FIXTURES = ("example_a", "example_b", "example_c_berry", "example_c_lottery",
            "example_d")


def cases():
    """(golden file name, argv after the problem path) for every case."""
    out = []
    for name in FIXTURES:
        levels = len(load_fixture(name).build_sequence().levels)
        out += [(f"{name}.compare-{k}.txt", ["compare", "--level", str(k)])
                for k in range(levels)]
        out += [
            (f"{name}.decide.txt", ["decide"]),
            (f"{name}.decide-json.txt", ["decide", "--json"]),
            (f"{name}.decide-odds-json.txt", ["decide", "--odds-derived", "--json"]),
        ]
    return out


def render(path: Path, argv: list[str]) -> str:
    """stdout of the CLI on the problem file at path."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        main([argv[0], str(path), *argv[1:]])
    return buf.getvalue()


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    target = tmp_path_factory.mktemp("fixtures")
    for name in FIXTURES:
        (target / f"{name}.json").write_text(fixture_text(name), encoding="utf-8")
    return target


CASES = cases()


@pytest.mark.parametrize("golden, argv", CASES, ids=[c[0] for c in CASES])
def test_output_matches_golden(golden, argv, fixture_dir):
    name = golden.split(".")[0]
    want = (GOLDEN / golden).read_bytes()
    assert render(fixture_dir / f"{name}.json", argv).encode("utf-8") == want


def test_every_golden_file_is_a_case():
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(c[0] for c in CASES)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for golden, argv in CASES:
            name = golden.split(".")[0]
            problem = Path(tmp) / f"{name}.json"
            problem.write_text(fixture_text(name), encoding="utf-8")
            (GOLDEN / golden).write_bytes(render(problem, argv).encode("utf-8"))
    sys.exit(0)
