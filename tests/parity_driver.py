"""Run a fixed set of CLI commands in process and print what each wrote.

    cd DIR && PYTHONPATH=/path/to/src python /path/to/tests/parity_driver.py

DIR holds problem files named pool-*.json.  The driver writes the
bundled fixtures into DIR, then runs decide, decide --json and compare
at every level of each fixture; replicate A-D; one cp and one
ds-threshold; and decide --json on every pool file, in name order.  For
each command it prints the command line, the command's stdout and its
exit code, or the type and text of an exception that escaped it.  Then,
for each pool-refclass-chain-*.json file, it prints whether the last
body accept_next_most_probable builds from the file's statements
matches a constructor-built twin under ==, hash, repr, pickle and
deepcopy.  It
uses only the standard library, so it runs under every interpreter the
package supports: two interpreters that print the same bytes behave the
same on these inputs.
"""

import contextlib
import copy
import io
import itertools
import pickle
import sys
from importlib import resources
from pathlib import Path

from credalbox import BodyOfKnowledge, accept_next_most_probable, loads
from credalbox.cli import main
from credalbox.replicate import EXAMPLES, fixture_text


def run(*argv: str):
    """Run the CLI on argv, print the record and return the exit code."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = main(list(argv))
    except Exception as exc:
        code = f"raised {type(exc).__name__}: {exc}"
    sys.stdout.write(f"$ credalbox {' '.join(argv)}\n{out.getvalue()}exit {code}\n")
    return code


def twin(path: Path) -> None:
    """Print whether the last next-most-probable body of path's corpus,
    which stores a cut of the shared order, matches a twin that stores
    its own tuple."""
    statements = loads(path.read_text(encoding="utf-8")).statements
    last = accept_next_most_probable(statements)[-1]
    built = BodyOfKnowledge(last.index, last.error, last.statements)
    checks = {"==": last == built, "hash": hash(last) == hash(built),
              "repr": repr(last) == repr(built),
              "pickle": pickle.loads(pickle.dumps(last)) == built,
              "deepcopy": copy.deepcopy(last) == built}
    sys.stdout.write(f"twin {path.name}: "
                     f"{' '.join(f'{name} {ok}' for name, ok in checks.items())}\n")


def fixtures() -> list[str]:
    data = resources.files("credalbox") / "data"
    return sorted(p.name.removesuffix(".json") for p in data.iterdir()
                  if p.name.endswith(".json"))


def drive() -> None:
    for name in fixtures():
        path = f"{name}.json"
        Path(path).write_text(fixture_text(name), encoding="utf-8")
        run("decide", path)
        run("decide", path, "--json")
        # the first level past the last one ends the loop with exit 1
        for k in itertools.count():
            if run("compare", path, "--level", str(k)) != 0:
                break
    for example in EXAMPLES:
        run("replicate", example)
    run("cp", "3", "14", "0.99")
    run("ds-threshold", "--m1", "0.7,0.3", "--m2", "0.6,0.4", "--target", "0.75")
    for path in sorted(Path().glob("pool-*.json")):
        run("decide", path.name, "--json")
    for path in sorted(Path().glob("pool-refclass-chain-*.json")):
        twin(path)


if __name__ == "__main__":
    drive()
