"""Command line entry points.

Exit codes: 0 for success (including a decision or a bare risk problem),
1 for any error, 2 when a decide run ends without a mandate.
"""

from __future__ import annotations

import argparse
import functools
import gc
import sys

from . import __version__
from .belief import MassFunction, discount_threshold
from .confidence import SampleCount, clopper_pearson
from .engine import DECIDED, NO_MANDATE, RISK_PROBLEM, ToleranceSpec, explore
from .expectation import eu_all
from .intervals import Interval
from .knowledge import _read_level
from .ordering import (
    _hurwicz_score,
    hurwicz,
    leximin,
    maximal_set,
    maximin,
    midpoint_rank,
    min_regret,
    worst_case_regrets,
)
from .problem_io import load_path
from .replicate import EXAMPLES, _pooled_decision, load_fixture, replicate


class _Parser(argparse.ArgumentParser):
    """Usage errors exit 1; argparse's default 2 is reserved for no-mandate."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


#: table numbers at or above this magnitude print with .6g, not .4f
_FIXED_LIMIT = 1e12


def _num(x: float) -> str:
    return f"{x:.4f}" if abs(x) < _FIXED_LIMIT else f"{x:.6g}"


def _fmt(iv: Interval) -> str:
    # tables round to 4 decimals; full precision lives in --json
    return f"[{_num(iv.lo)}, {_num(iv.hi)}]"


def _print_table(head: list[str], rows: list[list[str]]) -> None:
    widths = [len(h) for h in head]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    for line in [head] + rows:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line)).rstrip())


def _print_report(report) -> None:
    print(f"problem: {report.problem}")
    print(f"tolerance: {report.tolerance:.6g}")
    if report.trace:
        names = list(report.trace[0].eu)
        head = ["level", "error"] + names + ["undominated"]
        rows = []
        for row in report.trace:
            cells = [str(row.index), f"{row.error:.6g}"]
            cells += [_fmt(row.eu[name]) for name in names]
            cells.append(" ".join(row.maximal))
            rows.append(cells)
        _print_table(head, rows)
    else:
        print("(no level lies within tolerance)")
    if report.status == DECIDED:
        print(f"status: decided  act: {report.act}  "
              f"level: {report.level_used}  error: {report.error_used:.6g}")
    elif report.status == RISK_PROBLEM:
        print(f"status: risk problem (point probabilities, best acts tied)  "
              f"first best act: {report.act}  level: {report.level_used}")
    else:
        print("status: no mandate within tolerance")


def _cmd_decide(args) -> int:
    doc = load_path(args.file)
    spec = doc.tolerance
    if args.tolerance is not None:
        spec = ToleranceSpec.explicit(args.tolerance)
    elif args.odds_derived:
        spec = ToleranceSpec.odds_derived()
    report = explore(doc.problem, doc.build_sequence(), spec)
    if args.json:
        print(report.to_json())
    else:
        _print_report(report)
    return 2 if report.status == NO_MANDATE else 0


def _cmd_compare(args) -> int:
    doc = load_path(args.file)
    seq = doc.build_sequence()
    index = args.level if args.level is not None else 0
    if not 0 <= index < len(seq.levels):
        raise ValueError(
            f"level {index} does not exist; the sequence has "
            f"levels 0..{len(seq.levels) - 1}"
        )
    level = seq.levels[index]
    eu = eu_all(doc.problem, _checked=_read_level(level, doc.problem))
    surviving = maximal_set(eu)
    sub = {name: eu[name] for name in surviving.names}
    floor = maximin(sub)
    least = min_regret(sub)
    alpha = args.alpha
    hur = hurwicz(sub, alpha)
    ranking = midpoint_rank(sub)
    rows = [
        ["dominance", " ".join(surviving.names), "undominated acts"],
        ["maximin", floor, f"lower bound {sub[floor].lo:.6g}"],
        ["min-regret", least,
         f"worst-case regret {worst_case_regrets(sub)[least]:.6g}"],
        [f"hurwicz({alpha:g})", hur,
         f"score {_hurwicz_score(sub[hur], alpha):.6g}"],
        ["midpoint", ranking[0], "ranking " + " > ".join(ranking)],
        # a level never changes a utility, and leximin reads nothing else
        ["leximin", leximin(doc.problem, surviving.names), "worst outcomes first"],
    ]
    # rows first: a criterion that refuses its input leaves stdout empty
    print(f"problem: {doc.problem.name}")
    print(f"level: {level.index} (error {level.error:.6g})")
    print("expected utilities:")
    for name in eu:
        print(f"  {name}: {_fmt(eu[name])}")
    print()
    _print_table(["criterion", "choice", "detail"], rows)
    return 0


def _cmd_replicate(args) -> int:
    result = replicate(args.example)
    for line in result.lines():
        print(line)
    return 0 if result.ok else 1


def _cmd_cp(args) -> int:
    iv = clopper_pearson(SampleCount(args.successes, args.trials),
                         args.confidence)
    print(f"[{iv.lo:.4f}, {iv.hi:.4f}]")
    return 0


def _parse_binary_mass(text: str, flag: str) -> MassFunction:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{flag} expects two comma-separated masses, got {text!r}")
    try:
        first, second = (float(p) for p in parts)
    except ValueError:
        raise ValueError(f"{flag}: masses must be numbers, got {text!r}") from None
    return MassFunction(("G", "not-G"), {"G": first, "not-G": second})


def _cmd_ds_threshold(args) -> int:
    m1 = _parse_binary_mass(args.m1, "--m1")
    m2 = _parse_binary_mass(args.m2, "--m2")
    event = args.event
    if event not in ("G", "not-G"):
        raise ValueError(f"--event must be G or not-G, got {event!r}")
    rstar = discount_threshold(m1, m2, event, args.target)
    print(f"threshold discount rate: {rstar:.4f}")
    doc = load_fixture("example_d")
    for side, rate in (("below", rstar - 1e-3), ("above", rstar + 1e-3)):
        if not 0.0 <= rate <= 1.0:
            continue
        pooled, report = _pooled_decision(doc, m1, m2, event, rate)
        # a2's one outcome keeps its vacuous box, so the level never
        # collapses to points and explore cannot report a risk problem
        verdict = f"mandates {report.act}" if report.status == DECIDED else "no mandate"
        print(f"  {side} (r = {rate:.4f}): belief {pooled:.4f} {verdict}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The command line parser, built once per process: in-process callers
    of main pay for the subcommand tree once.  Parsing keeps no state on
    it, and usage errors go to sys.stderr as it is when they happen."""
    parser = _Parser(prog="credalbox",
                     description="Decide problems stated with interval "
                                 "probabilities over error-indexed credal levels.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    decide = sub.add_parser("decide", help="explore a problem file and report")
    decide.add_argument("file", help="problem JSON file")
    decide.add_argument("--json", action="store_true",
                        help="emit the report as JSON")
    group = decide.add_mutually_exclusive_group()
    group.add_argument("--tolerance", type=float, default=None,
                       help="override the tolerable error")
    group.add_argument("--odds-derived", action="store_true",
                       help="derive the tolerable error from the stakes")
    decide.set_defaults(handler=_cmd_decide)

    compare = sub.add_parser("compare",
                             help="tabulate the fallback criteria on one level")
    compare.add_argument("file", help="problem JSON file")
    compare.add_argument("--level", type=int, default=None,
                         help="credal level to analyse (default: 0)")
    compare.add_argument("--alpha", type=float, default=0.5,
                         help="hurwicz optimism weight (default 0.5)")
    compare.set_defaults(handler=_cmd_compare)

    repl = sub.add_parser("replicate", help="re-run a bundled worked example")
    repl.add_argument("example", type=lambda s: s.upper(), choices=EXAMPLES,
                      help="which example to run")
    repl.set_defaults(handler=_cmd_replicate)

    cp = sub.add_parser("cp", help="exact binomial confidence interval")
    cp.add_argument("successes", type=int)
    cp.add_argument("trials", type=int)
    cp.add_argument("confidence", type=float)
    cp.set_defaults(handler=_cmd_cp)

    ds = sub.add_parser("ds-threshold",
                        help="discount rate where pooled belief crosses a target")
    ds.add_argument("--m1", required=True,
                    help="fixed source as 'mass-on-G,mass-on-not-G'")
    ds.add_argument("--m2", required=True,
                    help="discounted source as 'mass-on-G,mass-on-not-G'")
    ds.add_argument("--target", type=float, required=True,
                    help="belief target to cross")
    ds.add_argument("--event", default="G", help="event to track (default G)")
    ds.set_defaults(handler=_cmd_ds_threshold)

    return parser


def main(argv=None) -> int:
    # A command allocates many small objects that form no cycles, and the
    # cyclic garbage it leaves does not grow with its input, so the
    # collector would only rescan live objects: it is paused for the
    # whole command, parsing included, and the caller's setting restored.
    enabled = gc.isenabled()
    gc.disable()
    try:
        args = _build_parser().parse_args(argv)
        try:
            return args.handler(args)
        except (ValueError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        if enabled:
            gc.enable()


def run() -> None:
    # a name the terminal cannot encode (a lone surrogate is valid JSON)
    # prints escaped, as it does on stderr, not half a table and an error
    if hasattr(sys.stdout, "reconfigure"):
        sys.stdout.reconfigure(errors="backslashreplace")
    sys.exit(main())


if __name__ == "__main__":
    run()
