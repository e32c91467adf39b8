"""Bundled worked examples with frozen expected results.

Each example loads a data file shipped with the package, runs the
relevant machinery end to end, and compares what comes out against the
values the example is known to produce.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .belief import MassFunction, bel, dempster_combine, discount, discount_threshold
from .engine import DECIDED, explore
from .intervals import Interval, ProbInterval
from .knowledge import BodyOfKnowledge, CredalSequence, Statement, is_nested, level_from_body
from .ordering import midpoint_rank
from .problem_io import ProblemDocument, loads

EXAMPLES = ("A", "B", "C", "D")


@dataclass
class Check:
    label: str
    ok: bool
    detail: str


@dataclass
class ReplicationResult:
    example: str
    checks: list[Check] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def lines(self) -> list[str]:
        out = [f"example {self.example}"]
        for c in self.checks:
            mark = "ok  " if c.ok else "FAIL"
            out.append(f"  {mark} {c.label}: {c.detail}")
        out.extend(f"  note: {note}" for note in self.notes)
        verdict = "all checks passed" if self.ok else "CHECKS FAILED"
        out.append(f"example {self.example}: {verdict}")
        return out


def fixture_text(name: str) -> str:
    # imported here: importlib.resources pulls in tempfile and random,
    # which no other command needs at start-up
    from importlib import resources

    return (resources.files("credalbox") / "data" / f"{name}.json").read_text(
        encoding="utf-8")


def load_fixture(name: str) -> ProblemDocument:
    return loads(fixture_text(name))


def _value(checks: list[Check], label: str, got: float, want: float,
           tol: float = 1e-9) -> None:
    ok = abs(got - want) <= tol
    checks.append(Check(label, ok, f"got {got:.10g}, want {want:.10g}"))


def _interval(checks: list[Check], label: str, got: Interval,
              want_lo: float, want_hi: float, tol: float = 1e-9) -> None:
    ok = abs(got.lo - want_lo) <= tol and abs(got.hi - want_hi) <= tol
    checks.append(Check(label, ok, f"got {got}, want [{want_lo:g}, {want_hi:g}]"))


def _true(checks: list[Check], label: str, ok: bool, detail: str) -> None:
    checks.append(Check(label, ok, detail))


def _decision(checks: list[Check], label: str, report, act: str,
              level: int) -> None:
    ok = (report.status == DECIDED and report.act == act
          and report.level_used == level)
    _true(checks, label, ok,
          f"got {report.status}/{report.act} at level {report.level_used}, "
          f"want decided/{act} at level {level}")


def _replicate_a() -> ReplicationResult:
    result = ReplicationResult("A")
    checks = result.checks
    doc = load_fixture("example_a")
    report = explore(doc.problem, doc.build_sequence(), doc.tolerance)
    rows = {row.index: row for row in report.trace}
    _interval(checks, "level 1 expected utility of a1", rows[1].eu["a1"], -16.0, 10.0)
    _interval(checks, "level 1 expected utility of a2", rows[1].eu["a2"], -5.5, 0.0)
    _true(checks, "level 1 leaves both acts undominated",
          rows[1].maximal == ("a1", "a2"), f"got {list(rows[1].maximal)}")
    _interval(checks, "level 2 expected utility of a1", rows[2].eu["a1"], 0.0, 10.0)
    _interval(checks, "level 2 expected utility of a2", rows[2].eu["a2"], -3.0, -1.5)
    _decision(checks, "decision from the full sequence", report, "a1", 2)
    quoted = {"a1": Interval(-16.8, 10.0), "a2": Interval(-5.5, 0.0)}
    _value(checks, "midpoint of the quoted a1 interval", quoted["a1"].midpoint, -3.4)
    _value(checks, "midpoint of the quoted a2 interval", quoted["a2"].midpoint, -2.75)
    _true(checks, "midpoints rank a2 over a1",
          midpoint_rank(quoted) == ["a2", "a1"], f"got {midpoint_rank(quoted)}")
    result.notes.append(
        "the example quotes [-16.8, 10] for a1 at level 1, which matches a "
        "lower probability bound of .33; the stated bound .35 gives -16.0, "
        "and that is what the engine computes"
    )
    return result


def _replicate_b() -> ReplicationResult:
    result = ReplicationResult("B")
    checks = result.checks
    doc = load_fixture("example_b")
    seq = doc.build_sequence()
    _interval(checks, "direct inference pins G at body 2",
              seq.levels[2].assignments["a1"]["G"], 0.84, 0.88)
    report = explore(doc.problem, seq, doc.tolerance)
    rows = {row.index: row for row in report.trace}
    _interval(checks, "body 1 expected utility of a1", rows[1].eu["a1"], -18.0, 2.0)
    _true(checks, "body 1 leaves both acts undominated",
          rows[1].maximal == ("a1", "a2"), f"got {list(rows[1].maximal)}")
    _interval(checks, "body 2 expected utility of a1", rows[2].eu["a1"], 3.6, 5.2)
    _decision(checks, "decision once the sharper class is accepted", report, "a1", 2)
    _value(checks, "error actually incurred", report.error_used, 0.005)
    return result


def _replicate_c() -> ReplicationResult:
    result = ReplicationResult("C")
    checks = result.checks
    berry = load_fixture("example_c_berry")
    lottery = load_fixture("example_c_lottery")
    shared = berry.level_specs == lottery.level_specs
    _true(checks, "both problems share one credal state",
          shared, "level blocks match" if shared else "level blocks differ")
    berry_seq = berry.build_sequence()
    lottery_seq = lottery.build_sequence()
    lottery_report = explore(lottery.problem, lottery_seq, lottery.tolerance)
    lottery_rows = {row.index: row for row in lottery_report.trace}
    _interval(checks, "lottery: level 1 expected utility of enter",
              lottery_rows[1].eu["enter"], 0.2, 0.6)
    _decision(checks, "lottery settles early", lottery_report, "enter", 1)
    berry_report = explore(berry.problem, berry_seq, berry.tolerance)
    berry_rows = {row.index: row for row in berry_report.trace}
    _interval(checks, "berries: level 1 expected utility of a1",
              berry_rows[1].eu["a1"], -6.0, 2.0)
    _true(checks, "berries: level 1 leaves both acts undominated",
          berry_rows[1].maximal == ("a1", "a2"),
          f"got {list(berry_rows[1].maximal)}")
    _interval(checks, "berries: level 2 expected utility of a1",
              berry_rows[2].eu["a1"], -18.0, -14.0)
    _decision(checks, "berries settle only at level 2", berry_report, "a2", 2)
    berry_nested = is_nested(berry_seq, berry.problem)
    _true(checks, "berry levels do not nest",
          not berry_nested, f"is_nested returned {berry_nested}")
    lottery_nested = is_nested(lottery_seq, lottery.problem)
    _true(checks, "lottery levels do not nest",
          not lottery_nested, f"is_nested returned {lottery_nested}")
    return result


def _pooled_level_sequence(problem, event: str, value: float) -> CredalSequence:
    body = BodyOfKnowledge(0, 0.0, (
        Statement.event_interval("pooled", event, ProbInterval(value, value)),
    ))
    return CredalSequence((level_from_body(body, problem),))


def _replicate_d() -> ReplicationResult:
    result = ReplicationResult("D")
    checks = result.checks
    frame = ("G", "not-G")
    m1 = MassFunction(frame, {"G": 0.7, "not-G": 0.3})
    m2 = MassFunction(frame, {"G": 0.6, "not-G": 0.4})
    _value(checks, "pooled belief in G with both sources trusted",
           bel(dempster_combine(m1, m2), "G"), 0.42 / 0.54)
    rstar = discount_threshold(m1, m2, "G", 0.75)
    _value(checks, "discount rate where belief crosses .75",
           rstar, 3.0 / 13.0, tol=1e-6)
    doc = load_fixture("example_d")
    for rate, want_act in ((0.2, "a1"), (0.25, "a2")):
        blend = bel(dempster_combine(m1, discount(m2, rate)), "G")
        want = (0.42 + 0.28 * rate) / (0.54 + 0.46 * rate)
        _value(checks, f"belief in G at discount {rate}", blend, want)
        seq = _pooled_level_sequence(doc.problem, "G", blend)
        report = explore(doc.problem, seq, doc.tolerance)
        _true(checks, f"discount {rate} mandates {want_act}",
              report.status == DECIDED and report.act == want_act,
              f"got {report.status}/{report.act}")
    _value(checks, "full distrust of the second source leaves belief .7",
           bel(dempster_combine(m1, discount(m2, 1.0)), "G"), 0.7)
    _value(checks, "target .7 is reached only at full discount",
           discount_threshold(m1, m2, "G", 0.7), 1.0)
    file_report = explore(doc.problem, doc.build_sequence(), doc.tolerance)
    _decision(checks, "bundled file decides from the pooled belief",
              file_report, "a1", 1)
    return result


def replicate(example: str) -> ReplicationResult:
    """Run one bundled example; the result lists every check."""
    key = example.strip().upper()
    runners = {"A": _replicate_a, "B": _replicate_b,
               "C": _replicate_c, "D": _replicate_d}
    if key not in runners:
        raise ValueError(
            f"unknown example {example!r}; choose one of {', '.join(EXAMPLES)}"
        )
    return runners[key]()
