"""Each level box is checked once on the decide path.

A level that resolution builds carries the bounds its boxes were checked
to, tied to the problem object they were checked against, and explore
evaluates from them without checking the level again.  These tests hold
that the carried bounds change nothing a caller can see (reports, error
texts), that any other level still takes the full check, and that the
checks run once per act and per boxed (act, level).
"""

import json
import sys

import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from credalbox import (
    BodyOfKnowledge,
    CredalLevel,
    CredalSequence,
    DecisionProblem,
    InfeasibleLevelError,
    ProbInterval,
    Statement,
    VACUOUS,
    cli,
    expectation,
    explore,
    knowledge,
    parse_document,
    sequence_from_bodies,
)
from support import outcome

TOP = sys.float_info.max
LABELS = ["G", "not-G", "H"]
# both zeros, and an endpoint that lets lower bounds sum just past 1
# within the feasibility slack, so that TOP utilities overflow
ENDPOINTS = [-0.0, 0.0, 0.25, 0.5, 0.5000000004, 1.0]
INTERVALS = st.tuples(*[st.sampled_from(ENDPOINTS)] * 2).map(sorted)
UTILITIES = st.sampled_from([-30.0, -1.0, -0.0, 0.0, 2.0, 10.0, TOP])
PROBS = st.sampled_from([0.8, 0.9, 0.95, 1.0])


@st.composite
def acts(draw):
    out = []
    for i in range(draw(st.integers(1, 3))):
        labels = draw(st.lists(st.sampled_from(LABELS), min_size=1, max_size=3,
                               unique=True))
        out.append({"name": f"a{i}", "outcomes": [
            {"label": label, "utility": draw(UTILITIES)} for label in labels]})
    return out


@st.composite
def constraints(draw, prob=st.just(1.0)):
    if draw(st.booleans()):
        return {"kind": "event-interval", "event": draw(st.sampled_from(LABELS)),
                "interval": draw(INTERVALS), "prob": draw(prob)}
    return {"kind": "condition", "event": draw(st.sampled_from(LABELS)),
            "value": draw(st.booleans()), "prob": draw(prob)}


@st.composite
def documents(draw):
    """A levels-form document, or one time in three a statements form
    (whose nested bodies the resolver carries forward), over acts whose
    boxes are often points, often infeasible and sometimes overflow."""
    doc = {"problem": "p", "acts": draw(acts())}
    if draw(st.integers(0, 2)):
        errors = sorted(draw(st.lists(st.sampled_from([0.0, 0.05, 0.1, 0.3]),
                                      min_size=1, max_size=4)))
        levels = []
        for error in errors:
            overrides = {}
            for act in doc["acts"]:
                if draw(st.booleans()):
                    labels = draw(st.lists(st.sampled_from(
                        [o["label"] for o in act["outcomes"]]), unique=True))
                    overrides[act["name"]] = {label: draw(INTERVALS) for label in labels}
            levels.append({"error": error,
                           "constraints": draw(st.lists(constraints(), max_size=2)),
                           "overrides": overrides})
        doc["levels"] = levels
    else:
        doc["statements"] = draw(st.lists(constraints(PROBS), max_size=4))
        doc["acceptance"] = draw(st.sampled_from([
            {"rule": "next-most-probable"},
            {"rule": "threshold", "error_levels": [0.1, 0.25]}]))
    return doc


def fresh(seq: CredalSequence) -> CredalSequence:
    """The sequence rebuilt from hand-built levels with equal assignments."""
    return CredalSequence(tuple(CredalLevel(level.index, level.error, level.assignments)
                                for level in seq.levels))


def report_bytes(problem, seq, spec):
    return outcome(lambda: explore(problem, seq, spec).to_json())


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(documents())
def test_resolved_levels_report_as_fresh_ones(data):
    try:
        doc = parse_document(data)
        seq = doc.build_sequence()
    except ValueError:
        assume(False)
    rebuilt = fresh(seq)
    assert rebuilt == seq
    want = report_bytes(doc.problem, rebuilt, doc.tolerance)
    assert report_bytes(doc.problem, seq, doc.tolerance) == want
    # an equal but distinct problem takes the full check, to the same end
    twin = parse_document(data).problem
    assert report_bytes(twin, seq, doc.tolerance) == want


DOC = {
    "problem": "berries",
    "acts": [
        {"name": "a1", "outcomes": [{"label": "G", "utility": 10.0},
                                    {"label": "not-G", "utility": -30.0}]},
        {"name": "a2", "outcomes": [{"label": "H", "utility": -10.0},
                                    {"label": "not-H", "utility": 0.0}]},
        {"name": "a3", "outcomes": [{"label": "G", "utility": -5.0},
                                    {"label": "H", "utility": -6.0},
                                    {"label": "Q", "utility": -7.0}]},
    ],
    "levels": [
        {"error": 0.0},
        {"error": 0.05, "overrides": {"a2": {"H": [0.1, 0.5]}}},
        {"error": 0.1, "constraints": [
            {"kind": "event-interval", "event": "G", "interval": [0.75, 1.0]}],
         "overrides": {"a2": {"H": [0.15, 0.3], "not-H": [0.7, 0.85]}}},
    ],
}


class TestOtherLevelsTakeTheFullCheck:
    @pytest.mark.parametrize("boxes, error, text", [
        ({"zz": {}}, ValueError, "level 0 assigns to unknown act 'zz'"),
        ({"a1": {"zz": VACUOUS}}, ValueError,
         "level 0 assigns to unknown outcome 'zz' of act 'a1'"),
        ({"a1": {"G": ProbInterval(0.7, 0.8), "not-G": ProbInterval(0.7, 0.8)}},
         InfeasibleLevelError,
         "level 0 (error 0): act 'a1': outcome lower bounds sum to 1.4, above 1"),
    ], ids=["unknown-act", "unknown-outcome", "infeasible"])
    def test_hand_built_level(self, boxes, error, text):
        problem = parse_document(DOC).problem
        with pytest.raises(error) as exc_info:
            explore(problem, CredalSequence((CredalLevel(0, 0.0, boxes),)))
        assert str(exc_info.value) == text

    def test_resolved_level_on_another_problem(self):
        # the carried bounds belong to the problem the level was resolved
        # against; another problem, even an equal one, is checked in full
        doc = parse_document(DOC)
        seq = doc.build_sequence()
        shorter = DecisionProblem("berries", tuple(
            act for act in doc.problem.acts if act.name != "a2"))
        with pytest.raises(ValueError) as exc_info:
            explore(shorter, seq)
        assert str(exc_info.value) == "level 1 assigns to unknown act 'a2'"

    def test_equal_but_distinct_problem(self, monkeypatch):
        doc = parse_document(DOC)
        seq = doc.build_sequence()
        twin = parse_document(DOC).problem
        assert twin == doc.problem and twin is not doc.problem
        calls = counted(monkeypatch, expectation, "_check_targets")
        same = explore(doc.problem, seq).to_json()
        assert calls == []
        assert explore(twin, seq).to_json() == same
        assert len(calls) == len(explore(twin, seq).trace)

    def test_record_stays_out_of_equality_and_repr(self):
        seq = parse_document(DOC).build_sequence()
        rebuilt = fresh(seq)
        assert rebuilt == seq and repr(rebuilt) == repr(seq)
        assert knowledge._checked_bounds(seq.levels[1], parse_document(DOC).problem) is None
        assert knowledge._checked_bounds(rebuilt.levels[1], None) is None


class TestLevelsKeepTheirBoxes:
    def test_hand_built_level_copies_its_boxes(self):
        box = {"G": ProbInterval(0.5, 0.9)}
        assignments = {"a1": box}
        level = CredalLevel(0, 0.0, assignments)
        assert level.assignments == assignments
        assert level.assignments is not assignments
        assert level.assignments["a1"] is not box
        box["not-G"] = ProbInterval(0.1, 0.5)
        assert level.assignments == {"a1": {"G": ProbInterval(0.5, 0.9)}}

    def test_resolved_level_keeps_the_resolver_boxes(self):
        # body 2 adds a statement on H only, so a1's box from body 1 is
        # carried forward: the very dict the resolver built, not a copy
        problem = parse_document(DOC).problem
        on_g = Statement.event_interval("g", "G", ProbInterval(0.75, 1.0))
        on_h = Statement.event_interval("h", "H", ProbInterval(0.15, 0.3))
        seq = sequence_from_bodies([BodyOfKnowledge(0, 0.0, ()),
                                    BodyOfKnowledge(1, 0.1, (on_g,)),
                                    BodyOfKnowledge(2, 0.2, (on_g, on_h))], problem)
        one, two = seq.levels[1].assignments, seq.levels[2].assignments
        assert two["a1"] is one["a1"] and type(two["a1"]) is dict
        assert two["a2"] is not one.get("a2")
        assert fresh(seq) == seq and repr(fresh(seq)) == repr(seq)
        assert knowledge._checked_bounds(seq.levels[2], problem) is not None


def counted(monkeypatch, module, name):
    """Record each call of module.name, which still runs."""
    calls = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)
    monkeypatch.setattr(module, name, wrapper)
    return calls


def test_decide_checks_each_box_once(monkeypatch, tmp_path, capsys):
    seq = parse_document(DOC).build_sequence()
    boxed = sum(len(level.assignments) for level in seq.levels)
    assert boxed == 4
    # knowledge binds both checks by name, so both modules are counted
    feasible = (counted(monkeypatch, expectation, "_check_feasible"),
                counted(monkeypatch, knowledge, "_check_feasible"))
    targets = (counted(monkeypatch, expectation, "_check_targets"),
               counted(monkeypatch, knowledge, "_check_targets"))
    path = tmp_path / "berries.json"
    path.write_text(json.dumps(DOC), encoding="utf-8")
    assert cli.main(["decide", str(path), "--json"]) == 0
    report = json.loads(capsys.readouterr().out)
    # the deciding level is the last, so every level is explored
    assert report["level_used"] == 2
    assert sum(map(len, feasible)) == len(DOC["acts"]) + boxed
    assert sum(map(len, targets)) == len(DOC["levels"])
