import json
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalbox import (
    Act,
    CredalLevel,
    CredalSequence,
    DECIDED,
    DecisionProblem,
    InfeasibleLevelError,
    NO_MANDATE,
    Outcome,
    ParameterizedCredal,
    ProbInterval,
    RISK_PROBLEM,
    VACUOUS,
    DecisionReport,
    Interval,
    ToleranceSpec,
    TraceRow,
    WeightedCredal,
    explore,
    higher_order_eu,
    starr,
    tolerable_error,
)
from support import (
    interval_close,
    oracle_explore,
    oracle_higher_order_eu,
    oracle_starr,
    outcome,
)

# a coarse grid, so that point boxes, tied bounds and infeasible boxes
# are common
GRID_INTERVALS = st.tuples(*[st.sampled_from([0.0, 0.25, 0.5, 1.0])] * 2).map(
    lambda p: ProbInterval(*sorted(p)))
GRID_DISTRIBUTIONS = {1: [(1.0,)], 2: [(0.5, 0.5), (0.25, 0.75), (1.0, 0.0)],
                      3: [(0.25, 0.25, 0.5), (0.5, 0.5, 0.0)]}


@st.composite
def grid_acts(draw, name):
    """An act of one to three outcomes, on grid utilities, with a
    vacuous box or, one time in four, a point distribution."""
    n = draw(st.integers(1, 3))
    utils = draw(st.lists(st.sampled_from([-2.0, 0.0, 1.0, 3.0]),
                          min_size=n, max_size=n))
    if draw(st.integers(0, 3)):
        probs = [VACUOUS] * n
    else:
        probs = [ProbInterval(p, p)
                 for p in draw(st.sampled_from(GRID_DISTRIBUTIONS[n]))]
    return Act(name, tuple(Outcome(f"o{i}", u, p)
                           for i, (u, p) in enumerate(zip(utils, probs))))


def jerry_problem():
    return DecisionProblem("berries", (
        Act("a1", (Outcome("G", 10.0), Outcome("not-G", -30.0))),
        Act("a2", (Outcome("H", -10.0), Outcome("not-H", 0.0))),
    ))


def narrowing_sequence():
    # vacuous start, then two successively sharper looks at the same
    # pair of acts; only the last level separates them
    return CredalSequence((
        CredalLevel(0, 0.0, {}),
        CredalLevel(1, 0.01, {
            "a1": {"G": ProbInterval(0.35, 1.0),
                   "not-G": ProbInterval(0.0, 0.65)},
            "a2": {"H": ProbInterval(0.0, 0.55),
                   "not-H": ProbInterval(0.45, 1.0)},
        }),
        CredalLevel(2, 0.25, {
            "a1": {"G": ProbInterval(0.75, 1.0),
                   "not-G": ProbInterval(0.0, 0.25)},
            "a2": {"H": ProbInterval(0.15, 0.3),
                   "not-H": ProbInterval(0.7, 0.85)},
        }),
    ))


class TestTolerableError:
    def test_lopsided_stakes(self):
        problem = DecisionProblem("p", (
            Act("a", (Outcome("w", 20.0), Outcome("l", -1.0))),
        ))
        got = tolerable_error(problem, ToleranceSpec.odds_derived())
        assert got == pytest.approx(1.0 / 21.0)

    def test_even_stakes(self):
        problem = DecisionProblem("p", (
            Act("a", (Outcome("w", 5.0), Outcome("l", -5.0))),
        ))
        got = tolerable_error(problem, ToleranceSpec.odds_derived())
        assert got == pytest.approx(0.5)

    def test_explicit_passes_through(self):
        got = tolerable_error(jerry_problem(), ToleranceSpec.explicit(0.05))
        assert got == 0.05

    def test_no_downside_no_odds(self):
        problem = DecisionProblem("p", (
            Act("a", (Outcome("w", 5.0), Outcome("l", 1.0))),
        ))
        with pytest.raises(ValueError, match="gain.*loss|loss.*gain"):
            tolerable_error(problem, ToleranceSpec.odds_derived())

    def test_flat_stakes_no_odds(self):
        problem = DecisionProblem("p", (
            Act("a", (Outcome("w", 0.0), Outcome("l", 0.0))),
        ))
        with pytest.raises(ValueError):
            tolerable_error(problem, ToleranceSpec.odds_derived())

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="mode"):
            ToleranceSpec(mode="vibes")
        with pytest.raises(ValueError):
            ToleranceSpec.explicit(1.5)
        with pytest.raises(ValueError):
            ToleranceSpec.explicit(-0.1)
        # a bool would be written as "tolerance": true, which the report
        # schema refuses; ints still pass
        for flag in (True, False):
            with pytest.raises(ValueError, match=f"needs max_error in \\[0, 1\\], got {flag}$"):
                ToleranceSpec.explicit(flag)
        assert ToleranceSpec.explicit(1).max_error == 1
        with pytest.raises(ValueError, match="no max_error"):
            ToleranceSpec(mode="odds-derived", max_error=0.3)


class TestExplore:
    def test_decides_at_first_separating_level(self):
        report = explore(jerry_problem(), narrowing_sequence(),
                         ToleranceSpec.explicit(0.5))
        assert report.status == DECIDED
        assert report.act == "a1"
        assert report.level_used == 2
        assert report.error_used == 0.25
        assert not report.ambiguous
        assert [row.index for row in report.trace] == [0, 1, 2]
        interval_close(report.trace[1].eu["a1"], -16.0, 10.0)
        interval_close(report.trace[1].eu["a2"], -5.5, 0.0)
        assert report.trace[2].maximal == ("a1",)

    def test_tolerance_cuts_off_before_decision(self):
        report = explore(jerry_problem(), narrowing_sequence(),
                         ToleranceSpec.explicit(0.04))
        assert report.status == NO_MANDATE
        assert report.act is None
        assert report.level_used is None
        assert [row.error for row in report.trace] == [0.0, 0.01]

    def test_cutoff_is_strict(self):
        report = explore(jerry_problem(), narrowing_sequence(),
                         ToleranceSpec.explicit(0.25))
        assert report.status == NO_MANDATE
        assert len(report.trace) == 2

    def test_zero_tolerance_explores_nothing(self):
        report = explore(jerry_problem(), narrowing_sequence(),
                         ToleranceSpec.explicit(0.0))
        assert report.status == NO_MANDATE
        assert report.trace == ()

    def test_default_tolerance_is_permissive(self):
        report = explore(jerry_problem(), narrowing_sequence())
        assert report.status == DECIDED
        assert report.tolerance == 1.0

    def test_point_tie_is_a_risk_problem(self):
        problem = DecisionProblem("coin", (
            Act("a1", (Outcome("win", 1.0, ProbInterval(0.5, 0.5)),
                       Outcome("lose", 0.0, ProbInterval(0.5, 0.5)))),
            Act("a2", (Outcome("flat", 0.5, ProbInterval(1.0, 1.0)),)),
        ))
        seq = CredalSequence((CredalLevel(0, 0.0, {}),))
        report = explore(problem, seq)
        assert report.status == RISK_PROBLEM
        assert report.ambiguous
        assert report.act == "a1"
        assert report.level_used == 0

    def test_unique_point_maximum_is_decided_not_risk(self):
        problem = DecisionProblem("clear", (
            Act("a1", (Outcome("win", 1.0, ProbInterval(1.0, 1.0)),)),
            Act("a2", (Outcome("meh", 0.0, ProbInterval(1.0, 1.0)),)),
        ))
        report = explore(problem, CredalSequence((CredalLevel(0, 0.0, {}),)))
        assert report.status == DECIDED
        assert not report.ambiguous
        assert report.act == "a1"

    def test_infeasible_level_names_itself(self):
        seq = CredalSequence((
            CredalLevel(0, 0.0, {}),
            CredalLevel(1, 0.1, {
                "a1": {"G": ProbInterval(0.7, 0.8),
                       "not-G": ProbInterval(0.7, 0.8)},
            }),
        ))
        with pytest.raises(InfeasibleLevelError, match="level 1 .error 0.1."):
            explore(jerry_problem(), seq)

    def test_partial_infeasible_box_message_in_full(self):
        # the box names G alone; not-G keeps its declared [0, 0.5]
        problem = DecisionProblem("half", (
            Act("a1", (Outcome("G", 10.0),
                       Outcome("not-G", -30.0, ProbInterval(0.0, 0.5)))),
            Act("a2", (Outcome("pass", 0.0),)),
        ))
        seq = CredalSequence((
            CredalLevel(0, 0.0, {}),
            CredalLevel(1, 0.1, {"a1": {"G": ProbInterval(0.0, 0.3)}}),
        ))
        with pytest.raises(InfeasibleLevelError) as exc_info:
            explore(problem, seq)
        assert str(exc_info.value) == (
            "level 1 (error 0.1): act 'a1': outcome upper bounds sum to 0.8, below 1")

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_the_oracle(self, data):
        problem = DecisionProblem("p", tuple(
            data.draw(grid_acts(f"a{i}")) for i in range(data.draw(st.integers(2, 4)))))
        levels = []
        # level 0 keeps the declared boxes, as a vacuous first level does
        for j in range(data.draw(st.integers(1, 4))):
            boxes = {}
            for act in problem.acts:
                if j and data.draw(st.booleans()):
                    labels = data.draw(st.lists(st.sampled_from(act.labels()),
                                                unique=True))
                    boxes[act.name] = {label: data.draw(GRID_INTERVALS)
                                       for label in labels}
            levels.append(CredalLevel(j, j / 8.0, boxes))
        seq = CredalSequence(tuple(levels))
        spec = data.draw(st.sampled_from(
            [None, ToleranceSpec.explicit(0.2), ToleranceSpec.odds_derived()]))
        want = outcome(lambda: oracle_explore(problem, seq, spec))
        # again on the same problem, whose acts now hold their intervals
        for _ in range(2):
            assert outcome(lambda: explore(problem, seq, spec)) == want

    def test_exploration_is_repeatable(self):
        a = explore(jerry_problem(), narrowing_sequence(),
                    ToleranceSpec.explicit(0.5))
        b = explore(jerry_problem(), narrowing_sequence(),
                    ToleranceSpec.explicit(0.5))
        assert a == b
        assert a.to_dict() == b.to_dict()

    def test_unknown_status_rejected(self):
        with pytest.raises(ValueError, match="^unknown report status 'maybe'$"):
            DecisionReport(problem="p", status="maybe", tolerance=1.0)

    def test_to_dict_shape(self):
        report = explore(jerry_problem(), narrowing_sequence(),
                         ToleranceSpec.explicit(0.5))
        doc = report.to_dict()
        assert doc["problem"] == "berries"
        assert doc["status"] == "decided"
        assert doc["act"] == "a1"
        assert doc["trace"][2]["eu"]["a2"] == [-3.0, -1.5]
        assert doc["trace"][2]["maximal"] == ["a1"]


def reference_json(report):
    return json.dumps(report.to_dict(), indent=2, allow_nan=False)


# names json must escape: quotes, backslashes, control characters,
# non-ASCII, an astral character and a lone surrogate
REPORT_NAMES = st.one_of(
    st.text(max_size=6),
    st.sampled_from(['"', "\\", "a\x00\x1f\x7f", "é", "\U0001d11e", "\ud800", "a1"]),
)
REPORT_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308]),
)
# intervals every report draws from, as an unboxed act brings back its
# one cached interval level after level: one object that turns up in
# several rows, objects of equal value that differ in the sign of a zero,
# and a non-finite interval that two rows may share
SHARED_INTERVALS = (Interval(0.25, 0.5), Interval(0.0, 0.0), Interval(-0.0, -0.0),
                    Interval(-0.0, 0.5), Interval(0.0, 0.5), Interval(0.0, math.inf))
TRACE_ROWS = st.builds(
    TraceRow,
    index=st.integers(0, 12),
    error=REPORT_FLOATS,
    # a few names recur, so that one act meets a shared interval in
    # several rows
    eu=st.dictionaries(
        st.sampled_from(["a1", "a2"]) | REPORT_NAMES,
        st.sampled_from(SHARED_INTERVALS) | st.tuples(REPORT_FLOATS, REPORT_FLOATS).map(
            lambda p: Interval(*sorted(p))), max_size=4),
    maximal=st.lists(REPORT_NAMES, max_size=3),
)
REPORTS = st.builds(
    DecisionReport,
    problem=REPORT_NAMES,
    status=st.sampled_from([DECIDED, RISK_PROBLEM, NO_MANDATE]),
    tolerance=st.one_of(REPORT_FLOATS, st.integers(0, 1)),
    act=st.none() | REPORT_NAMES,
    level_used=st.none() | st.integers(0, 12),
    error_used=st.none() | REPORT_FLOATS,
    ambiguous=st.booleans(),
    trace=st.lists(TRACE_ROWS, max_size=4),
)


class TestToJson:
    @settings(max_examples=300, deadline=None)
    @given(REPORTS)
    def test_writes_what_json_writes(self, report):
        assert outcome(report.to_json) == outcome(lambda: reference_json(report))

    def test_shared_intervals_are_written_per_object(self):
        shared = Interval(0.25, 0.5)
        # equal in value, written differently
        zero, negative_zero = Interval(0.0, 0.0), Interval(-0.0, -0.0)
        report = DecisionReport("p", NO_MANDATE, 0.5, trace=(
            TraceRow(0, 0.0, {"a": shared, "b": zero, "c": shared}, ("a",)),
            TraceRow(1, 0.1, {"a": shared, "b": negative_zero, "c": zero}, ("b",)),
            TraceRow(2, 0.2, {"a": shared, "b": zero}, ()),
        ))
        text = report.to_json()
        assert text == reference_json(report)
        # only row 1 writes b's negative zeros
        assert text.count("-0.0") == 2

    def test_shared_non_finite_interval_raises_as_json_does(self):
        bad = Interval(0.0, math.inf)
        report = DecisionReport("p", NO_MANDATE, 0.5, trace=(
            TraceRow(0, 0.0, {"a": bad}, ()), TraceRow(1, 0.1, {"a": bad}, ())))
        got = outcome(report.to_json)
        assert got == outcome(lambda: reference_json(report))
        assert got[0] is ValueError

    def test_non_str_act_name_falls_back_to_json(self):
        # json writes an int key as a string and refuses a tuple key
        iv = Interval(0.0, 1.0)
        for eu, maximal in (({1: iv, "a": iv}, ("a",)), ({"a": iv}, (1,)),
                            ({("a",): iv}, ())):
            report = DecisionReport("p", NO_MANDATE, 0.5, trace=(
                TraceRow(0, 0.0, eu, maximal), TraceRow(1, 0.1, eu, maximal)))
            try:
                want = reference_json(report)
            except TypeError as exc:
                with pytest.raises(TypeError, match=re.escape(str(exc))):
                    report.to_json()
            else:
                assert report.to_json() == want

    def test_empty_trace_and_empty_rows(self):
        for trace in ((), (TraceRow(0, 0.0, {}, ()),),
                      (TraceRow(0, 0.0, {"a": Interval(0.0, 1.0)}, ()),)):
            report = DecisionReport("p", NO_MANDATE, 0.5, trace=trace)
            assert report.to_json() == reference_json(report)

    def test_int_tolerance(self):
        report = explore(jerry_problem(), narrowing_sequence(),
                         ToleranceSpec.explicit(1))
        assert report.tolerance == 1 and type(report.tolerance) is int
        assert '\n  "tolerance": 1,\n' in report.to_json()
        assert report.to_json() == reference_json(report)

    def test_ambiguous_risk_problem(self):
        report = DecisionReport("p", RISK_PROBLEM, 0.5, act="a", level_used=0,
                                error_used=-0.0, ambiguous=True, trace=(
                                    TraceRow(0, -0.0, {"a": Interval(1.0, 1.0),
                                                       "b": Interval(1.0, 1.0)},
                                             ("a", "b")),))
        assert report.to_json() == reference_json(report)

    @pytest.mark.parametrize("fields", [
        {"tolerance": math.nan},
        {"error_used": math.inf},
        {"trace": (TraceRow(0, -math.inf, {}, ()),)},
        {"trace": (TraceRow(0, 0.0, {"a": Interval(-math.inf, 0.0)}, ()),)},
        {"trace": (TraceRow(0, 0.0, {"a": Interval(0.0, math.inf)}, ()),)},
        # json refuses the first in document order
        {"tolerance": math.inf, "trace": (TraceRow(0, math.nan, {}, ()),)},
        {"trace": (TraceRow(0, math.inf, {"a": Interval(-math.inf, 0.0)}, ()),)},
    ])
    def test_non_finite_float_raises_as_json_does(self, fields):
        report = DecisionReport(**{"problem": "p", "status": NO_MANDATE,
                                   "tolerance": 0.5, **fields})
        got = outcome(report.to_json)
        assert got == outcome(lambda: reference_json(report))
        assert got[0] is ValueError

    class _Float(float):
        def __repr__(self):
            return "not a float repr"

    @pytest.mark.parametrize("fields", [
        # number fields refuse a bool; a bool elsewhere is json's to write
        {"act": True},
        {"tolerance": _Float(0.5)},
        {"problem": ["a", 1]},
        {"trace": (TraceRow(0, 0.0, {1: Interval(0.0, 1.0)}, ()),)},
        {"trace": (TraceRow(0, 0.0, {}, (2, None)),)},
        {"trace": (TraceRow(1, 0, {"a": Interval(0, 1)}, ("a",)),)},
    ])
    def test_undeclared_types_are_written_as_json_writes_them(self, fields):
        report = DecisionReport(**{"problem": "p", "status": NO_MANDATE,
                                   "tolerance": 0.5, **fields})
        assert report.to_json() == reference_json(report)

    @pytest.mark.parametrize("field, kind", [
        ("tolerance", "a number"), ("level_used", "an int"),
        ("error_used", "a number"),
    ])
    def test_report_number_fields_refuse_bools(self, field, kind):
        # True == 1 would pass, and be written as true where the report
        # schema needs a number
        for flag in (True, False):
            fields = {"problem": "p", "status": DECIDED, "tolerance": 0.5,
                      "act": "a", "level_used": 0, "error_used": 0.0,
                      field: flag}
            with pytest.raises(ValueError,
                               match=f"^report {field} must be {kind}, got {flag}$"):
                DecisionReport(**fields)

    def test_trace_row_number_fields_refuse_bools(self):
        eu = {"a": Interval(1.0, 1.0)}
        for flag in (True, False):
            with pytest.raises(ValueError,
                               match=f"^trace row index must be an int, got {flag}$"):
                TraceRow(flag, 0.0, eu, ("a",))
            with pytest.raises(ValueError,
                               match=f"^trace row error must be a number, got {flag}$"):
                TraceRow(0, flag, eu, ("a",))

    def test_hand_built_bool_report_is_refused(self):
        # the repro of a hand-built report that wrote true and false into
        # five number fields: the first it meets is refused
        with pytest.raises(ValueError, match="^trace row index must be an int"):
            DecisionReport("p", "decided", True, act="a", level_used=True,
                           error_used=False, trace=(TraceRow(
                               True, False, {"a": Interval(1.0, 1.0)}, ("a",)),))
        with pytest.raises(ValueError, match="^report tolerance must be a number"):
            DecisionReport("p", "decided", True, act="a", level_used=True,
                           error_used=False)

    def test_int_and_float_number_fields_still_pass(self):
        report = DecisionReport("p", DECIDED, 1, act="a", level_used=2,
                                error_used=0, trace=(TraceRow(
                                    2, 1, {"a": Interval(1.0, 1.0)}, ("a",)),))
        assert report.to_json() == reference_json(report)
        assert report.to_json() == json.dumps(report.to_dict(), indent=2)

    def test_unencodable_value_raises_as_json_does(self):
        report = DecisionReport("p", NO_MANDATE, 0.5, act=object())
        with pytest.raises(TypeError) as want:
            reference_json(report)
        with pytest.raises(TypeError) as got:
            report.to_json()
        assert str(got.value) == str(want.value)


class TestHigherOrderEu:
    def test_single_member_is_plain_expectation(self):
        credal = WeightedCredal(((
            {"a1": (0.75, 0.25), "a2": (0.5, 0.5)}, 1.0),))
        got = higher_order_eu(jerry_problem(), credal)
        assert got["a1"] == pytest.approx(0.75 * 10 - 0.25 * 30)
        assert got["a2"] == pytest.approx(-5.0)

    def test_two_member_mixture(self):
        credal = WeightedCredal((
            ({"a1": (0.6, 0.4), "a2": (0.5, 0.5)}, 0.5),
            ({"a1": (0.8, 0.2), "a2": (0.5, 0.5)}, 0.5),
        ))
        got = higher_order_eu(jerry_problem(), credal)
        assert got["a1"] == pytest.approx(-2.0)

    def test_mixture_equals_weighted_member_average(self):
        members = (
            ({"a1": (0.3, 0.7), "a2": (0.9, 0.1)}, 0.25),
            ({"a1": (0.5, 0.5), "a2": (0.2, 0.8)}, 0.75),
        )
        mixed = higher_order_eu(jerry_problem(), WeightedCredal(members))
        parts = [
            higher_order_eu(jerry_problem(),
                            WeightedCredal(((assignment, 1.0),)))
            for assignment, _ in members
        ]
        for name in ("a1", "a2"):
            want = 0.25 * parts[0][name] + 0.75 * parts[1][name]
            assert mixed[name] == pytest.approx(want)

    def test_weight_validation(self):
        member = {"a1": (0.5, 0.5), "a2": (0.5, 0.5)}
        with pytest.raises(ValueError, match="at least one"):
            WeightedCredal(())
        with pytest.raises(ValueError, match="non-negative"):
            WeightedCredal(((member, 1.5), (member, -0.5)))
        with pytest.raises(ValueError, match="sum"):
            WeightedCredal(((member, 0.4), (member, 0.4)))
        with pytest.raises(ValueError, match="member 1 has non-finite weight"):
            WeightedCredal(((member, 1.0), (member, math.nan)))

    def test_member_must_cover_every_act(self):
        credal = WeightedCredal((({"a1": (0.5, 0.5)}, 1.0),))
        with pytest.raises(ValueError, match="assigns nothing to act 'a2'"):
            higher_order_eu(jerry_problem(), credal)

    def test_member_distributions_checked(self):
        short = WeightedCredal((({"a1": (1.0,), "a2": (0.5, 0.5)}, 1.0),))
        with pytest.raises(ValueError, match="1 probabilities for 2"):
            higher_order_eu(jerry_problem(), short)
        off = WeightedCredal((({"a1": (0.6, 0.6), "a2": (0.5, 0.5)}, 1.0),))
        with pytest.raises(ValueError, match="sum"):
            higher_order_eu(jerry_problem(), off)
        neg = WeightedCredal((({"a1": (1.5, -0.5), "a2": (0.5, 0.5)}, 1.0),))
        with pytest.raises(ValueError, match="negative"):
            higher_order_eu(jerry_problem(), neg)
        for bad in ((math.nan, 1.0), (math.inf, -math.inf), (math.inf, 0.0)):
            credal = WeightedCredal((({"a1": bad, "a2": (0.5, 0.5)}, 1.0),))
            with pytest.raises(ValueError, match="act 'a1': .* finite"):
                higher_order_eu(jerry_problem(), credal)


def gather_or_pass():
    return DecisionProblem("roadside", (
        Act("a1", (Outcome("G", 10.0), Outcome("not-G", -30.0))),
        Act("a2", (Outcome("pass", 0.0),)),
    ))


def theta_mapping(theta):
    return {"a1": (theta, 1.0 - theta), "a2": (1.0,)}


class TestStarr:
    def test_share_of_range_fixture(self):
        winner, measures = starr(
            gather_or_pass(),
            ParameterizedCredal(0.3, 0.8, theta_mapping))
        # a1 is point-optimal only past 0.75, a tenth of [0.3, 0.8]
        assert winner == "a2"
        assert measures["a1"] == pytest.approx(0.1, abs=1e-12)
        assert measures["a2"] == pytest.approx(0.9, abs=1e-12)

    def test_always_optimal_act_takes_the_whole_range(self):
        winner, measures = starr(
            gather_or_pass(),
            ParameterizedCredal(0.76, 0.8, theta_mapping))
        assert winner == "a1"
        assert measures["a1"] == pytest.approx(1.0, abs=1e-12)
        assert measures["a2"] == 0.0

    def test_grid_ties_split_evenly(self):
        problem = DecisionProblem("mirror", (
            Act("x", (Outcome("hit", 1.0),)),
            Act("y", (Outcome("hit", 1.0),)),
        ))
        credal = ParameterizedCredal(
            0.0, 1.0, lambda theta: {"x": (1.0,), "y": (1.0,)})
        winner, measures = starr(problem, credal)
        assert winner == "x"
        assert measures["x"] == pytest.approx(0.5, abs=1e-12)
        assert measures["y"] == pytest.approx(0.5, abs=1e-12)

    def test_crossing_at_the_midpoint(self):
        problem = DecisionProblem("cross", (
            Act("x", (Outcome("w", 1.0), Outcome("l", 0.0))),
            Act("y", (Outcome("w", 0.0), Outcome("l", 1.0))),
        ))
        credal = ParameterizedCredal(
            0.0, 1.0,
            lambda theta: {"x": (theta, 1.0 - theta),
                           "y": (theta, 1.0 - theta)})
        winner, measures = starr(problem, credal)
        # cell midpoints never land on the crossover itself
        assert measures["x"] == pytest.approx(0.5, abs=1e-12)
        assert measures["y"] == pytest.approx(0.5, abs=1e-12)
        assert winner == "x"

    def test_measures_sum_to_one(self):
        for resolution in (100, 1000, 4097):
            _, measures = starr(
                gather_or_pass(),
                ParameterizedCredal(0.3, 0.8, theta_mapping, resolution))
            assert sum(measures.values()) == pytest.approx(1.0, abs=1e-9)

    def test_mapping_must_cover_every_act(self):
        credal = ParameterizedCredal(
            0.3, 0.8, lambda theta: {"a1": (theta, 1.0 - theta)})
        with pytest.raises(ValueError, match="no distribution for act 'a2'"):
            starr(gather_or_pass(), credal)

    def test_nan_probability_names_the_act(self):
        credal = ParameterizedCredal(
            0.3, 0.8, lambda theta: {"a1": (math.nan, 1.0), "a2": (1.0,)})
        with pytest.raises(ValueError, match="act 'a1': .* finite"):
            starr(gather_or_pass(), credal)

    def test_parameter_range_and_resolution_validated(self):
        with pytest.raises(ValueError, match="non-empty"):
            ParameterizedCredal(0.8, 0.3, theta_mapping)
        with pytest.raises(ValueError, match="non-empty"):
            ParameterizedCredal(0.5, 0.5, theta_mapping)
        with pytest.raises(ValueError, match="resolution"):
            ParameterizedCredal(0.3, 0.8, theta_mapping, resolution=99)

    @pytest.mark.parametrize("lo, hi, resolution, message", [
        (0.3, 0.8, 100.5, "resolution must be an int, got 100.5"),
        (0.3, 0.8, 1000.0, "resolution must be an int, got 1000.0"),
        (0.3, 0.8, True, "resolution must be an int, got True"),
        (0.3, 0.8, "1000", "resolution must be an int, got '1000'"),
        (0.3, math.inf, 1000,
         "parameter range [0.3, inf] must have finite endpoints"),
        (-math.inf, 0.8, 1000,
         "parameter range [-inf, 0.8] must have finite endpoints"),
        # finite endpoints whose span overflows would put theta at inf
        (-1e308, 1e308, 100,
         "parameter range [-1e+308, 1e+308] must have a finite span"),
        # a NaN endpoint leaves the range empty, as it always did
        (math.nan, 0.8, 1000, "parameter range [nan, 0.8] must be non-empty"),
    ])
    def test_non_int_resolution_and_infinite_range_refused(self, lo, hi,
                                                          resolution, message):
        with pytest.raises(ValueError) as exc:
            ParameterizedCredal(lo, hi, theta_mapping, resolution)
        assert str(exc.value) == message

    def test_widest_finite_span_accepted(self):
        top = sys.float_info.max
        credal = ParameterizedCredal(-top / 2, top / 2, theta_mapping)
        assert credal.hi - credal.lo == top


# outcome utilities and distributions on a coarse grid of exact binary
# fractions, so that grid points where acts tie exactly are common
TIE_UTILITIES = [-2.0, 0.0, 1.0, 3.0]
# entries that _point_eu refuses, each for an act of n >= 2 outcomes
BAD_DISTRIBUTIONS = {
    "length": lambda n: (1.0,) * (n + 1),
    "nan": lambda n: (math.nan,) + (1.0,) * (n - 1),
    "inf": lambda n: (math.inf, -math.inf) + (0.0,) * (n - 2),
    "sum": lambda n: (0.75,) * n,
    "negative": lambda n: (1.5, -0.5) + (0.0,) * (n - 2),
}


@st.composite
def tied_families(draw, faults=False):
    """(problem, table): one to four acts on grid utilities, and per act
    a cycle of grid distributions that a mapping steps through.  With
    faults, one cycle entry in three may be missing or refused."""
    n_acts = draw(st.integers(1, 4))
    acts, table = [], {}
    for a in range(n_acts):
        n = draw(st.integers(2 if faults else 1, 3))
        utils = draw(st.lists(st.sampled_from(TIE_UTILITIES),
                              min_size=n, max_size=n))
        acts.append(Act(f"a{a}", tuple(Outcome(f"o{i}", u)
                                       for i, u in enumerate(utils))))
        entries = st.sampled_from(GRID_DISTRIBUTIONS[n])
        if faults:
            entries = st.one_of(entries, entries, st.one_of(
                st.none(),
                st.sampled_from(sorted(BAD_DISTRIBUTIONS)).map(
                    lambda kind, n=n: BAD_DISTRIBUTIONS[kind](n))))
        table[f"a{a}"] = draw(st.lists(entries, min_size=1, max_size=4))
    return DecisionProblem("grid", tuple(acts)), table


def cycling(table, cells):
    """A mapping that gives each act its table entry for the grid cell
    theta falls in, cycling through the entries; None leaves it out."""
    def mapping(theta):
        cell = int(theta * cells)
        out = {}
        for name, entries in table.items():
            probs = entries[cell % len(entries)]
            if probs is not None:
                out[name] = probs
        return out
    return mapping


def bits(result):
    """starr's or higher_order_eu's result with every float as float.hex,
    in dict order, or the ValueError's type and text."""
    if isinstance(result, tuple) and isinstance(result[0], type):
        return result
    if isinstance(result, tuple):
        winner, measures = result
        return winner, [(k, v.hex()) for k, v in measures.items()]
    return [(k, v.hex()) for k, v in result.items()]


def softmax_family(theta):
    """Smooth distributions in theta: no two acts tie at a grid point."""
    def weights(alpha, beta):
        raw = [math.exp(a + b * theta) for a, b in zip(alpha, beta)]
        total = sum(raw)
        return tuple(w / total for w in raw)
    return {"x": weights((0.5, -1.0), (2.0, -1.0)),
            "y": weights((0.0, 0.3, -0.2), (-1.5, 0.5, 1.0)),
            "z": weights((1.0, 0.0), (0.0, 0.0))}


SOFTMAX_PROBLEM = DecisionProblem("smooth", (
    Act("x", (Outcome("w", 4.0), Outcome("l", -3.0))),
    Act("y", (Outcome("p", 2.5), Outcome("q", -1.0), Outcome("r", 0.5))),
    Act("z", (Outcome("s", 1.25), Outcome("t", -0.75))),
))


class TestStarrOracle:
    # starr keeps a list of scores per grid point and adds share whole
    # to a sole winner; the dict-keyed loop in tests/support.py is the
    # oracle, bit for bit, errors and their order included
    @settings(max_examples=200, deadline=None)
    @given(tied_families(), st.integers(100, 140), st.integers(1, 9))
    def test_matches_the_oracle(self, family, resolution, cells):
        problem, table = family
        credal = ParameterizedCredal(0.0, 1.0, cycling(table, cells), resolution)
        assert bits(starr(problem, credal)) == bits(oracle_starr(problem, credal))

    @settings(max_examples=200, deadline=None)
    @given(tied_families(faults=True), st.integers(1, 9))
    def test_errors_match_the_oracle(self, family, cells):
        problem, table = family
        credal = ParameterizedCredal(0.0, 1.0, cycling(table, cells), 100)
        assert bits(outcome(lambda: starr(problem, credal))) == \
            bits(outcome(lambda: oracle_starr(problem, credal)))

    @pytest.mark.parametrize("resolution", [100, 997, 2000])
    def test_no_ties(self, resolution):
        credal = ParameterizedCredal(-2.0, 1.5, softmax_family, resolution)
        got = starr(SOFTMAX_PROBLEM, credal)
        assert bits(got) == bits(oracle_starr(SOFTMAX_PROBLEM, credal))
        assert sum(v > 0.0 for v in got[1].values()) >= 2

    @pytest.mark.parametrize("n_tied", [2, 3])
    def test_exact_ties_split_as_the_oracle_does(self, n_tied):
        # three acts of equal scores everywhere, or two of them tied
        # above a third on a coarser grid
        problem = DecisionProblem("ties", tuple(
            Act(name, (Outcome("w", 1.0), Outcome("l", 0.0)))
            for name in ("x", "y", "z")))

        def mapping(theta):
            low = (0.25, 0.75)
            return {"x": (0.5, 0.5), "y": (0.5, 0.5),
                    "z": (0.5, 0.5) if n_tied == 3 else low}
        for resolution in (100, 300, 1000):
            credal = ParameterizedCredal(0.0, 1.0, mapping, resolution)
            winner, measures = starr(problem, credal)
            assert bits((winner, measures)) == bits(oracle_starr(problem, credal))
            assert winner == "x"
            assert measures["x"] == measures["y"] > 0.0
            assert (measures["z"] == measures["x"]) == (n_tied == 3)
            assert (measures["z"] == 0.0) == (n_tied == 2)

    @pytest.mark.parametrize("mapping, message", [
        (lambda theta: {"a1": (0.5,), "a2": (1.0,)},
         "act 'a1': 1 probabilities for 2 outcomes"),
        (lambda theta: {"a1": (math.inf, 0.0), "a2": (1.0,)},
         "act 'a1': probabilities must be finite numbers"),
        (lambda theta: {"a1": (0.6, 0.6), "a2": (1.0,)},
         "act 'a1': probabilities sum to 1.2, not 1"),
        (lambda theta: {"a1": (1.5, -0.5), "a2": (1.0,)},
         "act 'a1': negative probability"),
        (lambda theta: {"a1": (0.5, 0.5)},
         "parameter 0.30024999999999996: no distribution for act 'a2'"),
        # the first act's fault is named before a later act is missing
        (lambda theta: {"a1": (1.5, -0.5)}, "act 'a1': negative probability"),
        (lambda theta: {"a2": (0.5, 0.5)},
         "parameter 0.30024999999999996: no distribution for act 'a1'"),
        # a length mismatch is named before a bad sum
        (lambda theta: {"a1": (0.6, 0.6), "a2": (0.5, 0.4)},
         "act 'a1': probabilities sum to 1.2, not 1"),
        (lambda theta: {"a1": (0.5, 0.5), "a2": (0.5, 0.4)},
         "act 'a2': 2 probabilities for 1 outcomes"),
    ], ids=["length", "finite", "sum", "negative", "missing",
            "fault-before-missing", "missing-first", "sum-before-length",
            "length-second"])
    def test_error_texts(self, mapping, message):
        credal = ParameterizedCredal(0.3, 0.8, mapping)
        with pytest.raises(ValueError) as exc:
            starr(gather_or_pass(), credal)
        assert str(exc.value) == message
        assert outcome(lambda: oracle_starr(gather_or_pass(), credal)) == \
            (ValueError, message)

    @settings(max_examples=200, deadline=None)
    @given(tied_families(faults=True), st.sampled_from([
        (1.0,), (0.5, 0.5), (0.25, 0.25, 0.5), (0.125, 0.375, 0.5)]))
    def test_higher_order_eu_matches_the_oracle(self, family, weights):
        problem, table = family
        mapping = cycling(table, 7)
        credal = WeightedCredal(tuple(
            (mapping(k / 7 + 1 / 14), w) for k, w in enumerate(weights)))
        assert bits(outcome(lambda: higher_order_eu(problem, credal))) == \
            bits(outcome(lambda: oracle_higher_order_eu(problem, credal)))
