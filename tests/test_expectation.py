import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalbox import (
    RISK_PROBLEM,
    VACUOUS,
    Act,
    CredalLevel,
    CredalSequence,
    DecisionProblem,
    FeasibilityError,
    InfeasibleLevelError,
    Outcome,
    ProbInterval,
    eu_all,
    eu_interval,
    explore,
)
from credalbox import expectation
from support import (
    feasible_acts,
    interval_close,
    oracle_explore,
    outcome,
    rebuild_every_act,
    vertex_eu_bounds,
)


def act(name, *outs):
    return Act(name, tuple(
        Outcome(label, u, ProbInterval(lo, hi)) for label, u, lo, hi in outs
    ))


BERRY_99 = act("a1", ("G", 10.0, 0.75, 1.0), ("not-G", -30.0, 0.0, 0.25))
PASS_99 = act("a2", ("H", -10.0, 0.0, 0.55), ("not-H", 0.0, 0.45, 1.0))


class TestEuInterval:
    def test_favourable_two_outcome_box(self):
        assert interval_close(eu_interval(BERRY_99), 0.0, 10.0)

    def test_loss_only_two_outcome_box(self):
        assert interval_close(eu_interval(PASS_99), -5.5, 0.0)

    def test_point_distribution_collapses(self):
        a = act("even", ("w", 1.0, 0.5, 0.5), ("l", -1.0, 0.5, 0.5))
        got = eu_interval(a)
        assert got.lo == got.hi == 0.0

    def test_three_outcome_box(self):
        a = act("three", ("x", 0.0, 0.1, 0.5), ("y", 5.0, 0.2, 0.6),
                ("z", 10.0, 0.1, 0.4))
        got = eu_interval(a)
        assert interval_close(got, 3.0, 6.5)
        # independent check: enumerate the polytope's vertices
        lo, hi, _ = vertex_eu_bounds([0.0, 5.0, 10.0],
                                     [0.1, 0.2, 0.1], [0.5, 0.6, 0.4])
        assert interval_close(got, lo, hi)

    def test_three_outcome_box_against_dense_grid(self):
        # second oracle: scan a fine grid over (p_x, p_y), p_z = 1 - rest
        best_lo, best_hi = math.inf, -math.inf
        steps = 400
        for i in range(steps + 1):
            px = 0.1 + (0.5 - 0.1) * i / steps
            for j in range(steps + 1):
                py = 0.2 + (0.6 - 0.2) * j / steps
                pz = 1.0 - px - py
                if not 0.1 - 1e-12 <= pz <= 0.4 + 1e-12:
                    continue
                value = 5.0 * py + 10.0 * pz
                best_lo = min(best_lo, value)
                best_hi = max(best_hi, value)
        got = eu_interval(act("three", ("x", 0.0, 0.1, 0.5),
                              ("y", 5.0, 0.2, 0.6), ("z", 10.0, 0.1, 0.4)))
        assert got.lo <= best_lo + 1e-9
        assert got.hi >= best_hi - 1e-9
        assert abs(got.lo - best_lo) < 0.05 and abs(got.hi - best_hi) < 0.05

    def test_infeasible_low_bounds_name_the_act(self):
        with pytest.raises(FeasibilityError, match="greedy"):
            act("greedy", ("x", 0.0, 0.7, 1.0), ("y", 1.0, 0.7, 1.0))

    def test_infeasible_high_bounds_name_the_act(self):
        with pytest.raises(FeasibilityError, match="starved"):
            act("starved", ("x", 0.0, 0.0, 0.3), ("y", 1.0, 0.0, 0.3))

    @given(feasible_acts())
    @settings(max_examples=150, deadline=None)
    def test_matches_vertex_enumeration(self, a):
        got = eu_interval(a)
        lo, hi, _ = vertex_eu_bounds(
            [o.utility for o in a.outcomes],
            [o.prob.lo for o in a.outcomes],
            [o.prob.hi for o in a.outcomes],
        )
        assert abs(got.lo - lo) <= 1e-9
        assert abs(got.hi - hi) <= 1e-9

    @given(feasible_acts(), st.floats(-20.0, 20.0, allow_nan=False))
    @settings(max_examples=80, deadline=None)
    def test_translation_equivariance(self, a, c):
        base = eu_interval(a)
        shifted = eu_interval(Act(a.name, tuple(
            Outcome(o.label, o.utility + c, o.prob) for o in a.outcomes
        )))
        assert abs(shifted.lo - (base.lo + c)) <= 1e-9
        assert abs(shifted.hi - (base.hi + c)) <= 1e-9

    @given(feasible_acts())
    @settings(max_examples=80, deadline=None)
    def test_widening_a_box_never_shrinks_the_interval(self, a):
        rng = random.Random(str(a.outcomes))
        idx = rng.randrange(len(a.outcomes))
        widened = []
        for i, o in enumerate(a.outcomes):
            if i == idx:
                wider = ProbInterval(o.prob.lo * 0.5,
                                     o.prob.hi + (1.0 - o.prob.hi) * 0.5)
                widened.append(Outcome(o.label, o.utility, wider))
            else:
                widened.append(o)
        base = eu_interval(a)
        grown = eu_interval(Act(a.name, tuple(widened)))
        assert grown.lo <= base.lo + 1e-9
        assert grown.hi >= base.hi - 1e-9

    def test_point_collapse_equals_dot_product(self):
        a = act("pt", ("x", 3.0, 0.2, 0.2), ("y", -4.0, 0.3, 0.3),
                ("z", 10.0, 0.5, 0.5))
        got = eu_interval(a)
        want = 0.2 * 3.0 + 0.3 * -4.0 + 0.5 * 10.0
        assert got.lo == got.hi
        assert abs(got.lo - want) <= 1e-9

    def test_bounds_crossed_by_rounding_meet_at_their_midpoint(self):
        # adjacent utilities on a box 1e-9 wide: the products of the two
        # greedy passes round apart and put the lower bound above the upper
        low_u, high_u = 975.124463581091, 975.1244635810912
        a = act("near", ("x", low_u, 0.5704480321913985, 0.5704480331913985),
                ("y", high_u, 0.4295519678086013, 0.4295519688086013))
        got = eu_interval(a)
        assert got.lo == got.hi
        assert low_u <= got.lo <= high_u

    def test_computed_once_per_act(self, monkeypatch):
        first = eu_interval(BERRY_99)
        monkeypatch.setattr(expectation, "_allocate", None)
        assert eu_interval(BERRY_99) is first
        with pytest.raises(TypeError):
            # an equal act is another instance, and is computed afresh
            eu_interval(act("a1", ("G", 10.0, 0.75, 1.0), ("not-G", -30.0, 0.0, 0.25)))


class TestEuAll:
    def test_berry_problem_at_sharper_level(self):
        problem = DecisionProblem("berries", (
            act("a1", ("G", 10.0, 0.75, 1.0), ("not-G", -30.0, 0.0, 0.25)),
            act("a2", ("H", -10.0, 0.0, 0.05), ("not-H", 0.0, 0.95, 1.0)),
        ))
        got = eu_all(problem)
        assert interval_close(got["a1"], 0.0, 10.0)
        assert interval_close(got["a2"], -0.5, 0.0)

    def test_direct_inference_level_values(self):
        problem = DecisionProblem("classified", (
            act("a1", ("G", 10.0, 0.84, 0.88), ("not-G", -30.0, 0.12, 0.16)),
            act("a2", ("H", -10.0, 0.0, 1.0), ("not-H", 0.0, 0.0, 1.0)),
        ))
        got = eu_all(problem)
        assert interval_close(got["a1"], 3.6, 5.2)
        assert interval_close(got["a2"], -10.0, 0.0)

    def test_single_act_point_probabilities(self):
        problem = DecisionProblem("solo", (
            act("only", ("x", 2.0, 1.0, 1.0),),
        ))
        got = eu_all(problem)
        assert list(got) == ["only"]
        assert got["only"].is_degenerate()

    def test_keys_follow_act_order(self):
        problem = DecisionProblem("ordered", (
            act("z", ("x", 0.0, 0.0, 1.0)),
            act("a", ("x", 0.0, 0.0, 1.0)),
            act("m", ("x", 0.0, 0.0, 1.0)),
        ))
        assert list(eu_all(problem)) == ["z", "a", "m"]


TOP = 1.7976931348623157e308
# a coarse grid, so that point boxes, -0.0 and infeasible boxes are
# common; lower bounds of 0.5000000004 on two outcomes pass the
# feasibility slack and push an expected utility over TOP past the
# largest float
LEVEL_ENDPOINTS = [-0.0, 0.0, 0.25, 0.5, 0.5000000004, 1.0]
LEVEL_INTERVALS = st.one_of(
    st.tuples(*[st.sampled_from(LEVEL_ENDPOINTS)] * 2).map(
        lambda p: ProbInterval(*sorted(p))),
    st.just(ProbInterval(0.5000000004, 0.6)))
LEVEL_UTILITIES = st.sampled_from([-2.0, -0.0, 0.0, 1.0, 3.0, TOP])
POINT_DISTRIBUTIONS = {1: [(1.0,)], 2: [(0.5, 0.5), (1.0, -0.0)],
                       3: [(0.25, 0.25, 0.5)]}


@st.composite
def level_problems(draw):
    """A problem of one to three acts and a hand-built level 0 over it.

    Each act is vacuous or a point distribution, and now and then has
    every utility at TOP.  The level gives each
    act no box, an empty one, or intervals on some of its labels, and
    now and then names an act or a label the problem does not have.
    """
    acts = []
    for i in range(draw(st.integers(1, 3))):
        n = draw(st.integers(1, 3))
        utils = draw(st.one_of(st.lists(LEVEL_UTILITIES, min_size=n, max_size=n),
                               st.just([TOP] * n)))
        probs = ([VACUOUS] * n if draw(st.booleans()) else
                 [ProbInterval(p, p)
                  for p in draw(st.sampled_from(POINT_DISTRIBUTIONS[n]))])
        acts.append(Act(f"a{i}", tuple(
            Outcome(f"o{j}", u, pr) for j, (u, pr) in enumerate(zip(utils, probs)))))
    boxes = {}
    for a in acts:
        kind = draw(st.sampled_from(["none", "empty", "some"]))
        if kind == "empty":
            boxes[a.name] = {}
        elif kind == "some":
            labels = draw(st.lists(st.sampled_from(a.labels()), unique=True))
            boxes[a.name] = {label: draw(LEVEL_INTERVALS) for label in labels}
    stray = draw(st.sampled_from(["none"] * 8 + ["act", "label"]))
    if stray == "act":
        boxes["zz"] = {}
    elif stray == "label" and boxes:
        boxes[draw(st.sampled_from(sorted(boxes)))]["zz"] = VACUOUS
    return DecisionProblem("p", tuple(acts)), CredalLevel(0, 0.0, boxes)


def evaluated(run):
    """Every act's interval as the reprs of its endpoints, in key order,
    or the error's type and text."""
    return outcome(lambda: [(name, repr(iv.lo), repr(iv.hi))
                            for name, iv in run().items()])


def assert_same_as_rebuilding(problem, level):
    """eu_all on the level's boxes agrees with eu_all on every act rebuilt,
    and explore with the oracle, endpoint for endpoint and error for
    error.  Returns the rebuilt side's result."""
    want = evaluated(lambda: eu_all(rebuild_every_act(problem, level)))
    where = f"level {level.index} assigns to"
    # twice: the second time the acts with no box hold their intervals
    for _ in range(2):
        assert evaluated(lambda: eu_all(problem, level.assignments, where)) == want
    seq = CredalSequence((level,))
    assert (outcome(lambda: explore(problem, seq))
            == outcome(lambda: oracle_explore(problem, seq)))
    return want


BERRIES = DecisionProblem("berries", (
    act("a1", ("G", 10.0, 0.0, 1.0), ("not-G", -30.0, 0.0, 1.0)),
    act("a2", ("H", -10.0, 0.0, 1.0), ("not-H", 0.0, 0.0, 1.0)),
))
HUGE = act("huge", ("G", TOP, 0.0, 1.0), ("not-G", TOP, 0.0, 1.0))
OVER = {"G": ProbInterval(0.5000000004, 0.6), "not-G": ProbInterval(0.5000000004, 0.6)}
LOW_SUM = {"G": ProbInterval(0.7, 0.8), "not-G": ProbInterval(0.7, 0.8)}
HIGH_SUM = {"G": ProbInterval(0.0, 0.3), "not-G": ProbInterval(0.0, 0.5)}


class TestEuAllOnLevel:
    """eu_all(problem, assignments) against eu_all(rebuild_every_act(...))."""

    @settings(max_examples=400, deadline=None)
    @given(level_problems())
    def test_matches_rebuilding_every_act(self, drawn):
        assert_same_as_rebuilding(*drawn)

    def test_box_naming_some_outcomes(self):
        level = CredalLevel(0, 0.0, {"a1": {"G": ProbInterval(0.75, 1.0)}})
        got = assert_same_as_rebuilding(BERRIES, level)
        assert got[0] == ("a1", "0.0", "10.0")

    def test_empty_box_keeps_the_declared_interval(self):
        level = CredalLevel(0, 0.0, {"a1": {}})
        assert_same_as_rebuilding(BERRIES, level)
        got = eu_all(BERRIES, level.assignments)
        assert got["a1"] is eu_interval(BERRIES.acts[0])

    @pytest.mark.parametrize("boxes, text", [
        ({"zz": {}}, "level 0 assigns to unknown act 'zz'"),
        ({"a1": {"zz": VACUOUS}}, "level 0 assigns to unknown outcome 'zz' of act 'a1'"),
        # names are checked before any box's feasibility
        ({"a1": LOW_SUM, "a2": {"zz": VACUOUS}},
         "level 0 assigns to unknown outcome 'zz' of act 'a2'"),
    ], ids=["act", "label", "after-infeasible"])
    def test_unknown_names(self, boxes, text):
        level = CredalLevel(0, 0.0, boxes)
        assert assert_same_as_rebuilding(BERRIES, level) == (ValueError, text)

    def test_api_names_the_assignment(self):
        with pytest.raises(ValueError, match="^assignment to unknown act 'zz'$"):
            eu_all(BERRIES, {"zz": {}})

    @pytest.mark.parametrize("boxes, text", [
        ({"a1": LOW_SUM}, "act 'a1': outcome lower bounds sum to 1.4, above 1"),
        ({"a1": HIGH_SUM}, "act 'a1': outcome upper bounds sum to 0.8, below 1"),
        # a2 comes first in the mapping, a1 first in act order
        ({"a2": {"H": ProbInterval(0.0, 0.3), "not-H": ProbInterval(0.0, 0.5)},
          "a1": LOW_SUM},
         "act 'a1': outcome lower bounds sum to 1.4, above 1"),
    ], ids=["lower-sum", "upper-sum", "first-of-two"])
    def test_infeasible_box(self, boxes, text):
        level = CredalLevel(0, 0.0, boxes)
        assert assert_same_as_rebuilding(BERRIES, level) == (FeasibilityError, text)
        with pytest.raises(InfeasibleLevelError) as exc_info:
            explore(BERRIES, CredalSequence((level,)))
        assert str(exc_info.value) == f"level 0 (error 0): {text}"

    def test_overflow_names_the_act(self):
        problem = DecisionProblem("p", (HUGE, BERRIES.acts[0]))
        level = CredalLevel(0, 0.0, {"huge": OVER})
        assert assert_same_as_rebuilding(problem, level) == (
            ValueError, "act 'huge': expected utility overflows the float range")

    def test_infeasible_act_after_an_overflowing_one_wins(self):
        problem = DecisionProblem("p", (HUGE, BERRIES.acts[0]))
        level = CredalLevel(0, 0.0, {"huge": OVER, "a1": LOW_SUM})
        assert assert_same_as_rebuilding(problem, level) == (
            FeasibilityError, "act 'a1': outcome lower bounds sum to 1.4, above 1")

    def test_negative_zero_endpoints(self):
        problem = DecisionProblem("p", (act("z", ("x", 1.0, 0.0, 1.0),
                                             ("y", -0.0, 0.0, 1.0)),))
        level = CredalLevel(0, 0.0, {"z": {"x": ProbInterval(-0.0, -0.0),
                                           "y": ProbInterval(1.0, 1.0)}})
        # both products are -0.0; fsum of them is +0.0 on either path
        assert assert_same_as_rebuilding(problem, level) == [("z", "0.0", "0.0")]

    def test_all_point_boxes_are_a_risk_problem(self):
        problem = DecisionProblem("coin", (
            act("a1", ("win", 1.0, 0.0, 1.0), ("lose", 0.0, 0.0, 1.0)),
            act("a2", ("flat", 0.5, 0.0, 1.0)),
        ))
        level = CredalLevel(0, 0.0, {
            "a1": {"win": ProbInterval(0.5, 0.5), "lose": ProbInterval(0.5, 0.5)},
            "a2": {"flat": ProbInterval(1.0, 1.0)},
        })
        assert_same_as_rebuilding(problem, level)
        report = explore(problem, CredalSequence((level,)))
        assert report.status == RISK_PROBLEM
        assert report.act == "a1" and report.ambiguous

    def test_one_open_outcome_is_no_risk_problem(self):
        # a2's declared box stays vacuous, so the tie is not a risk problem
        problem = DecisionProblem("coin", (
            act("a1", ("win", 1.0, 0.5, 0.5), ("lose", 0.0, 0.5, 0.5)),
            act("a2", ("flat", 0.5, 0.0, 1.0), ("other", 0.5, 0.0, 1.0)),
        ))
        level = CredalLevel(0, 0.0, {"a2": {"flat": ProbInterval(1.0, 1.0)}})
        assert_same_as_rebuilding(problem, level)
        assert explore(problem, CredalSequence((level,))).status != RISK_PROBLEM


class TestActValidation:
    def test_empty_outcomes_rejected(self):
        with pytest.raises(ValueError):
            Act("bare", ())

    def test_empty_names_rejected(self):
        with pytest.raises(ValueError, match="^outcome label must be non-empty$"):
            Outcome("", 1.0)
        with pytest.raises(ValueError, match="^act name must be non-empty$"):
            Act("", (Outcome("x", 1.0),))

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError, match="twice|repeats"):
            act("dup", ("x", 0.0, 0.0, 1.0), ("x", 1.0, 0.0, 1.0))

    def test_non_finite_utility_rejected(self):
        with pytest.raises(ValueError):
            Outcome("x", math.inf)
        with pytest.raises(ValueError):
            Outcome("x", math.nan)

    def test_problem_requires_unique_act_names(self):
        a = act("same", ("x", 0.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            DecisionProblem("p", (a, a))

    def test_problem_requires_acts(self):
        with pytest.raises(ValueError):
            DecisionProblem("p", ())

    def test_act_lookup(self):
        problem = DecisionProblem("p", (BERRY_99, PASS_99))
        assert problem.act("a2") is PASS_99
        assert problem.act_names == ("a1", "a2")
        with pytest.raises(KeyError):
            problem.act("missing")

    def test_outcome_lookup(self):
        assert BERRY_99.outcome("G").utility == 10.0
        with pytest.raises(KeyError):
            BERRY_99.outcome("missing")
