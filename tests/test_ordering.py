import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalbox import (
    Act,
    DecisionProblem,
    Interval,
    Outcome,
    ProbInterval,
    hurwicz,
    leximin,
    maximal_set,
    maximin,
    midpoint_rank,
    min_regret,
    worst_case_regrets,
)
from support import int_intervals, pairwise_maximal_set, pairwise_worst_case_regrets

WIDE = {"a1": Interval(-16.8, 10.0), "a2": Interval(-5.5, 0.0)}
SHARP = {"a1": Interval(0.0, 10.0), "a2": Interval(-3.0, -1.5)}


def eu_maps(n_min=2, n_max=5, span=100):
    return st.lists(int_intervals(span), min_size=n_min, max_size=n_max).map(
        lambda ivs: {f"a{i}": iv for i, iv in enumerate(ivs)}
    )


class TestMaximalSet:
    def test_overlapping_intervals_both_survive(self):
        assert tuple(maximal_set(WIDE)) == ("a1", "a2")

    def test_dominance_prunes_to_one(self):
        got = maximal_set(SHARP)
        assert tuple(got) == ("a1",)
        assert got.is_decision()

    def test_singleton_input(self):
        assert tuple(maximal_set({"a": Interval(5.0, 5.0)})) == ("a",)

    def test_empty_input_is_an_error(self):
        with pytest.raises(ValueError):
            maximal_set({})

    def test_membership_and_len(self):
        got = maximal_set(WIDE)
        assert "a1" in got and "a2" in got and len(got) == 2
        assert not got.is_decision()

    @given(eu_maps(1, 8, span=4))
    def test_matches_pairwise_definition(self, eu):
        # a span of 4 makes equal endpoints, and so ties, common
        assert maximal_set(eu).names == pairwise_maximal_set(eu)

    @given(eu_maps())
    def test_never_empty(self, eu):
        assert len(maximal_set(eu)) >= 1

    @given(eu_maps())
    def test_contains_maximin_winner(self, eu):
        assert maximin(eu) in maximal_set(eu)

    @given(eu_maps(), st.floats(0.0, 1.0))
    def test_contains_hurwicz_winner(self, eu, alpha):
        assert hurwicz(eu, alpha) in maximal_set(eu)


class TestMaximin:
    def test_prefers_better_floor(self):
        assert maximin(WIDE) == "a2"

    def test_dominant_act_wins(self):
        assert maximin(SHARP) == "a1"

    def test_tie_goes_to_first_act(self):
        eu = {"x": Interval(0.0, 5.0), "y": Interval(0.0, 9.0)}
        assert maximin(eu) == "x"

    @given(eu_maps(), st.integers(-10, 10))
    def test_argmax_invariant_under_translation(self, eu, c):
        shifted = {k: Interval(v.lo + c, v.hi + c) for k, v in eu.items()}
        assert maximin(shifted) == maximin(eu)


class TestMinRegret:
    def test_regret_values_on_the_wide_pair(self):
        regrets = worst_case_regrets(WIDE)
        assert regrets["a1"] == pytest.approx(16.8)
        assert regrets["a2"] == pytest.approx(15.5)
        assert min_regret(WIDE) == "a2"

    def test_dominated_act_never_wins(self):
        assert min_regret(SHARP) == "a1"

    def test_lone_act_has_zero_regret(self):
        regrets = worst_case_regrets({"a": Interval(-3.0, 8.0)})
        assert regrets == {"a": 0.0}
        assert min_regret({"a": Interval(-3.0, 8.0)}) == "a"

    def test_regret_floors_at_zero(self):
        eu = {"good": Interval(20.0, 30.0), "bad": Interval(0.0, 1.0)}
        assert worst_case_regrets(eu)["good"] == 0.0

    @given(eu_maps(), st.integers(-10, 10))
    def test_argmin_invariant_under_translation(self, eu, c):
        shifted = {k: Interval(v.lo + c, v.hi + c) for k, v in eu.items()}
        assert min_regret(shifted) == min_regret(eu)

    @given(st.lists(
        st.tuples(st.sampled_from((-2.0, -0.0, 0.0, 1.0, 3.0)),
                  st.sampled_from((-0.0, 0.0, 1.0, 3.0, 4.0))),
        min_size=1, max_size=7))
    def test_matches_pairwise_definition(self, pairs):
        # few distinct endpoints: tied and repeated upper bounds, one act
        # alone, and zeros of either sign
        eu = {f"a{i}": Interval(min(pair), max(pair)) for i, pair in enumerate(pairs)}
        got = worst_case_regrets(eu)
        want = pairwise_worst_case_regrets(eu)
        assert list(got) == list(want)
        assert [(v, math.copysign(1.0, v)) for v in got.values()] == \
            [(v, math.copysign(1.0, v)) for v in want.values()]


class TestHurwicz:
    def test_alpha_zero_is_maximin(self):
        assert hurwicz(WIDE, 0.0) == maximin(WIDE)

    def test_alpha_one_is_maximax(self):
        assert hurwicz(WIDE, 1.0) == "a1"

    def test_balanced_alpha_compares_midpoints(self):
        assert hurwicz(WIDE, 0.5) == "a2"

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            hurwicz(WIDE, 1.5)
        with pytest.raises(ValueError):
            hurwicz(WIDE, -0.1)

    @given(eu_maps())
    def test_boundary_identities(self, eu):
        assert hurwicz(eu, 0.0) == maximin(eu)
        assert hurwicz(eu, 1.0) == max(eu, key=lambda k: eu[k].hi)


class TestMidpointRank:
    def test_wide_pair_reverses_dominance_intuition(self):
        assert midpoint_rank(WIDE) == ["a2", "a1"]

    def test_sharp_pair(self):
        assert midpoint_rank(SHARP) == ["a1", "a2"]

    def test_equal_midpoints_keep_input_order(self):
        eu = {"x": Interval(2.0, 2.0), "y": Interval(1.0, 3.0)}
        assert midpoint_rank(eu) == ["x", "y"]

    @given(eu_maps())
    def test_ranks_every_act_once(self, eu):
        ranked = midpoint_rank(eu)
        assert sorted(ranked) == sorted(eu)
        mids = [eu[name].midpoint for name in ranked]
        assert mids == sorted(mids, reverse=True)


def problem_from_utils(*acts):
    built = []
    for name, utils in acts:
        outs = tuple(
            Outcome(f"o{i}", u, ProbInterval(0.0, 1.0))
            for i, u in enumerate(utils)
        )
        built.append(Act(name, outs))
    return DecisionProblem("p", tuple(built))


class TestLeximin:
    def test_worst_outcome_decides(self):
        problem = problem_from_utils(("a1", (10.0, -30.0)), ("a2", (-10.0, 0.0)))
        assert leximin(problem) == "a2"

    def test_identical_vectors_pick_first(self):
        problem = problem_from_utils(("x", (1.0, 2.0)), ("y", (2.0, 1.0)))
        assert leximin(problem) == "x"

    def test_short_vector_padded_by_its_best(self):
        problem = problem_from_utils(("five", (5.0,)), ("spread", (4.0, 100.0)))
        assert leximin(problem) == "five"

    def test_restriction_to_named_acts(self):
        problem = problem_from_utils(("a1", (10.0, -30.0)), ("a2", (-10.0, 0.0)))
        assert leximin(problem, acts=("a1",)) == "a1"

    def test_no_candidates_is_an_error(self):
        problem = problem_from_utils(("a1", (1.0,)))
        with pytest.raises(ValueError):
            leximin(problem, acts=())

    def test_second_position_breaks_first_position_tie(self):
        problem = problem_from_utils(("x", (0.0, 1.0)), ("y", (0.0, 2.0)))
        assert leximin(problem) == "y"


class TestSingletonAgreement:
    @given(eu_maps())
    @settings(max_examples=60)
    def test_all_criteria_agree_on_a_dominant_singleton(self, eu):
        surviving = maximal_set(eu)
        if len(surviving) != 1:
            return
        only = surviving.names[0]
        sub = {only: eu[only]}
        assert maximin(sub) == only
        assert min_regret(sub) == only
        assert hurwicz(sub, 0.3) == only
        assert midpoint_rank(sub) == [only]
