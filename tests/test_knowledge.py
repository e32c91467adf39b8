import copy
import itertools
import json
import math
import pickle
import re
import tracemalloc
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from credalbox import (
    Act,
    BodyOfKnowledge,
    ConflictingConstraintError,
    CredalLevel,
    CredalSequence,
    DecisionProblem,
    FeasibilityError,
    InconsistentBodyError,
    LevelSpec,
    NoUniqueReferenceClassError,
    Outcome,
    ProbInterval,
    ProblemDocument,
    ReferenceClassTable,
    Statement,
    accept_next_most_probable,
    accept_threshold,
    apply_level,
    direct_inference,
    eu_all,
    eu_interval,
    is_nested,
    level_from_body,
    loads,
    parse_document,
    sequence_bytes,
    sequence_from_bodies,
)
from credalbox import knowledge, problem_io
from support import (
    all_pairs_nested,
    chain_document,
    event_corpus,
    feasible_acts,
    fixed_point_closure,
    interval_close,
    oracle_accept_next_most_probable,
    oracle_accept_threshold,
    pairwise_direct_inference,
    prob_intervals,
    rebuild_every_act,
    oracle_level,
    oracle_sequence,
    outcome,
    seeded_pool,
)


def added_ids(parent, body):
    """The ids of the statements body's cut adds to parent's cut of the
    same order."""
    (order, k), (parent_order, parent_k) = vars(body)["statements"], vars(parent)["statements"]
    assert order is parent_order and k >= parent_k
    return [s.id for s in order[parent_k:k]]


def jerry_problem():
    return DecisionProblem("berries", (
        Act("a1", (Outcome("G", 10.0), Outcome("not-G", -30.0))),
        Act("a2", (Outcome("H", -10.0), Outcome("not-H", 0.0))),
    ))


class TestStatement:
    def test_kinds_and_required_fields(self):
        with pytest.raises(ValueError, match="kind"):
            Statement(id="s", kind="hunch")
        with pytest.raises(ValueError, match="interval"):
            Statement(id="s", kind="event-interval", event="G")
        with pytest.raises(ValueError, match="event"):
            Statement(id="s", kind="condition")
        with pytest.raises(ValueError, match="cls"):
            Statement(id="s", kind="membership", item="berry")
        with pytest.raises(ValueError, match="event"):
            Statement(id="s", kind="class-frequency", cls="berries")

    def test_prob_bounds(self):
        with pytest.raises(ValueError):
            Statement.condition("s", "G", prob=1.5)
        with pytest.raises(ValueError):
            Statement.condition("s", "G", prob=-0.1)

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            Statement.condition("", "G")

    def test_constructors_fill_kind_fields(self):
        iv = ProbInterval(0.3, 0.8)
        s = Statement.event_interval("e", "G", iv, prob=0.9)
        assert (s.kind, s.event, s.interval, s.prob) == ("event-interval", "G", iv, 0.9)
        c = Statement.condition("c", "H", value=False)
        assert (c.kind, c.event, c.value) == ("condition", "H", False)
        m = Statement.membership("m", "this-berry", "soft-berries")
        assert (m.kind, m.item, m.cls) == ("membership", "this-berry", "soft-berries")
        f = Statement.class_frequency("f", "berries", "G", iv)
        assert (f.kind, f.cls, f.event, f.interval) == (
            "class-frequency", "berries", "G", iv)


class TestBodyConsistency:
    def test_duplicate_ids_rejected(self):
        s = Statement.condition("same", "G")
        t = Statement.condition("same", "H")
        with pytest.raises(InconsistentBodyError):
            BodyOfKnowledge(0, 0.0, (s, t))

    def test_disjoint_intervals_for_one_event(self):
        s = Statement.event_interval("lo", "G", ProbInterval(0.0, 0.2))
        t = Statement.event_interval("hi", "G", ProbInterval(0.5, 1.0))
        with pytest.raises(InconsistentBodyError, match="'lo'.*'hi'|'hi'.*'lo'"):
            BodyOfKnowledge(0, 0.0, (s, t))

    def test_condition_both_ways_rejected(self):
        s = Statement.condition("yes", "G", value=True)
        t = Statement.condition("no", "G", value=False)
        with pytest.raises(InconsistentBodyError):
            BodyOfKnowledge(0, 0.0, (s, t))

    def test_overlapping_intervals_are_fine(self):
        s = Statement.event_interval("a", "G", ProbInterval(0.0, 0.6))
        t = Statement.event_interval("b", "G", ProbInterval(0.4, 1.0))
        body = BodyOfKnowledge(1, 0.1, (s, t))
        assert len(body.statements) == 2

    def test_index_and_error_bounds(self):
        with pytest.raises(ValueError):
            BodyOfKnowledge(-1, 0.0)
        with pytest.raises(ValueError):
            BodyOfKnowledge(0, 1.5)

    @pytest.mark.parametrize("index, error, message", [
        (True, 0.1, "body index must be an int, got True"),
        (1, True, "body error must be a number, got True"),
        (0, False, "body error must be a number, got False"),
    ])
    def test_bools_refused_where_numbers_go(self, index, error, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BodyOfKnowledge(index, error)
        assert BodyOfKnowledge(1, 1).error == 1


class TestAcceptThreshold:
    def test_statement_lands_at_its_error_level(self):
        s = Statement.condition("seen", "G", prob=0.999)
        bodies = accept_threshold([s], [0.0005, 0.005, 0.05])
        assert [len(b.statements) for b in bodies] == [0, 0, 1, 1]
        assert bodies[0].error == 0.0
        assert [b.error for b in bodies[1:]] == [0.0005, 0.005, 0.05]

    def test_certain_statement_everywhere(self):
        s = Statement.condition("sure", "G", prob=1.0)
        bodies = accept_threshold([s], [0.001, 0.5, 1.0])
        assert all(len(b.statements) == 1 for b in bodies[1:])

    def test_empty_corpus_gives_empty_bodies(self):
        bodies = accept_threshold([], [0.1, 0.2])
        assert all(b.statements == () for b in bodies)
        assert len(bodies) == 3

    def test_threshold_is_strict(self):
        # 1 - .75 equals the level exactly (both dyadic), so the
        # statement stays out
        s = Statement.condition("edge", "G", prob=0.75)
        bodies = accept_threshold([s], [0.25])
        assert bodies[1].statements == ()
        bodies = accept_threshold([s], [0.2500001])
        assert len(bodies[1].statements) == 1

    def test_levels_must_increase(self):
        with pytest.raises(ValueError, match="increasing"):
            accept_threshold([], [0.1, 0.1])
        with pytest.raises(ValueError, match="increasing"):
            accept_threshold([], [0.2, 0.1])

    def test_levels_must_be_in_unit_range(self):
        with pytest.raises(ValueError):
            accept_threshold([], [0.0])
        with pytest.raises(ValueError):
            accept_threshold([], [1.1])

    # the parser reads each error level through the same check, so these
    # texts are also what a file's acceptance.error_levels[i] reports
    @pytest.mark.parametrize("levels,message", [
        ([0.0], "error level 0.0 must lie in (0, 1]"),
        ([-0.0], "error level -0.0 must lie in (0, 1]"),
        ([1.1], "error level 1.1 must lie in (0, 1]"),
        ([float("nan")], "error level nan must lie in (0, 1]"),
        ([0.1, 0.1], "error levels must be strictly increasing"),
        ([0.2, 0.1], "error levels must be strictly increasing"),
        ([0.2, 0.5, 0.0], "error level 0.0 must lie in (0, 1]"),
    ])
    def test_level_messages(self, levels, message):
        with pytest.raises(ValueError) as caught:
            accept_threshold([], levels)
        assert str(caught.value) == message

    def test_inconsistent_body_names_its_level(self):
        s = Statement.event_interval("lo", "G", ProbInterval(0.0, 0.2))
        t = Statement.event_interval("hi", "G", ProbInterval(0.5, 1.0))
        with pytest.raises(InconsistentBodyError, match="body 1"):
            accept_threshold([s, t], [0.1])

    def test_bodies_are_nested(self):
        statements = [
            Statement.condition(f"s{i}", f"E{i}", prob=p)
            for i, p in enumerate((0.9, 0.99, 0.999, 1.0))
        ]
        bodies = accept_threshold(statements, [0.005, 0.05, 0.5])
        for earlier, later in zip(bodies, bodies[1:]):
            ids_earlier = {s.id for s in earlier.statements}
            ids_later = {s.id for s in later.statements}
            assert ids_earlier <= ids_later

    def test_bodies_list_the_most_probable_first(self):
        # each level's new statements follow the old ones, wherever the
        # corpus lists them
        statements = [
            Statement.condition("a", "E1", prob=0.9),
            Statement.condition("b", "E2", prob=0.99),
            Statement.condition("c", "E3", prob=0.95),
        ]
        bodies = accept_threshold(statements, [0.02, 0.06, 0.2])
        assert [[s.id for s in b.statements] for b in bodies] == [
            [], ["b"], ["b", "c"], ["b", "c", "a"]]

    def test_corpus_order_is_left_alone(self):
        statements = [Statement.condition(f"s{i}", f"E{i}", prob=p)
                      for i, p in enumerate((0.9, 0.99, 0.95, 0.99))]
        before = list(statements)
        accept_threshold(statements, [0.02, 0.2])
        accept_next_most_probable(statements)
        assert all(s is t for s, t in zip(statements, before))

    def test_a_level_that_adds_nothing_keeps_its_parents_statements(self):
        s = Statement.condition("seen", "G", prob=0.99)
        bodies = accept_threshold([s], [0.02, 0.03, 0.04])
        for parent, body in zip(bodies[1:], bodies[2:]):
            assert body.statements == parent.statements
            assert added_ids(parent, body) == []

    def test_conflict_names_statements_most_probable_first(self):
        # the corpus lists them least probable first; the message follows
        # the body's order
        statements = [
            Statement.event_interval("d", "G", ProbInterval(0.7, 1.0), prob=0.97),
            Statement.event_interval("c", "G", ProbInterval(0.4, 1.0), prob=0.98),
            Statement.event_interval("a", "G", ProbInterval(0.0, 0.6), prob=1.0),
        ]
        with pytest.raises(InconsistentBodyError) as caught:
            accept_threshold(statements, [0.025, 0.05])
        assert str(caught.value) == (
            "body 2 at error level 0.05: "
            "statements 'a', 'c', 'd' cannot all hold for event 'G'")

    # 1 - p < eps is monotone in p in floats, so every threshold body is a
    # prefix of one stable most-probable-first order, as every
    # next-most-probable body is, and lists it in that order.  Drawn: ties, the
    # credences next to 1 (0.9999999999999999 is 1 - 2**-53, whose 1 - p
    # is exact) against levels at and between their gaps, and tiny ones
    # whose 1 - p rounds to 1
    @settings(max_examples=300)
    @given(st.lists(st.sampled_from([1.0, 0.9999999999999999, 1 - 2.0 ** -52,
                                     0.99, 0.5, 1e-20, 5e-324, 0.0])
                    | st.floats(0.0, 1.0),
                    max_size=8),
           st.lists(st.sampled_from([2.0 ** -54, 2.0 ** -53, 1.5 * 2.0 ** -53,
                                     2.0 ** -52, 0.01, 0.05, 0.5, 1.0])
                    | st.floats(0.0, 1.0, exclude_min=True),
                    min_size=1, max_size=5, unique=True).map(sorted),
           st.sampled_from(["next-most-probable", "threshold"]))
    def test_bodies_are_prefixes_of_the_most_probable_order(self, probs, levels, rule):
        corpus = [Statement.membership(f"s{i}", f"item{i}", "C", prob=p)
                  for i, p in enumerate(probs)]
        ranked = sorted(corpus, key=lambda s: -s.prob)
        bodies = (accept_threshold(corpus, levels) if rule == "threshold"
                  else accept_next_most_probable(corpus))
        for body in bodies:
            size = len(body.statements)
            # the same objects in the same order
            assert body.statements == tuple(ranked[:size])
            assert all(s is t for s, t in zip(body.statements, ranked))

    def test_a_true_last_level_is_refused_after_the_bodies_before_it(self):
        # True passes as the level 1.0, but a body's error is written as a number
        twice = [Statement.condition("a", "G"), Statement.condition("a", "H")]
        with pytest.raises(ValueError, match="^body error must be a number, got True$"):
            accept_threshold([], [0.5, True])
        with pytest.raises(InconsistentBodyError, match="^body 1 at error level 0.5: "):
            accept_threshold(twice, [0.5, True])


class TestAcceptNextMostProbable:
    def test_growth_order_and_errors(self):
        statements = [
            Statement.condition("c", "E3", prob=0.9),
            Statement.condition("a", "E1", prob=0.999),
            Statement.condition("b", "E2", prob=0.99),
        ]
        bodies = accept_next_most_probable(statements)
        assert [len(b.statements) for b in bodies] == [0, 1, 2, 3]
        assert [b.error for b in bodies] == pytest.approx([0.0, 0.001, 0.01, 0.1])
        assert [s.id for s in bodies[3].statements] == ["a", "b", "c"]

    def test_single_statement_two_bodies(self):
        bodies = accept_next_most_probable([Statement.condition("s", "G", prob=0.8)])
        assert len(bodies) == 2
        assert bodies[1].error == pytest.approx(0.2)

    def test_accepted_statements_never_leave(self):
        statements = [
            Statement.condition(f"s{i}", f"E{i}", prob=1.0 - i / 100.0)
            for i in range(5)
        ]
        bodies = accept_next_most_probable(statements)
        for earlier, later in zip(bodies, bodies[1:]):
            assert {s.id for s in earlier.statements} <= {s.id for s in later.statements}

    def test_equal_probabilities_keep_declaration_order(self):
        statements = [
            Statement.condition("first", "E1", prob=0.9),
            Statement.condition("second", "E2", prob=0.9),
        ]
        bodies = accept_next_most_probable(statements)
        assert [s.id for s in bodies[2].statements] == ["first", "second"]


# small pools, so that ids repeat, statements on one event conflict, and
# -0.0 and 0.0 meet; credences tie, so declaration order matters
GRID_PROBS = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 1.0])
IDS = st.integers(0, 40).map(lambda k: f"s{k}")
CORPUS_STATEMENT = st.one_of(
    st.builds(Statement.event_interval, IDS,
              st.sampled_from("EF"),
              st.tuples(GRID_PROBS, GRID_PROBS).map(
                  lambda p: ProbInterval(*sorted(p))),
              st.sampled_from([1.0, 0.99, 0.9])),
    st.builds(Statement.condition, IDS,
              st.sampled_from("EF"), st.booleans(),
              st.sampled_from([1.0, 0.99, 0.9])),
    st.builds(Statement.membership, IDS,
              st.just("x"), st.sampled_from(["c0", "c1"]),
              st.sampled_from([1.0, 0.99, 0.9])),
)


class TestGrownBodies:
    @settings(max_examples=400, deadline=None)
    @given(st.lists(CORPUS_STATEMENT, max_size=10))
    def test_equal_to_bodies_built_from_scratch(self, statements):
        try:
            want = oracle_accept_next_most_probable(statements)
        except InconsistentBodyError as exc:
            with pytest.raises(InconsistentBodyError) as caught:
                accept_next_most_probable(statements)
            assert str(caught.value) == str(exc)
            return
        got = accept_next_most_probable(statements)
        assert got == want and repr(got) == repr(want)

    @settings(max_examples=400, deadline=None)
    @given(st.lists(CORPUS_STATEMENT, max_size=10),
           st.lists(st.sampled_from([0.005, 0.01, 0.02, 0.1, 0.2, 1.0]),
                    min_size=1, max_size=4, unique=True))
    def test_threshold_bodies_equal_bodies_built_from_scratch(self, statements, levels):
        levels = sorted(levels)
        try:
            want = oracle_accept_threshold(statements, levels)
        except InconsistentBodyError as exc:
            with pytest.raises(InconsistentBodyError) as caught:
                accept_threshold(statements, levels)
            assert str(caught.value) == str(exc)
            return
        got = accept_threshold(statements, levels)
        assert got == want and repr(got) == repr(want)
        # each body's cut adds the statements its parent lacks, most
        # probable first
        ranked = sorted(statements, key=lambda s: -s.prob)
        for parent, body in zip(got, got[1:]):
            assert added_ids(parent, body) == [
                s.id for s in ranked
                if any(s is t for t in body.statements)
                and all(s is not t for t in parent.statements)]

    def test_acceptance_and_resolution_memory_grows_near_linearly(self):
        # the bodies are cuts of one shared order, so doubling the corpus
        # about doubles the peak; a statements tuple per body, n^2/2
        # pointers in all, nearly quadruples it
        problem = DecisionProblem("events", (
            Act("a", (Outcome("E0", 10.0), Outcome("not-E0", -30.0))),
            Act("b", (Outcome("pass", 0.0),))))

        def peak(n):
            statements = event_corpus(n)
            tracemalloc.start()
            try:
                sequence_from_bodies(accept_next_most_probable(statements), problem)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(4000) < 2.5 * peak(2000)

    def test_conflict_names_every_statement_on_the_event(self):
        statements = [
            Statement.event_interval("a", "G", ProbInterval(0.0, 0.6), prob=1.0),
            Statement.condition("b", "H", prob=0.99),
            Statement.event_interval("c", "G", ProbInterval(0.4, 1.0), prob=0.98),
            Statement.event_interval("d", "G", ProbInterval(0.7, 1.0), prob=0.97),
        ]
        with pytest.raises(InconsistentBodyError) as caught:
            accept_next_most_probable(statements)
        assert str(caught.value) == (
            "body 4: statements 'a', 'c', 'd' cannot all hold for event 'G'")

    def test_repeated_id_names_its_body(self):
        statements = [Statement.condition("a", "G"),
                      Statement.condition("a", "H", prob=0.9)]
        with pytest.raises(InconsistentBodyError) as caught:
            accept_next_most_probable(statements)
        assert str(caught.value) == "body 2: statement ids repeat within one body"

    @settings(max_examples=300, deadline=None)
    @given(st.lists(CORPUS_STATEMENT, max_size=10),
           st.sampled_from(["next-most-probable", "threshold"]))
    def test_bodies_are_cuts_of_one_shared_order(self, statements, rule):
        try:
            if rule == "threshold":
                bodies = accept_threshold(statements, [0.005, 0.02, 0.2])
            else:
                bodies = accept_next_most_probable(statements)
        except InconsistentBodyError:
            return
        cuts = [vars(body)["statements"] for body in bodies]
        order = cuts[0][0]
        assert order == tuple(sorted(statements, key=lambda s: -s.prob))
        assert all(type(cut) is knowledge._Cut and cut[0] is order for cut in cuts)
        ks = [k for _, k in cuts]
        assert ks[0] == 0 and ks == sorted(ks)
        if rule == "next-most-probable":
            assert ks == list(range(len(statements) + 1))
        for body, k in zip(bodies, ks):
            # the body reads as the order's first k statements, same objects
            assert len(body.statements) == k
            assert all(s is t for s, t in zip(body.statements, order))

    def test_last_body_of_a_long_chain_copies_and_pickles(self):
        # bodies store a cut of the shared order, not a link to the
        # parent: a body linked to its parent would nest 2000 deep here
        statements = []
        for k in range(1000):
            statements.append(Statement.class_frequency(
                f"f{k}", f"c{k}", "E", ProbInterval(0.2, 0.8), 1.0 - k / 4000))
            statements.append(Statement.membership(
                f"m{k}", "x", f"c{k}", 1.0 - (k + 0.5) / 4000))
        last = accept_next_most_probable(statements)[-1]
        assert len(last.statements) == 2000
        assert copy.deepcopy(last) == last
        assert pickle.loads(pickle.dumps(last)) == last

    def test_negative_zero_keeps_the_first_bits(self):
        statements = [
            Statement.event_interval("a", "G", ProbInterval(-0.0, 0.5)),
            Statement.event_interval("b", "G", ProbInterval(0.0, 0.5), prob=0.9),
        ]
        bodies = accept_next_most_probable(statements)
        level = sequence_from_bodies(bodies, jerry_problem()).levels[2]
        assert repr(level.assignments["a1"]["G"].lo) == "-0.0"


class TestReferenceClassTable:
    def test_transitive_closure(self):
        refs = ReferenceClassTable(specificity=frozenset({("a", "b"), ("b", "c")}))
        assert refs.more_specific("a", "c")
        assert not refs.more_specific("c", "a")

    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="cyclic"):
            ReferenceClassTable(specificity=frozenset({("a", "b"), ("b", "a")}))

    def test_cycle_names_smallest_class_on_it(self):
        # 'a' only feeds the cycle b -> ... -> z -> b, so the message names
        # 'b' whatever order the pairs come out of the frozenset
        ring = "bcdefghijklmnopqrstuvwxyz"
        pairs = {(x, y) for x, y in zip(ring, ring[1:] + ring[0])}
        pairs.add(("a", "b"))
        with pytest.raises(ValueError, match="cyclic at class 'b'$"):
            ReferenceClassTable(specificity=frozenset(pairs))

    @given(st.frozensets(st.tuples(st.sampled_from("abcde"),
                                   st.sampled_from("abcde")), max_size=10))
    def test_closure_matches_fixed_point_scan(self, pairs):
        want = fixed_point_closure(pairs)
        if any(a == b for a, b in want):
            with pytest.raises(ValueError, match="cyclic"):
                ReferenceClassTable(specificity=pairs)
            return
        table = ReferenceClassTable(specificity=pairs)
        assert table.specificity == pairs
        for a in "abcde":
            for b in "abcde":
                assert table.more_specific(a, b) == ((a, b) in want)
        # _most_specific against its definition, on every subset plus a
        # class outside the order and a repeated class
        for size in range(6):
            for subset in itertools.combinations("abcde", size):
                classes = [*subset, "f", *subset[:1]]
                expected = frozenset(c for c in classes
                                     if not any((d, c) in want for d in classes))
                assert knowledge._most_specific(classes, table) == expected

    def test_conflicting_duplicate_entries_rejected(self):
        with pytest.raises(ValueError, match="two different"):
            ReferenceClassTable(entries=(
                ("c", "G", ProbInterval(0.1, 0.2)),
                ("c", "G", ProbInterval(0.3, 0.4)),
            ))

    def test_freq_lookup(self):
        refs = ReferenceClassTable(entries=(("c", "G", ProbInterval(0.1, 0.2)),))
        assert refs.freq("c", "G") == ProbInterval(0.1, 0.2)
        assert refs.freq("c", "H") is None
        assert refs.freq("d", "G") is None

    def test_freq_returns_first_of_equal_entries(self):
        refs = ReferenceClassTable(entries=(
            ("c", "G", ProbInterval(-0.0, 0.5)),
            ("c", "G", ProbInterval(0.0, 0.5)),
        ))
        assert math.copysign(1.0, refs.freq("c", "G").lo) == -1.0

    def test_with_entries_extends(self):
        base = ReferenceClassTable(entries=(("c", "G", ProbInterval(0.1, 0.2)),))
        grown = base.with_entries([("d", "G", ProbInterval(0.5, 0.6))])
        assert grown.freq("d", "G") == ProbInterval(0.5, 0.6)
        assert base.freq("d", "G") is None


REFS = ReferenceClassTable(
    entries=(
        ("berries", "G", ProbInterval(0.3, 0.8)),
        ("soft-berries", "G", ProbInterval(0.84, 0.88)),
    ),
    specificity=frozenset({("soft-berries", "berries")}),
)


class TestDirectInference:
    def test_single_class(self):
        got = direct_inference("this-berry", "G", {"berries"}, REFS)
        assert got == ProbInterval(0.3, 0.8)

    def test_most_specific_class_wins(self):
        got = direct_inference("this-berry", "G", {"berries", "soft-berries"}, REFS)
        assert got == ProbInterval(0.84, 0.88)

    def test_skipped_middle_class_still_orders_its_ends(self):
        # c2 -> c1 -> c0 with c1 not accepted: only the closed order
        # says that c2 is more specific than c0
        refs = ReferenceClassTable(entries=(
            ("c0", "G", ProbInterval(0.1, 0.9)),
            ("c2", "G", ProbInterval(0.4, 0.5)),
        ), specificity=frozenset({("c2", "c1"), ("c1", "c0")}))
        assert ("c2", "c0") not in refs.specificity
        assert direct_inference("i", "G", {"c0", "c2"}, refs) == ProbInterval(0.4, 0.5)
        assert pairwise_direct_inference("i", "G", {"c0", "c2"}, refs) == \
            ProbInterval(0.4, 0.5)

    def test_order_independent(self):
        a = direct_inference("i", "G", ["berries", "soft-berries"], REFS)
        b = direct_inference("i", "G", ["soft-berries", "berries"], REFS)
        assert a == b

    def test_no_accepted_classes(self):
        with pytest.raises(NoUniqueReferenceClassError):
            direct_inference("i", "G", set(), REFS)

    def test_class_without_frequency(self):
        with pytest.raises(NoUniqueReferenceClassError, match="no known frequency"):
            direct_inference("i", "G", {"berries", "mystery"}, REFS)

    def test_incomparable_disagreement(self):
        refs = ReferenceClassTable(entries=(
            ("north", "G", ProbInterval(0.1, 0.2)),
            ("south", "G", ProbInterval(0.7, 0.9)),
        ))
        with pytest.raises(NoUniqueReferenceClassError, match="incomparable"):
            direct_inference("i", "G", {"north", "south"}, refs)

    def test_incomparable_agreement_is_fine(self):
        refs = ReferenceClassTable(entries=(
            ("north", "G", ProbInterval(0.4, 0.6)),
            ("south", "G", ProbInterval(0.4, 0.6)),
        ))
        got = direct_inference("i", "G", {"north", "south"}, refs)
        assert got == ProbInterval(0.4, 0.6)

    def test_agreeing_classes_answer_with_the_smallest_ones_bits(self):
        refs = ReferenceClassTable(entries=(
            ("south", "G", ProbInterval(0.0, 0.6)),
            ("north", "G", ProbInterval(-0.0, 0.6)),
        ))
        got = direct_inference("i", "G", {"south", "north"}, refs)
        assert math.copysign(1.0, got.lo) == -1.0


class TestCredalStructures:
    def test_level_index_and_error_bounds(self):
        with pytest.raises(ValueError):
            CredalLevel(-1, 0.0)
        with pytest.raises(ValueError):
            CredalLevel(0, -0.5)

    @pytest.mark.parametrize("index, error, message", [
        (True, 0.1, "level index must be an int, got True"),
        (1, True, "level error must be a number, got True"),
        (0, False, "level error must be a number, got False"),
    ])
    def test_bools_refused_where_numbers_go(self, index, error, message):
        # True == 1 would pass the sequence's position check and then be
        # written as "level_used": true, which the report schema refuses
        with pytest.raises(ValueError, match=f"^{message}$"):
            CredalLevel(index, error, {"a": {"G": ProbInterval(0.9, 1.0)}})
        assert CredalLevel(1, 1).error == 1

    def test_sequence_needs_levels(self):
        with pytest.raises(ValueError):
            CredalSequence(())

    def test_sequence_index_must_match_position(self):
        with pytest.raises(ValueError, match="position"):
            CredalSequence((CredalLevel(1, 0.0),))

    def test_sequence_errors_must_not_drop(self):
        with pytest.raises(ValueError, match="drops"):
            CredalSequence((CredalLevel(0, 0.5), CredalLevel(1, 0.1)))

    def test_equal_errors_allowed(self):
        seq = CredalSequence((CredalLevel(0, 0.1), CredalLevel(1, 0.1)))
        assert len(seq.levels) == 2


class TestApplyLevel:
    def test_replaces_only_named_boxes(self):
        problem = jerry_problem()
        level = CredalLevel(0, 0.0, {"a1": {"G": ProbInterval(0.75, 1.0)}})
        got = apply_level(problem, level)
        assert got.act("a1").outcome("G").prob == ProbInterval(0.75, 1.0)
        assert got.act("a1").outcome("not-G").prob == ProbInterval(0.0, 1.0)
        assert got.act("a2").outcome("H").prob == ProbInterval(0.0, 1.0)

    def test_replacement_need_not_nest(self):
        problem = DecisionProblem("p", (
            Act("a", (Outcome("x", 1.0, ProbInterval(0.6, 0.8)),
                      Outcome("y", 0.0, ProbInterval(0.2, 0.4)))),
        ))
        level = CredalLevel(0, 0.0, {"a": {"x": ProbInterval(0.0, 1.0)}})
        got = apply_level(problem, level)
        assert got.act("a").outcome("x").prob == ProbInterval(0.0, 1.0)

    def test_unknown_act_rejected(self):
        with pytest.raises(ValueError, match="unknown act"):
            apply_level(jerry_problem(),
                        CredalLevel(0, 0.0, {"zz": {}}))

    def test_unknown_outcome_rejected(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            apply_level(jerry_problem(),
                        CredalLevel(0, 0.0, {"a1": {"zz": ProbInterval(0.0, 1.0)}}))

    @given(st.data())
    def test_matches_rebuilding_every_act(self, data):
        acts = tuple(data.draw(feasible_acts(name=f"a{i}"))
                     for i in range(data.draw(st.integers(1, 4))))
        problem = DecisionProblem("p", acts)
        assignments = {}
        for act in acts:
            if data.draw(st.booleans()):
                labels = data.draw(st.lists(st.sampled_from(act.labels()),
                                            unique=True))
                assignments[act.name] = {
                    label: data.draw(prob_intervals()) for label in labels}
        level = CredalLevel(0, 0.0, assignments)
        try:
            want = rebuild_every_act(problem, level)
        except FeasibilityError as exc:
            with pytest.raises(FeasibilityError, match=re.escape(str(exc))):
                apply_level(problem, level)
            return
        got = apply_level(problem, level)
        assert got == want
        for act in acts:
            if not assignments.get(act.name):
                assert got.act(act.name) is act

    def test_original_problem_untouched(self):
        problem = jerry_problem()
        apply_level(problem, CredalLevel(0, 0.0,
                                         {"a1": {"G": ProbInterval(0.5, 0.5)}}))
        assert problem.act("a1").outcome("G").prob == ProbInterval(0.0, 1.0)


class TestLevelFromBody:
    def test_accepted_negated_condition_zeroes_the_event(self):
        body = BodyOfKnowledge(0, 0.0, (
            Statement.condition("no-hazard", "H", value=False),
        ))
        level = level_from_body(body, jerry_problem())
        assert level.assignments["a2"]["H"] == ProbInterval(0.0, 0.0)
        assert level.assignments["a2"]["not-H"] == ProbInterval(1.0, 1.0)
        assert "a1" not in level.assignments
        resolved = apply_level(jerry_problem(), level)
        assert interval_close(eu_interval(resolved.act("a2")), 0.0, 0.0)

    def test_empty_body_leaves_everything_vacuous(self):
        level = level_from_body(BodyOfKnowledge(0, 0.0), jerry_problem())
        assert level.assignments == {}
        resolved = apply_level(jerry_problem(), level)
        for act in resolved.acts:
            for o in act.outcomes:
                assert o.prob == ProbInterval(0.0, 1.0)

    def test_membership_triggers_direct_inference(self):
        body = BodyOfKnowledge(0, 0.0, (
            Statement.membership("picked", "this-berry", "soft-berries"),
        ))
        level = level_from_body(body, jerry_problem(), REFS)
        assert level.assignments["a1"]["G"] == ProbInterval(0.84, 0.88)
        got = eu_all(apply_level(jerry_problem(), level))
        assert interval_close(got["a1"], 3.6, 5.2)

    def test_class_frequency_statements_feed_the_table(self):
        body = BodyOfKnowledge(0, 0.0, (
            Statement.membership("picked", "this-berry", "berries"),
            Statement.class_frequency("freq", "berries", "G",
                                      ProbInterval(0.3, 0.8)),
        ))
        level = level_from_body(body, jerry_problem())
        assert level.assignments["a1"]["G"] == ProbInterval(0.3, 0.8)

    def test_two_outcome_acts_get_the_complement_forced(self):
        body = BodyOfKnowledge(0, 0.0, (
            Statement.event_interval("g", "G", ProbInterval(0.75, 1.0)),
        ))
        level = level_from_body(body, jerry_problem())
        assert level.assignments["a1"]["not-G"] == ProbInterval(0.0, 0.25)

    def test_conflicting_paired_constraints(self):
        body = BodyOfKnowledge(0, 0.0, (
            Statement.event_interval("g", "G", ProbInterval(0.9, 1.0)),
            Statement.event_interval("ng", "not-G", ProbInterval(0.5, 0.6)),
        ))
        with pytest.raises(ConflictingConstraintError):
            level_from_body(body, jerry_problem())

    def test_direct_inference_clashing_with_interval(self):
        body = BodyOfKnowledge(0, 0.0, (
            Statement.event_interval("g", "G", ProbInterval(0.0, 0.1)),
            Statement.membership("picked", "this-berry", "soft-berries"),
        ))
        with pytest.raises(ConflictingConstraintError, match="direct inference"):
            level_from_body(body, jerry_problem(), REFS)

    def test_extra_overrides_intersect(self):
        body = BodyOfKnowledge(0, 0.0, (
            Statement.event_interval("g", "G", ProbInterval(0.5, 1.0)),
        ))
        level = level_from_body(
            body, jerry_problem(),
            extra={"a1": {"G": ProbInterval(0.0, 0.8)}})
        assert level.assignments["a1"]["G"] == ProbInterval(0.5, 0.8)

    def test_extra_override_conflict(self):
        body = BodyOfKnowledge(0, 0.0, (
            Statement.event_interval("g", "G", ProbInterval(0.8, 1.0)),
        ))
        with pytest.raises(ConflictingConstraintError, match="asserted"):
            level_from_body(body, jerry_problem(),
                            extra={"a1": {"G": ProbInterval(0.0, 0.2)}})

    def test_extra_override_unknown_act(self):
        # an empty box names its act all the same
        for box in ({"G": ProbInterval(0.0, 1.0)}, {}):
            with pytest.raises(ValueError, match="unknown act 'zz'"):
                level_from_body(BodyOfKnowledge(0, 0.0), jerry_problem(),
                                extra={"zz": box})

    def test_extra_override_unknown_outcome(self):
        with pytest.raises(ValueError, match="unknown outcome"):
            level_from_body(BodyOfKnowledge(0, 0.0), jerry_problem(),
                            extra={"a1": {"zz": ProbInterval(0.0, 1.0)}})

    def test_infeasible_resolved_box_names_the_body(self):
        problem = DecisionProblem("p", (
            Act("a", (Outcome("x", 0.0), Outcome("y", 1.0), Outcome("z", 2.0))),
        ))
        body = BodyOfKnowledge(3, 0.2, (
            Statement.event_interval("sx", "x", ProbInterval(0.0, 0.1)),
            Statement.event_interval("sy", "y", ProbInterval(0.0, 0.1)),
            Statement.event_interval("sz", "z", ProbInterval(0.0, 0.1)),
        ))
        with pytest.raises(FeasibilityError, match="body 3"):
            level_from_body(body, problem)

    def test_constraint_applies_to_every_act_sharing_the_event(self):
        problem = DecisionProblem("p", (
            Act("a", (Outcome("G", 1.0), Outcome("not-G", 0.0))),
            Act("b", (Outcome("G", 5.0), Outcome("other", 0.0))),
        ))
        body = BodyOfKnowledge(0, 0.0, (
            Statement.event_interval("g", "G", ProbInterval(0.2, 0.3)),
        ))
        level = level_from_body(body, problem)
        assert level.assignments["a"]["G"] == ProbInterval(0.2, 0.3)
        assert level.assignments["b"]["G"] == ProbInterval(0.2, 0.3)


NESTING_PROBLEM = DecisionProblem("p", (
    Act("a1", (Outcome("G", 10.0), Outcome("not-G", -30.0))),
    Act("a2", (Outcome("H", -10.0), Outcome("not-H", 0.0),
               Outcome("I", 1.0, ProbInterval(0.0, 0.5)))),
    Act("a3", (Outcome("J", 2.0),)),
))


def _grid_boxes(labels):
    # a coarse grid makes shared endpoints and infeasible boxes common
    grid = st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
        lambda p: ProbInterval(min(p) / 4.0, max(p) / 4.0))
    return st.dictionaries(st.sampled_from(labels), grid, max_size=len(labels))


@st.composite
def nesting_boxes(draw):
    """One hand-built level's boxes; about one level in ten names an act
    the problem does not declare ("zz") or an outcome no act has ("Q")."""
    boxes = draw(st.fixed_dictionaries({}, optional={
        "a1": _grid_boxes(("G", "not-G")),
        "a2": _grid_boxes(("H", "not-H", "I")),
        "a3": _grid_boxes(("J",)),
    }))
    fault = draw(st.integers(0, 19))
    if fault == 0:
        boxes["zz"] = {}
    elif fault == 1:
        boxes.setdefault("a1", {})["Q"] = ProbInterval(0.0, 1.0)
    return boxes


class TestSequencesAndNesting:
    def seq_of_g_bounds(self, *bounds):
        problem = jerry_problem()
        bodies = []
        for i, (lo, hi) in enumerate(bounds):
            statements = () if lo is None else (
                Statement.event_interval(f"g{i}", "G", ProbInterval(lo, hi)),
            )
            bodies.append(BodyOfKnowledge(i, i / 10.0, statements))
        return problem, sequence_from_bodies(bodies, problem)

    def test_sequence_from_bodies_carries_errors(self):
        _, seq = self.seq_of_g_bounds((None, None), (0.6, 0.8))
        assert [lvl.error for lvl in seq.levels] == [0.0, 0.1]

    def test_shifted_bounds_are_not_nested(self):
        problem, seq = self.seq_of_g_bounds((None, None), (0.6, 0.8), (0.3, 0.4))
        assert not is_nested(seq, problem)

    def test_tightening_chain_is_nested(self):
        problem, seq = self.seq_of_g_bounds((None, None), (0.3, 0.9), (0.4, 0.7))
        assert is_nested(seq, problem)

    def test_single_level_is_nested(self):
        problem, seq = self.seq_of_g_bounds((None, None))
        assert is_nested(seq, problem)

    @given(st.lists(st.one_of(
        st.just((None, None)),
        st.tuples(st.integers(0, 4), st.integers(0, 4)).map(
            lambda p: (min(p) / 4.0, max(p) / 4.0)),
    ), min_size=1, max_size=5))
    def test_matches_all_pairs_check(self, bounds):
        # a coarse grid makes shared endpoints common, and a vacuous level
        # between two tighter ones lets a violation skip a level
        problem, seq = self.seq_of_g_bounds(*bounds)
        assert is_nested(seq, problem) == all_pairs_nested(seq, problem)

    @given(st.lists(nesting_boxes(), min_size=1, max_size=4))
    def test_matches_all_pairs_check_on_any_level(self, boxes):
        # hand-built levels may name an unknown act or outcome or leave an
        # act infeasible; is_nested must then raise as apply_level does
        seq = CredalSequence(tuple(CredalLevel(i, i / 10.0, box)
                                   for i, box in enumerate(boxes)))
        assert (outcome(lambda: is_nested(seq, NESTING_PROBLEM))
                == outcome(lambda: all_pairs_nested(seq, NESTING_PROBLEM)))

    def test_builds_no_act(self, monkeypatch):
        built = []
        for cls in (Act, Outcome, DecisionProblem):
            check = cls.__post_init__

            def counted(self, check=check):
                built.append(type(self).__name__)
                check(self)
            monkeypatch.setattr(cls, "__post_init__", counted)
        problem, seq = self.seq_of_g_bounds((None, None), (0.3, 0.9), (0.4, 0.7))
        built.clear()
        assert is_nested(seq, problem)
        assert built == []
        # the counter sees what apply_level builds
        apply_level(problem, seq.levels[1])
        assert "Act" in built



# a coarse grid of endpoints, with both signs of zero, so that equal
# frequencies listed with different bits and empty meets are common
ENDS = st.sampled_from([-0.0, 0.0, 0.25, 0.5, 0.75, 1.0])
INTERVALS = st.tuples(ENDS, ENDS).map(lambda p: ProbInterval(*sorted(p)))
CLASSES = "abcd"
EVENTS = ("E", "F", "G")
# E and F share the two-outcome act, so one forces the other; the
# three-outcome act can turn out infeasible
RESOLUTION_PROBLEM = DecisionProblem("p", (
    Act("bet", (Outcome("E", 10.0), Outcome("F", -5.0))),
    Act("tri", (Outcome("E", 1.0), Outcome("G", 2.0, ProbInterval(0.0, 0.4)),
                Outcome("F", 0.0, ProbInterval(0.0, 0.4)))),
))
EXTRAS = st.fixed_dictionaries({}, optional={
    "bet": st.dictionaries(st.sampled_from("EF"), INTERVALS, max_size=2),
    "tri": st.dictionaries(st.sampled_from("EGF"), INTERVALS, max_size=2),
})
# two more acts that no statement reaches: only assertions box them
LEVELS_PROBLEM = DecisionProblem("p", RESOLUTION_PROBLEM.acts + (
    Act("side", (Outcome("H", 3.0), Outcome("I", -1.0))),
    Act("sure", (Outcome("S", 1.0),)),
))
LEVEL_EXTRAS = st.fixed_dictionaries({}, optional={
    "bet": st.dictionaries(st.sampled_from("EF"), INTERVALS, max_size=2),
    "tri": st.dictionaries(st.sampled_from("EGF"), INTERVALS, max_size=2),
    "side": st.dictionaries(st.sampled_from("HI"), INTERVALS, max_size=1),
    "sure": st.dictionaries(st.just("S"), st.sampled_from(
        [ProbInterval(1.0, 1.0), ProbInterval(0.5, 1.0), ProbInterval(0.0, 0.5)])),
})


@st.composite
def corpora(draw):
    """(base table, statements): a chain or a DAG over four classes,
    at most two base frequencies and up to ten statements of every
    kind, with tied credences."""
    order = draw(st.permutations(CLASSES))
    if draw(st.booleans()):
        pairs = set(zip(order, order[1:draw(st.integers(1, 4))]))
    else:
        links = draw(st.sets(st.tuples(st.integers(0, 3), st.integers(0, 3)).filter(
            lambda p: p[0] < p[1]), max_size=5))
        pairs = {(order[i], order[j]) for i, j in links}
    base = draw(st.dictionaries(
        st.tuples(st.sampled_from(CLASSES), st.sampled_from(EVENTS)),
        INTERVALS, max_size=2))
    refs = ReferenceClassTable(
        tuple((c, e, iv) for (c, e), iv in base.items()), frozenset(pairs))
    cls, event = st.sampled_from(CLASSES), st.sampled_from(EVENTS)
    statements = []
    kinds = st.sampled_from(["class-frequency", "membership", "class-frequency",
                             "membership", "event-interval", "condition"])
    for i, kind in enumerate(draw(st.lists(kinds, max_size=10))):
        sid, prob = f"s{i}", draw(st.sampled_from([0.9, 0.95, 0.99, 1.0]))
        if kind == "class-frequency":
            s = Statement.class_frequency(sid, draw(cls), draw(event),
                                          draw(INTERVALS), prob)
        elif kind == "membership":
            s = Statement.membership(sid, draw(st.sampled_from("xy")), draw(cls), prob)
        elif kind == "event-interval":
            s = Statement.event_interval(sid, draw(event), draw(INTERVALS), prob)
        else:
            s = Statement.condition(sid, draw(event), draw(st.booleans()), prob)
        statements.append(s)
    return refs, statements


def drawn_bodies(data, statements):
    """Bodies that either grow the body before them, the new statements
    put anywhere in it, or pick any statements in any order."""
    bodies: list[BodyOfKnowledge] = []
    for j in range(data.draw(st.integers(1, 4))):
        if bodies and data.draw(st.booleans()):
            held = list(bodies[-1].statements)
            for s in statements:
                if all(s is not t for t in held) and data.draw(st.booleans()):
                    held.insert(data.draw(st.integers(0, len(held))), s)
        else:
            order = data.draw(st.permutations(statements))
            held = [s for s in order if data.draw(st.booleans())]
        bodies.append(BodyOfKnowledge(j, j / 10.0, tuple(held)))
    return bodies


def resolved(build):
    """The built sequence or level as comparable bits, or the error."""
    try:
        out = build()
    except ValueError as exc:
        return type(exc), str(exc)
    if isinstance(out, CredalSequence):
        return sequence_bytes(out)
    return out.index, out.error, repr(sorted(
        (act, sorted((label, iv.lo, iv.hi) for label, iv in box.items()))
        for act, box in out.assignments.items()))


class SliceLog(tuple):
    """A statement order that logs every slice taken of it."""

    def __getitem__(self, key):
        if isinstance(key, slice):
            self.slices.append((key.start, key.stop))
        return super().__getitem__(key)


# a chain of two classes, memberships and frequencies on it, an event
# bound and a condition, each accepted at its own level
GROWTH_REFS = ReferenceClassTable(specificity=frozenset({("soft", "berries")}))
GROWTH_CORPUS = (
    Statement.membership("m1", "i", "berries", prob=0.99),
    Statement.class_frequency("f1", "berries", "G", ProbInterval(0.2, 0.9), 0.98),
    Statement.event_interval("e1", "G", ProbInterval(0.0, 0.8), prob=0.97),
    Statement.membership("m2", "i", "soft", prob=0.95),
    Statement.class_frequency("f2", "soft", "G", ProbInterval(0.1, 0.3), 0.9),
    Statement.condition("h", "H", prob=0.85),
)


class TestIncrementalResolution:
    @staticmethod
    def level_g(bodies, j):
        """Level j's box on G, after checking the whole sequence's bytes
        against the oracle's."""
        problem = jerry_problem()
        seq = sequence_from_bodies(bodies, problem)
        assert sequence_bytes(seq) == sequence_bytes(oracle_sequence(bodies, problem))
        return seq.levels[j].assignments["a1"]["G"]

    @staticmethod
    def counted_starts(monkeypatch) -> list:
        """A list that gains an entry on every _Resolver._start call from
        now on."""
        calls = []
        start = knowledge._Resolver._start

        def counted(self):
            calls.append(self)
            start(self)

        monkeypatch.setattr(knowledge._Resolver, "_start", counted)
        return calls

    def fresh_starts(self, monkeypatch, bodies) -> int:
        """The _Resolver._start calls that resolving bodies makes, the
        resolver's own included, after checking the sequence's bytes
        against the oracle's."""
        problem = jerry_problem()
        calls = self.counted_starts(monkeypatch)
        seq = sequence_from_bodies(bodies, problem)
        assert sequence_bytes(seq) == sequence_bytes(oracle_sequence(bodies, problem))
        return len(calls)

    def starts_in_turn(self, monkeypatch, bodies, extras=None) -> int:
        """Resolve bodies in turn through one resolver on GROWTH_REFS, each
        level checked against oracle_level with its assertions, and count
        the fresh starts past the resolver's own."""
        problem = jerry_problem()
        calls = self.counted_starts(monkeypatch)
        resolver = knowledge._Resolver(problem, GROWTH_REFS)
        for body, extra in zip(bodies, extras or [{}] * len(bodies)):
            assert resolved(lambda: level_from_body(
                body, problem, GROWTH_REFS, extra, resolver=resolver)) == \
                resolved(lambda: oracle_level(body, problem, GROWTH_REFS, extra))
        return len(calls) - 1

    def test_a_longer_cut_of_the_same_order_skips_the_bodies_between(self, monkeypatch):
        bodies = accept_next_most_probable(GROWTH_CORPUS)
        assert self.starts_in_turn(monkeypatch, [bodies[0], bodies[2], bodies[5],
                                                 bodies[5], bodies[6]]) == 1

    def test_a_shorter_cut_starts_afresh(self, monkeypatch):
        bodies = accept_next_most_probable(GROWTH_CORPUS)
        assert self.starts_in_turn(monkeypatch, [bodies[5], bodies[3], bodies[6]]) == 2

    def test_a_cut_after_a_hand_built_twin_starts_afresh(self, monkeypatch):
        bodies = accept_next_most_probable(GROWTH_CORPUS)
        twin = BodyOfKnowledge(3, bodies[3].error, bodies[3].statements)
        assert twin == bodies[3]
        assert self.starts_in_turn(monkeypatch, [bodies[2], twin, bodies[4]]) == 3

    def test_a_cut_of_another_order_starts_afresh(self, monkeypatch):
        first, second = (accept_next_most_probable(GROWTH_CORPUS) for _ in range(2))
        assert first[2] == second[2]
        assert self.starts_in_turn(monkeypatch, [first[2], second[4], second[5]]) == 2

    def test_a_cut_after_assertions_starts_afresh(self, monkeypatch):
        # body 3 must not inherit body 2's asserted box
        bodies = accept_next_most_probable(GROWTH_CORPUS)
        extras = [{}, {"a1": {"G": ProbInterval(0.3, 0.7)}}, {}, {}]
        assert self.starts_in_turn(monkeypatch, bodies[1:5], extras) == 2

    @settings(max_examples=300, deadline=None)
    @given(corpora(), st.data())
    def test_cuts_in_any_order_match_the_oracle(self, corpus, data):
        # cuts of two walks over one corpus, of two rules, and
        # constructor-built twins, resolved in any order through one
        # resolver, each with its own assertions
        refs, statements = corpus
        try:
            walks = [accept_next_most_probable(statements),
                     accept_next_most_probable(statements),
                     accept_threshold(statements, [0.02, 0.06])]
        except InconsistentBodyError:
            return
        pool = [body for walk in walks for body in walk]
        pool += [BodyOfKnowledge(b.index, b.error, b.statements) for b in walks[0]]
        problem = RESOLUTION_PROBLEM
        resolver = knowledge._Resolver(problem, refs)
        for body in data.draw(st.lists(st.sampled_from(pool), max_size=8)):
            extra = data.draw(EXTRAS)
            assert resolved(lambda: level_from_body(
                body, problem, refs, extra, resolver=resolver)) == \
                resolved(lambda: oracle_level(body, problem, refs, extra))

    def test_a_later_accepted_zero_follows_the_earlier_ones_sign(self, monkeypatch):
        # `late` comes first in the corpus, but threshold body 2 lists it
        # after `early`, as the tail it adds to body 1, so `early`'s 0.0
        # wins the tie at both levels and body 2 is grown from body 1's state
        statements = [
            Statement.event_interval("late", "G", ProbInterval(-0.0, 0.5), prob=0.95),
            Statement.event_interval("early", "G", ProbInterval(0.0, 0.5), prob=0.99),
        ]
        bodies = accept_threshold(statements, [0.02, 0.1])
        assert [s.id for s in bodies[2].statements] == ["early", "late"]
        assert added_ids(bodies[1], bodies[2]) == ["late"]
        assert repr(self.level_g(bodies, 1).lo) == "0.0"
        assert repr(self.level_g(bodies, 2).lo) == "0.0"
        assert self.fresh_starts(monkeypatch, bodies) == 2

    def test_an_inserted_zero_of_the_same_sign_carries_the_state(self, monkeypatch):
        # `a` comes first in the corpus but is accepted after `b`, so body
        # 2 adds it after `b` instead of inserting it before; body 2 is
        # grown from body 1's state, and `b`'s tighter upper bound holds
        statements = [
            Statement.event_interval("a", "G", ProbInterval(0.0, 0.6), prob=0.95),
            Statement.event_interval("b", "G", ProbInterval(0.0, 0.5), prob=0.99),
        ]
        bodies = accept_threshold(statements, [0.02, 0.1])
        assert [s.id for s in bodies[2].statements] == ["b", "a"]
        assert added_ids(bodies[1], bodies[2]) == ["a"]
        assert self.level_g(bodies, 2) == ProbInterval(0.0, 0.5)
        assert self.fresh_starts(monkeypatch, bodies) == 2

    def test_a_level_that_adds_nothing_carries_the_state(self, monkeypatch):
        statements = [
            Statement.event_interval("s", "G", ProbInterval(-0.0, 0.5), prob=0.99)]
        bodies = accept_threshold(statements, [0.02, 0.05, 0.1])
        assert repr(self.level_g(bodies, 3).lo) == "-0.0"
        assert self.fresh_starts(monkeypatch, bodies) == 2

    def test_next_most_probable_zeros_of_alternating_sign_never_restart(self, monkeypatch):
        # every step appends, so the carried bound is the one resolution in
        # body order gives, although each new zero differs in sign from the
        # carried one: the resolver's own start and body 0's are the only two
        n = 200
        statements = [
            Statement.event_interval(f"s{i}", "G", ProbInterval(-0.0 if i % 2 else 0.0, 0.9),
                                     prob=1 - (i + 1) / (10 * n))
            for i in range(n)]
        bodies = accept_next_most_probable(statements)
        assert self.fresh_starts(monkeypatch, bodies) == 2

    def test_threshold_zeros_of_alternating_sign_never_restart(self, monkeypatch):
        # listed least probable first, so each level's new statements
        # come before the old ones in the corpus; every body still lists
        # them last, and the resolver's own start and body 0's are the
        # only two
        n = 200
        statements = [
            Statement.event_interval(f"s{i}", "G", ProbInterval(-0.0 if i % 2 else 0.0, 0.9),
                                     prob=1 - (i + 1) / (10 * n))
            for i in reversed(range(n))]
        bodies = accept_threshold(statements, [(k + 1) / 200 for k in range(20)])
        assert len(bodies) == 21 and len(bodies[-1].statements) == n
        assert self.fresh_starts(monkeypatch, bodies) == 2

    def test_a_later_accepted_zero_upper_endpoint_follows_the_earlier_sign(self):
        statements = [
            Statement.event_interval("late", "G", ProbInterval(0.0, -0.0), prob=0.95),
            Statement.condition("early", "G", False, prob=0.99),
        ]
        bodies = accept_threshold(statements, [0.02, 0.1])
        assert repr(self.level_g(bodies, 1).hi) == "0.0"
        assert repr(self.level_g(bodies, 2).hi) == "0.0"

    def test_next_most_probable_zeros_keep_the_first_sign(self):
        # growth order is body order here, so the carried -0.0 stays
        # first whichever way the grown body is resolved
        statements = [
            Statement.event_interval("b", "G", ProbInterval(0.0, 0.5), prob=0.9),
            Statement.event_interval("a", "G", ProbInterval(-0.0, -0.0), prob=0.99),
            Statement.condition("c", "G", False, prob=0.8),
        ]
        bodies = accept_next_most_probable(statements)
        assert [s.id for s in bodies[3].statements] == ["a", "b", "c"]
        g = self.level_g(bodies, 3)
        assert (repr(g.lo), repr(g.hi)) == ("-0.0", "-0.0")

    @settings(max_examples=400, deadline=None)
    @given(corpora(), st.sampled_from(["next-most-probable", "threshold", "drawn"]),
           st.data())
    def test_matches_the_oracle(self, corpus, rule, data):
        refs, statements = corpus
        try:
            if rule == "next-most-probable":
                bodies = accept_next_most_probable(statements)
            elif rule == "threshold":
                levels = data.draw(st.lists(st.sampled_from([0.02, 0.06, 0.2]),
                                            min_size=1, unique=True))
                bodies = accept_threshold(statements, sorted(levels))
            else:
                bodies = drawn_bodies(data, statements)
        except InconsistentBodyError:
            return
        problem = RESOLUTION_PROBLEM
        assert resolved(lambda: sequence_from_bodies(bodies, problem, refs)) == \
            resolved(lambda: oracle_sequence(bodies, problem, refs))
        # one resolver through every body, each with its own assertions,
        # going on after a body that fails
        resolver = knowledge._Resolver(problem, refs)
        for body in bodies:
            extra = data.draw(EXTRAS)
            assert resolved(lambda: level_from_body(
                body, problem, refs, extra, resolver=resolver)) == \
                resolved(lambda: oracle_level(body, problem, refs, extra))

    @settings(max_examples=300, deadline=None)
    @given(corpora(), st.data())
    def test_levels_form_matches_the_oracle(self, corpus, data):
        refs, statements = corpus
        try:
            bodies = drawn_bodies(data, statements)
        except InconsistentBodyError:
            return
        specs = []
        for body in bodies:
            extra = data.draw(LEVEL_EXTRAS)
            if data.draw(st.integers(0, 15)) == 0:
                extra = {**extra, data.draw(st.sampled_from(["zz", "sure"])): {
                    "zz": ProbInterval(0.0, 1.0)}}
            specs.append(LevelSpec(body.error, body.statements, extra))
        doc = ProblemDocument(LEVELS_PROBLEM, level_specs=specs, refs=refs)
        assert resolved(doc.build_sequence) == resolved(lambda: CredalSequence(tuple(
            oracle_level(body, LEVELS_PROBLEM, refs, spec.overrides)
            for body, spec in zip(bodies, specs))))

    def test_label_index_built_once_per_levels_document(self, monkeypatch):
        calls = {"index": 0, "level_from_body": 0}
        act_index = knowledge._act_index
        level_from_body = problem_io.level_from_body

        def counted_index(problem):
            calls["index"] += 1
            return act_index(problem)

        def counted_level_from_body(*args, **kwargs):
            calls["level_from_body"] += 1
            return level_from_body(*args, **kwargs)

        monkeypatch.setattr(knowledge, "_act_index", counted_index)
        monkeypatch.setattr(problem_io, "level_from_body", counted_level_from_body)
        levels = [{"error": j / 10.0,
                   "constraints": [{"kind": "event-interval", "event": "E",
                                    "interval": [0.1 * j, 0.5 + 0.05 * j]}],
                   "overrides": {"side": {"H": [0.2, 0.2 + 0.1 * j]}}}
                  for j in range(5)]
        doc = parse_document({
            "problem": "p", "levels": levels,
            "acts": [{"name": act.name, "outcomes": [
                {"label": o.label, "utility": o.utility} for o in act.outcomes]}
                for act in LEVELS_PROBLEM.acts]})
        seq = doc.build_sequence()
        assert len(seq.levels) == 5
        assert sorted(seq.levels[4].assignments) == ["bet", "side", "tri"]
        assert calls == {"index": 1, "level_from_body": 5}

    @staticmethod
    def levels_form(constraints, overrides):
        acts = [{"name": "a", "outcomes": [{"label": "G", "utility": 1.0},
                                           {"label": "H", "utility": 0.0},
                                           {"label": "I", "utility": -1.0}]},
                {"name": "b", "outcomes": [{"label": "J", "utility": 1.0}]}]
        doc = parse_document({"problem": "p", "acts": acts, "levels": [
            {"error": 0.0, "constraints": constraints, "overrides": overrides}]})
        return doc.level_specs[0].overrides, doc.build_sequence

    def test_override_only_box_is_a_fresh_dict_of_the_same_intervals(self):
        overrides, build = self.levels_form([], {"a": {"H": [0.1, 0.5], "G": [0.2, 0.6]}})
        assignments = build().levels[0].assignments
        assert list(assignments) == ["a"]
        box = assignments["a"]
        assert box == overrides["a"] and box is not overrides["a"]
        assert list(box) == ["H", "G"]
        assert all(box[label] is iv for label, iv in overrides["a"].items())

    def test_constraint_and_override_on_other_labels_both_box(self):
        _, build = self.levels_form(
            [{"kind": "event-interval", "event": "G", "interval": [0.2, 0.4]}],
            {"a": {"H": [0.1, 0.3]}})
        assert build().levels[0].assignments == {"a": {
            "G": ProbInterval(0.2, 0.4), "H": ProbInterval(0.1, 0.3)}}

    def test_override_missing_a_constraint_names_the_outcome(self):
        _, build = self.levels_form(
            [{"kind": "event-interval", "event": "G", "interval": [0.6, 0.9]}],
            {"a": {"G": [0.1, 0.2]}})
        with pytest.raises(ConflictingConstraintError) as caught:
            build()
        assert str(caught.value) == (
            "body 0: asserted interval for outcome 'G' of act 'a' conflicts "
            "with the statement-derived bounds")

    @pytest.mark.parametrize("rule", ["next-most-probable", "threshold"])
    @pytest.mark.parametrize("k", range(len(seeded_pool("refclass-chain"))),
                             ids=lambda k: f"doc{k}")
    def test_grown_bodies_are_read_only_as_the_statements_they_add(self, rule, k):
        # resolution reads body 0 in full and each grown body only as the
        # slice of the shared order that its cut adds to the one before
        data = seeded_pool("refclass-chain")[k]
        doc = parse_document(data)

        def bodies():
            if rule == "next-most-probable":
                return accept_next_most_probable(doc.statements)
            levels = data["acceptance"].get("error_levels", (0.01, 0.05, 0.1))
            return accept_threshold(doc.statements, levels)

        want = sequence_bytes(sequence_from_bodies(bodies(), doc.problem, doc.refs))
        grown = bodies()
        order = SliceLog(vars(grown[0])["statements"][0])
        order.slices = []
        ks = [vars(body)["statements"][1] for body in grown]
        for body, size in zip(grown, ks):
            vars(body)["statements"] = knowledge._Cut((order, size))
        assert sequence_bytes(sequence_from_bodies(grown, doc.problem, doc.refs)) == want
        assert order.slices == [(None, 0), *itertools.pairwise(ks)]

    def test_later_specific_class_replaces_the_answer(self):
        # the narrower frequency of a more specific class replaces the
        # earlier answer instead of being met with it
        refs = ReferenceClassTable(specificity=frozenset({("soft", "berries")}))
        statements = [
            Statement.membership("m1", "i", "berries", prob=0.99),
            Statement.class_frequency("f1", "berries", "G", ProbInterval(0.2, 0.9), 0.99),
            Statement.membership("m2", "i", "soft", prob=0.95),
            Statement.class_frequency("f2", "soft", "G", ProbInterval(0.1, 0.3), 0.9),
        ]
        bodies = accept_next_most_probable(statements)
        seq = sequence_from_bodies(bodies, jerry_problem(), refs)
        got = [lvl.assignments.get("a1", {}).get("G") for lvl in seq.levels]
        assert got == [None, None, ProbInterval(0.2, 0.9), ProbInterval(0.2, 0.9),
                       ProbInterval(0.1, 0.3)]

    @staticmethod
    def repeated_frequency_signs(late_prob):
        """The sign of G's lower bound at levels 1 and 2 when `late`
        (-0.0, listed first) and `early` (0.0, credence 0.99) give class
        c the same frequency."""
        statements = [
            Statement.class_frequency("late", "c", "G", ProbInterval(-0.0, 0.5), late_prob),
            Statement.class_frequency("early", "c", "G", ProbInterval(0.0, 0.5), 0.99),
            Statement.membership("m", "i", "c", 0.99),
        ]
        bodies = accept_threshold(statements, [0.02, 0.1])
        seq = sequence_from_bodies(bodies, jerry_problem())
        assert sequence_bytes(seq) == sequence_bytes(
            oracle_sequence(bodies, jerry_problem()))
        return [math.copysign(1.0, lvl.assignments["a1"]["G"].lo)
                for lvl in seq.levels[1:]]

    def test_repeated_frequency_follows_body_order(self):
        # `late` comes first in the corpus; accepted after `early`, it
        # follows it in body order, so `early`'s 0.0 wins
        assert self.repeated_frequency_signs(0.95) == [1.0, 1.0]

    def test_repeated_frequency_tied_in_credence_follows_corpus_order(self):
        # a tie in credence keeps corpus order, so `late`'s -0.0 wins
        assert self.repeated_frequency_signs(0.99) == [-1.0, -1.0]

    def test_conflicting_frequencies_named_in_body_order(self):
        # body 2 adds 'c2' and then 'd2' to body 1's 'd1' and 'c1', so in
        # body order 'c' conflicts first, on the grown state as from empty
        statements = [
            Statement.class_frequency("d1", "d", "G", ProbInterval(0.1, 0.2), 0.99),
            Statement.class_frequency("c2", "c", "G", ProbInterval(0.3, 0.4), 0.95),
            Statement.class_frequency("d2", "d", "G", ProbInterval(0.5, 0.6), 0.95),
            Statement.class_frequency("c1", "c", "G", ProbInterval(0.7, 0.8), 0.99),
        ]
        bodies = accept_threshold(statements, [0.02, 0.1])
        assert [s.id for s in bodies[2].statements] == ["d1", "c1", "c2", "d2"]
        for resolve in (sequence_from_bodies, oracle_sequence):
            with pytest.raises(ValueError, match="^class 'c' has two different"):
                resolve(bodies, jerry_problem())

    @pytest.mark.parametrize("x_statements,message", [
        ((Statement.membership("x1", "x", "n1"), Statement.membership("x2", "x", "s1")),
         "incomparable reference classes 'n1', 's1' disagree about 'G'"),
        ((Statement.event_interval("g", "G", ProbInterval(0.9, 1.0)),
          Statement.membership("x1", "x", "n1")),
         "body 0: direct inference for item 'x' leaves no probability for event 'G'"),
    ], ids=["no-unique-class", "conflict"])
    def test_first_error_in_item_and_event_order(self, x_statements, message):
        # item y fails too, and comes first in the body, but x sorts first
        refs = ReferenceClassTable(entries=(
            ("n1", "G", ProbInterval(0.1, 0.2)), ("s1", "G", ProbInterval(0.3, 0.4)),
            ("n2", "H", ProbInterval(0.5, 0.6)), ("s2", "H", ProbInterval(0.7, 0.8)),
        ))
        body = BodyOfKnowledge(0, 0.0, (
            Statement.membership("y1", "y", "n2"), Statement.membership("y2", "y", "s2"),
        ) + x_statements)
        with pytest.raises(ValueError) as exc_info:
            level_from_body(body, jerry_problem(), refs)
        assert str(exc_info.value) == message
        with pytest.raises(ValueError) as exc_info:
            oracle_level(body, jerry_problem(), refs)
        assert str(exc_info.value) == message

    def test_equal_copy_of_a_statement_is_resolved_afresh(self):
        # the copy equals the original but for the sign of a zero, so
        # the second body is no extension of the first
        refs = ReferenceClassTable()
        member = Statement.membership("m", "i", "c")
        first = Statement.class_frequency("f", "c", "G", ProbInterval(0.0, 0.5))
        copy = Statement.class_frequency("f", "c", "G", ProbInterval(-0.0, 0.5))
        assert copy == first
        bodies = [BodyOfKnowledge(0, 0.0, (first, member)),
                  BodyOfKnowledge(1, 0.1, (copy, member))]
        seq = sequence_from_bodies(bodies, jerry_problem(), refs)
        assert math.copysign(1.0, seq.levels[1].assignments["a1"]["G"].lo) == -1.0

    def test_reordered_old_statements_are_resolved_afresh(self):
        # the second body holds every statement of the first, but lists
        # the -0.0 bound first, so its merged bound keeps that sign
        minus = Statement.event_interval("a", "G", ProbInterval(-0.0, 0.25))
        plus = Statement.event_interval("b", "G", ProbInterval(0.0, 0.25))
        member = Statement.membership("m", "i", "c")
        bodies = [BodyOfKnowledge(0, 0.0, (plus, minus)),
                  BodyOfKnowledge(1, 0.1, (minus, plus, member))]
        seq = sequence_from_bodies(bodies, jerry_problem())
        assert sequence_bytes(seq) == sequence_bytes(
            oracle_sequence(bodies, jerry_problem()))
        assert [math.copysign(1.0, lvl.assignments["a1"]["G"].lo)
                for lvl in seq.levels] == [1.0, -1.0]

    def test_order_closed_once_per_document(self, monkeypatch):
        calls = {"close": 0, "with_entries": 0, "copy": 0}
        reach_map = knowledge._reach_map
        with_entries = ReferenceClassTable.with_entries

        def counted_reach_map(pairs):
            calls["close"] += 1
            return reach_map(pairs)

        def counted_with_entries(self, extra):
            calls["with_entries"] += 1
            return with_entries(self, extra)

        def counted_copy(obj):
            calls["copy"] += 1
            return copy.copy(obj)

        monkeypatch.setattr(knowledge, "_reach_map", counted_reach_map)
        monkeypatch.setattr(ReferenceClassTable, "with_entries", counted_with_entries)
        monkeypatch.setattr(knowledge, "copy", SimpleNamespace(copy=counted_copy))
        seq = loads(json.dumps(chain_document(12))).build_sequence()
        assert len(seq.levels) == 25
        # one fresh start, at body 0, which adds no frequency: body 1's
        # frequency makes the working table and no later body copies it
        assert calls == {"close": 1, "with_entries": 1, "copy": 1}

    @pytest.mark.parametrize("with_refs", [True, False], ids=["doc-refs", "empty"])
    @pytest.mark.parametrize("rule", ["next-most-probable", "threshold"])
    def test_base_table_never_grows(self, rule, with_refs):
        data = chain_document(6)
        data["acceptance"] = {"rule": rule}
        if rule == "threshold":
            data["acceptance"]["error_levels"] = [0.005, 0.01, 0.02, 0.05]
        if with_refs:
            data["reference_classes"]["entries"] = [
                {"class": "c0", "event": "E", "interval": [0.2, 1.0]},
                {"class": "c9", "event": "E", "interval": [0.0, 1.0]}]
        else:
            # with no order the classes are incomparable: x joins c0 only
            del data["reference_classes"]
            data["statements"] = [s for s in data["statements"]
                                  if s["kind"] != "membership" or s["id"] == "m0"]
        doc = loads(json.dumps(data))
        base = doc.refs
        assert (base is knowledge.EMPTY_TABLE) is not with_refs
        entries, freqs = base.entries, dict(base._freqs)
        seq = doc.build_sequence()
        assert len(seq.levels) > 2
        assert base.entries == entries and base._freqs == freqs
        assert knowledge.EMPTY_TABLE.entries == ()
        assert knowledge.EMPTY_TABLE._freqs == {}

    @staticmethod
    def reaches(obj, target, seen=None) -> bool:
        """Whether target is obj or lies in its containers, its fields
        or, for an error, its args."""
        seen = set() if seen is None else seen
        if obj is target:
            return True
        if id(obj) in seen or isinstance(obj, (str, int, float, type(None))):
            return False
        seen.add(id(obj))
        if isinstance(obj, dict):
            parts = [*obj.keys(), *obj.values()]
        elif isinstance(obj, (list, tuple, set, frozenset)):
            parts = list(obj)
        elif isinstance(obj, BaseException):
            parts = [obj.args, vars(obj)]
        else:
            parts = list(getattr(obj, "__dict__", {}).values())
        return any(TestIncrementalResolution.reaches(p, target, seen) for p in parts)

    def test_resolver_reused_after_conflicting_frequencies(self):
        # body 2 adds two frequencies for one pair; the first lands in
        # the working table before the second raises, and the resolver
        # must not carry it into the next sequence
        refs = ReferenceClassTable(specificity=frozenset({("c", "d")}))
        fd = Statement.class_frequency("fd", "d", "G", ProbInterval(0.2, 0.9), 0.99)
        md = Statement.membership("md", "i", "d", 0.99)
        fc1 = Statement.class_frequency("fc1", "c", "G", ProbInterval(0.1, 0.2), 0.95)
        fc2 = Statement.class_frequency("fc2", "c", "G", ProbInterval(0.5, 0.6), 0.95)
        mc = Statement.membership("mc", "i", "c", 0.95)
        problem = jerry_problem()
        resolver = knowledge._Resolver(problem, refs)
        failing = accept_threshold([fd, md, fc1, fc2], [0.02, 0.1])
        for body in failing[:2]:
            level_from_body(body, problem, refs, resolver=resolver)
        with pytest.raises(ValueError, match="^class 'c' has two different") as caught:
            level_from_body(failing[2], problem, refs, resolver=resolver)
        working, made = [resolver.table], [caught.value]
        for bodies in (accept_threshold([fd, md, fc2, mc], [0.02, 0.1]),
                       accept_next_most_probable([fd, md, fc2, mc])):
            got = CredalSequence(tuple(
                level_from_body(body, problem, refs, resolver=resolver)
                for body in bodies))
            assert sequence_bytes(got) == sequence_bytes(
                oracle_sequence(bodies, problem, refs))
            assert got.levels[-1].assignments["a1"]["G"] == ProbInterval(0.5, 0.6)
            working.append(resolver.table)
            made.append(got)
        assert refs.entries == () and refs._freqs == {}
        # a working table per run, and none reaches a level or the error
        assert len({id(table) for table in working}) == 3
        assert all(table is not refs for table in working)
        assert not any(self.reaches(obj, table) for obj in made for table in working)
