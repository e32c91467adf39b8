"""Shared oracles and generators for the test suite.

The expected-utility oracle enumerates the vertices of the feasible
polytope {p : lo <= p <= hi, sum p = 1} directly: every vertex has at
most one coordinate strictly between its bounds, so fixing all but one
coordinate at a bound and solving for the free one visits every vertex.

The maximal-set, regret, leximin, nesting and closure oracles compute
straight from their definitions, pair by pair, and check the one-pass
runtime code.  The leximin oracle scans the acts and compares each
challenger with the best so far, where the runtime pads every sorted
vector to one length and takes one max.  The nesting oracle compares
every pair of levels that apply_level rebuilt, where is_nested reads
each level's bounds without building an act and compares neighbours.
The apply_level oracle rebuilds every act, where the runtime passes
acts with no box and outcomes a box does not name through.  The
explore oracle rebuilds every act and computes every expected utility
afresh on every level.  The runtime has one evaluation path for a
level, eu_all(problem, level.assignments): it builds no act, reads each
boxed act's bounds from its box and its allocation orders from the act,
and computes an act with no box once.

The resolution oracle resolves every body of knowledge on its own:
it closes the specificity order by a fixed-point scan for each
inference, merges each event's statements again, and finds the most
specific reference class pair by pair.  The runtime closes the order
once and resolves nested bodies incrementally.  The acceptance oracles
build every next-most-probable and threshold body from scratch, where
the runtime builds both rules' bodies in one walk that checks each
statement once.  event_corpus is the event-interval corpus whose bodies
the acceptance memory guard measures.

The interval-check oracle runs every endpoint check in one function,
where the runtime splits them between Interval and ProbInterval, and
the parser passes two ordered floats in [0, 1] with one comparison.  The
statement-parsing oracle checks every key and then lets Statement check
its fields again, where the parser runs Statement's checks only when
they would raise.

The discount-threshold oracle bisects the pooled belief between the
two ends, where the runtime solves the line that the belief's numerator
and normaliser make in the rate.

The binomial tail oracles sum the probability mass term by term from
log-gamma binomial coefficients, O(n) work per tail, and check the
incomplete-beta tails and the Clopper-Pearson endpoints built on them.
The falling binomial cdf oracle takes the incomplete beta of 1 - p
itself, where the runtime reads P[X <= k] as the survival function of
the failures.
The continued-fraction oracle runs the Lentz step as a loop over its
two partial numerators, where the runtime writes them out; the point
expected-utility and starr oracles build a generator per check and a
name-keyed dict of scores per grid point, where the runtime keeps a
list.  Each pair agrees to the bit.

levels_document writes a resolved credal sequence back as a levels-form
problem file, one override box per act and level, so that the two
paths to a sequence can be compared.

perfbench_module reads a file of the benchmark, which is no package, by
path, and seeded_pool gives the documents its generator plans for a
decide workload, so that tests can run the benchmark's own inputs.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import sys
import types
from pathlib import Path

from hypothesis import strategies as st

from credalbox import (
    CERTAIN,
    DECIDED,
    IMPOSSIBLE,
    NO_MANDATE,
    RISK_PROBLEM,
    Act,
    BodyOfKnowledge,
    ConflictingConstraintError,
    CredalLevel,
    CredalSequence,
    DecisionProblem,
    DecisionReport,
    FeasibilityError,
    InconsistentBodyError,
    InfeasibleLevelError,
    NoUniqueReferenceClassError,
    Outcome,
    ProbInterval,
    ReferenceClassTable,
    Statement,
    ToleranceSpec,
    TraceRow,
    apply_level,
    bel,
    dempster_combine,
    discount,
    dominates,
    eu_interval,
    intersect,
    tolerable_error,
)
from credalbox import confidence
from credalbox.expectation import _check_feasible
from credalbox.knowledge import EMPTY_TABLE
from credalbox.problem_io import (
    _as_mapping,
    _built,
    _fail,
    _get,
    _interval,
    _number,
    _string,
)

TOL = 1e-9


def outcome(run):
    """run's result, or the ValueError's type and text."""
    try:
        return run()
    except ValueError as exc:
        return type(exc), str(exc)


def close(got: float, want: float, tol: float = TOL) -> bool:
    return abs(got - want) <= tol


def interval_close(iv, lo: float, hi: float, tol: float = TOL) -> bool:
    return abs(iv.lo - lo) <= tol and abs(iv.hi - hi) <= tol


def vertex_distributions(lows, highs):
    """Extreme points of the box-constrained probability simplex slice."""
    n = len(lows)
    vertices = []
    for free in range(n):
        others = [i for i in range(n) if i != free]
        for bits in itertools.product((0, 1), repeat=n - 1):
            p = [0.0] * n
            for idx, bit in zip(others, bits):
                p[idx] = highs[idx] if bit else lows[idx]
            rest = 1.0 - math.fsum(p[i] for i in others)
            # the window absorbs float noise; the clamp restores the bound
            if lows[free] - 1e-12 <= rest <= highs[free] + 1e-12:
                p[free] = min(max(rest, lows[free]), highs[free])
                vertices.append(tuple(p))
    return vertices


def vertex_eu_bounds(utils, lows, highs):
    """Oracle inf/sup of expected utility, by vertex enumeration."""
    vertices = vertex_distributions(lows, highs)
    values = [
        math.fsum(p * u for p, u in zip(vertex, utils))
        for vertex in vertices
    ]
    return min(values), max(values), vertices


def random_box(rng: random.Random, n: int):
    """A feasible probability box built around a random anchor
    distribution; the anchor always satisfies the box."""
    raw = [rng.random() + 1e-3 for _ in range(n)]
    total = math.fsum(raw)
    anchor = [x / total for x in raw]
    lows = [max(0.0, p * rng.random()) for p in anchor]
    highs = [min(1.0, p + (1.0 - p) * rng.random()) for p in anchor]
    return lows, highs, anchor


def random_act(rng: random.Random, name: str = "a",
               n_min: int = 2, n_max: int = 5) -> Act:
    n = rng.randint(n_min, n_max)
    lows, highs, _ = random_box(rng, n)
    return Act(name, tuple(
        Outcome(f"o{i}", rng.uniform(-50.0, 50.0), ProbInterval(lows[i], highs[i]))
        for i in range(n)
    ))


@st.composite
def feasible_boxes(draw, n_min: int = 2, n_max: int = 5):
    """(lows, highs) with sum(lows) <= 1 <= sum(highs) by construction."""
    n = draw(st.integers(n_min, n_max))
    weights = draw(st.lists(
        st.floats(0.01, 1.0, allow_nan=False), min_size=n, max_size=n))
    total = math.fsum(weights)
    anchor = [w / total for w in weights]
    lo_frac = draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n))
    hi_frac = draw(st.lists(
        st.floats(0.0, 1.0, allow_nan=False), min_size=n, max_size=n))
    lows = [max(0.0, p * f) for p, f in zip(anchor, lo_frac)]
    highs = [min(1.0, p + (1.0 - p) * f) for p, f in zip(anchor, hi_frac)]
    return lows, highs


@st.composite
def feasible_acts(draw, name: str = "a", n_min: int = 2, n_max: int = 5):
    lows, highs = draw(feasible_boxes(n_min, n_max))
    utils = draw(st.lists(
        st.floats(-50.0, 50.0, allow_nan=False),
        min_size=len(lows), max_size=len(lows)))
    return Act(name, tuple(
        Outcome(f"o{i}", u, ProbInterval(lo, hi))
        for i, (u, lo, hi) in enumerate(zip(utils, lows, highs))
    ))


def prob_intervals():
    """Strategy for arbitrary probability intervals."""
    return st.tuples(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(0.0, 1.0, allow_nan=False),
    ).map(lambda pair: ProbInterval(min(pair), max(pair)))


def utility_intervals(span: float = 100.0):
    from credalbox import Interval

    return st.tuples(
        st.floats(-span, span, allow_nan=False),
        st.floats(-span, span, allow_nan=False),
    ).map(lambda pair: Interval(min(pair), max(pair)))


def int_intervals(span: int = 100):
    """Intervals with integer endpoints: argmax and tie-break properties
    stay decidable because all the score arithmetic is exact."""
    from credalbox import Interval

    return st.tuples(
        st.integers(-span, span), st.integers(-span, span),
    ).map(lambda pair: Interval(float(min(pair)), float(max(pair))))


def pairwise_maximal_set(eu):
    """Oracle: acts no other act strictly dominates, tested pair by pair."""
    return tuple(
        a for a in eu
        if not any(dominates(eu[b], eu[a]) for b in eu if b != a)
    )


def pairwise_worst_case_regrets(eu):
    """Oracle worst-case regrets: each act's best rival found by scanning
    every other act."""
    out = {}
    for a in eu:
        rivals = [eu[b].hi for b in eu if b != a]
        out[a] = max(0.0, max(rivals) - eu[a].lo) if rivals else 0.0
    return out


def oracle_leximin(problem, acts=None) -> str:
    """Oracle leximin: a scan in problem order that keeps the best act so
    far unless a challenger strictly beats it, comparing each pair's
    sorted utilities worst first, the shorter vector read as if its last
    (best) value repeated forever."""
    def beats(a_utils, b_utils):
        va, vb = sorted(a_utils), sorted(b_utils)
        for i in range(max(len(va), len(vb))):
            x = va[min(i, len(va) - 1)]
            y = vb[min(i, len(vb) - 1)]
            if x != y:
                return x > y
        return False

    wanted = None if acts is None else set(acts)
    candidates = [a for a in problem.acts if wanted is None or a.name in wanted]
    if not candidates:
        raise ValueError("no acts to rank")
    best = candidates[0]
    for challenger in candidates[1:]:
        if beats([o.utility for o in challenger.outcomes],
                 [o.utility for o in best.outcomes]):
            best = challenger
    return best.name


def rebuild_every_act(problem, level):
    """Oracle for apply_level, and for eu_all over a level's boxes: every
    act and outcome built afresh, with the level's interval where it has
    one and the declared one otherwise.  Unknown names raise as
    apply_level raises them."""
    where = f"level {level.index} assigns to"
    labels = {act.name: act.labels() for act in problem.acts}
    for name, box in level.assignments.items():
        if name not in labels:
            raise ValueError(f"{where} unknown act {name!r}")
        for label in box:
            if label not in labels[name]:
                raise ValueError(f"{where} unknown outcome {label!r} of act {name!r}")
    return DecisionProblem(problem.name, tuple(
        Act(act.name, tuple(
            Outcome(o.label, o.utility,
                    level.assignments.get(act.name, {}).get(o.label, o.prob))
            for o in act.outcomes
        ))
        for act in problem.acts
    ))


def oracle_explore(problem, seq, spec=None) -> DecisionReport:
    """Oracle for explore: every act rebuilt and every expected utility
    computed afresh on every level, and dominance tested pair by pair."""
    spec = spec if spec is not None else ToleranceSpec.explicit(1.0)
    tolerance = tolerable_error(problem, spec)
    trace = []
    for level in seq.levels:
        if level.error >= tolerance:
            break
        try:
            effective = rebuild_every_act(problem, level)
        except FeasibilityError as exc:
            raise InfeasibleLevelError(
                f"level {level.index} (error {level.error:g}): {exc}") from exc
        eu = {act.name: eu_interval(act) for act in effective.acts}
        surviving = pairwise_maximal_set(eu)
        trace.append(TraceRow(level.index, level.error, eu, surviving))
        common = dict(problem=problem.name, tolerance=tolerance,
                      level_used=level.index, error_used=level.error, trace=trace)
        if len(surviving) == 1:
            return DecisionReport(status=DECIDED, act=surviving[0], **common)
        if all(o.prob.lo == o.prob.hi for act in effective.acts for o in act.outcomes):
            best = max(eu, key=lambda name: eu[name].lo)
            return DecisionReport(status=RISK_PROBLEM, act=best, ambiguous=True,
                                  **common)
    return DecisionReport(problem=problem.name, status=NO_MANDATE,
                          tolerance=tolerance, trace=trace)


def all_pairs_nested(seq, problem) -> bool:
    """Oracle: every later level's boxes sit inside every earlier one's,
    tested for every pair of levels."""
    resolved = [apply_level(problem, level) for level in seq.levels]
    for later in range(len(resolved)):
        for earlier in range(later):
            for act_late, act_early in zip(resolved[later].acts,
                                           resolved[earlier].acts):
                for o_late, o_early in zip(act_late.outcomes, act_early.outcomes):
                    if (o_late.prob.lo < o_early.prob.lo
                            or o_late.prob.hi > o_early.prob.hi):
                        return False
    return True


def fixed_point_closure(pairs) -> frozenset:
    """Oracle: transitive closure by repeating an all-pairs scan until
    nothing is added."""
    closure = set(pairs)
    grew = True
    while grew:
        grew = False
        for a, b in list(closure):
            for c, d in list(closure):
                if b == c and (a, d) not in closure:
                    closure.add((a, d))
                    grew = True
    return frozenset(closure)


def pairwise_direct_inference(item, event, classes, table) -> ProbInterval:
    """Oracle direct inference: a class is most specific when no other
    accepted class is more specific in the order closed afresh, tested
    pair by pair."""
    closed = fixed_point_closure(table.specificity)
    classes = sorted(classes)
    most_specific = [
        c for c in classes
        if not any((d, c) in closed for d in classes if d != c)
    ]
    answers = {table.freq(c, event) for c in most_specific}
    if len(answers) > 1:
        culprits = ", ".join(repr(c) for c in most_specific)
        raise NoUniqueReferenceClassError(
            f"incomparable reference classes {culprits} disagree about {event!r}"
        )
    return next(iter(answers))


def oracle_level(body, problem, refs=EMPTY_TABLE, extra=None) -> CredalLevel:
    """Oracle for level_from_body: the body resolved on its own, with a
    table closed afresh and item by item, event by event inference."""
    table = ReferenceClassTable(refs.entries + tuple(
        (s.cls, s.event, s.interval)
        for s in body.statements if s.kind == "class-frequency"
    ), refs.specificity)
    constraints = {}
    for s in body.statements:
        if s.kind in ("event-interval", "condition"):
            iv = s.interval if s.kind == "event-interval" else (
                CERTAIN if s.value else IMPOSSIBLE)
            # a body's own statements always meet
            constraints[s.event] = (intersect(constraints[s.event], iv)
                                    if s.event in constraints else iv)
    memberships = {}
    for s in body.statements:
        if s.kind == "membership":
            memberships.setdefault(s.item, set()).add(s.cls)
    for item in sorted(memberships):
        classes = memberships[item]
        for event in sorted({e for c, e, _ in table.entries if c in classes}):
            usable = {c for c in classes if table.freq(c, event) is not None}
            iv = pairwise_direct_inference(item, event, usable, table)
            merged = intersect(constraints[event], iv) if event in constraints else iv
            if merged is None:
                raise ConflictingConstraintError(
                    f"body {body.index}: direct inference for item {item!r} "
                    f"leaves no probability for event {event!r}"
                )
            constraints[event] = merged

    extra = extra or {}
    where = f"body {body.index}: asserted interval for"
    labels_of = {act.name: act.labels() for act in problem.acts}
    for act_name, box in extra.items():
        if act_name not in labels_of:
            raise ValueError(f"{where} unknown act {act_name!r}")
        for label in box:
            if label not in labels_of[act_name]:
                raise ValueError(
                    f"{where} unknown outcome {label!r} of act {act_name!r}")
    assignments = {}
    for act in problem.acts:
        over = {o.label: constraints[o.label]
                for o in act.outcomes if o.label in constraints}
        if len(act.outcomes) == 2:
            first, second = act.outcomes
            forced = [(other.label, over[mine.label].complement())
                      for mine, other in ((first, second), (second, first))
                      if mine.label in over]
            for label, comp in forced:
                merged = intersect(over[label], comp) if label in over else comp
                if merged is None:
                    raise ConflictingConstraintError(
                        f"body {body.index}: constraints on {first.label!r} "
                        f"and {second.label!r} of act {act.name!r} conflict"
                    )
                over[label] = merged
        for label, iv in extra.get(act.name, {}).items():
            merged = intersect(over[label], iv) if label in over else iv
            if merged is None:
                raise ConflictingConstraintError(
                    f"body {body.index}: asserted interval for outcome "
                    f"{label!r} of act {act.name!r} conflicts with the "
                    f"statement-derived bounds"
                )
            over[label] = merged
        if over:
            try:
                _check_feasible(act.name,
                                [over.get(o.label, o.prob).lo for o in act.outcomes],
                                [over.get(o.label, o.prob).hi for o in act.outcomes])
            except FeasibilityError as exc:
                raise FeasibilityError(f"body {body.index}: {exc}") from exc
            assignments[act.name] = over
    return CredalLevel(index=body.index, error=body.error, assignments=assignments)


def oracle_sequence(bodies, problem, refs=EMPTY_TABLE) -> CredalSequence:
    """Oracle for sequence_from_bodies: every body resolved on its own."""
    return CredalSequence(tuple(oracle_level(b, problem, refs) for b in bodies))


def oracle_accept_next_most_probable(statements) -> list:
    """Oracle for accept_next_most_probable: each body built from scratch."""
    ordered = sorted(statements, key=lambda s: -s.prob)
    bodies = [BodyOfKnowledge(0, 0.0, ())]
    error = 0.0
    for j in range(1, len(ordered) + 1):
        error = max(error, 1.0 - ordered[j - 1].prob)
        try:
            bodies.append(BodyOfKnowledge(j, error, tuple(ordered[:j])))
        except InconsistentBodyError as exc:
            raise InconsistentBodyError(f"body {j}: {exc}") from exc
    return bodies


def oracle_accept_threshold(statements, error_levels) -> list:
    """Oracle for accept_threshold: each body built from scratch out of
    the statements below its level, most probable first, ties in corpus
    order."""
    ranked = sorted(statements, key=lambda s: -s.prob)
    bodies = [BodyOfKnowledge(0, 0.0, ())]
    for j, eps in enumerate(error_levels, start=1):
        filtered = tuple(s for s in ranked if 1.0 - s.prob < eps)
        try:
            bodies.append(BodyOfKnowledge(j, eps, filtered))
        except InconsistentBodyError as exc:
            raise InconsistentBodyError(f"body {j} at error level {eps}: {exc}") from exc
    return bodies


def event_corpus(n: int) -> list:
    """n event-interval statements for next-most-probable acceptance:
    s{i} bounds event E{i} to [0.1, 0.9] with credence 1 - (i+1)/(10n),
    so body j holds j statements on j distinct events."""
    iv = ProbInterval(0.1, 0.9)
    return [Statement.event_interval(f"s{i}", f"E{i}", iv, 1.0 - (i + 1) / (10 * n))
            for i in range(n)]


def full_interval_checks(lo, hi, prob: bool) -> None:
    """Oracle for Interval (prob False) and ProbInterval (prob True)
    construction: every endpoint check, in order."""
    if math.isnan(lo) or math.isnan(hi):
        raise ValueError("interval endpoints must not be NaN")
    if lo > hi:
        raise ValueError(f"lower endpoint {lo!r} exceeds upper endpoint {hi!r}")
    if prob and (lo < 0.0 or hi > 1.0):
        raise ValueError(f"probability interval [{lo!r}, {hi!r}] escapes [0, 1]")


def oracle_parse_statement(data, fallback_id: str) -> Statement:
    """Oracle for problem_io._parse_statement: every check, in order,
    then Statement's own checks again.  A failure raises the parser's
    path-carrying error."""
    obj = _as_mapping(data, "", {"id", "kind", "prob", "event", "interval",
                                 "value", "item", "class"})
    kind = _string(_get(obj, "kind", ""), ".kind")
    sid = obj["id"] if "id" in obj else fallback_id
    if not isinstance(sid, str) or not sid:
        _fail(".id", "expected a non-empty string")
    prob = _number(obj.get("prob", 1.0), ".prob", 0.0, 1.0)
    kwargs = {}
    if "event" in obj:
        kwargs["event"] = _string(obj["event"], ".event")
    if "interval" in obj:
        kwargs["interval"] = _interval(obj["interval"], ".interval")
    if "value" in obj:
        if not isinstance(obj["value"], bool):
            _fail(".value", "expected true or false")
        kwargs["value"] = obj["value"]
    if "item" in obj:
        kwargs["item"] = _string(obj["item"], ".item")
    if "class" in obj:
        kwargs["cls"] = _string(obj["class"], ".class")
    return _built("", Statement, id=sid, kind=kind, prob=prob, **kwargs)


def chain_document(n: int) -> dict:
    """A next-most-probable problem file over a chain of n reference
    classes, c{k+1} more specific than c{k}.  Item x belongs to every
    class and the frequency of E narrows around 0.6 towards the specific
    end.  Credence falls with specificity, frequency before membership,
    so each of the 2n + 1 bodies accepts one statement more, and each
    membership makes a more specific class replace the answer.  Betting
    on E pays 10 or loses 5, so it beats passing once the accepted
    class's lower bound exceeds 1/3; for n = 12 that is c5, whose
    membership body 12 accepts at error 0.022."""
    statements = []
    for k in range(n):
        half = 0.4 * (n - k) / n
        statements.append({"id": f"f{k}", "kind": "class-frequency",
                           "class": f"c{k}", "event": "E",
                           "interval": [round(0.6 - half, 9), round(0.6 + half, 9)],
                           "prob": round(1.0 - 0.004 * k, 9)})
        statements.append({"id": f"m{k}", "kind": "membership", "item": "x",
                           "class": f"c{k}", "prob": round(0.998 - 0.004 * k, 9)})
    return {
        "problem": f"chain-{n}",
        "acts": [
            {"name": "bet", "outcomes": [{"label": "E", "utility": 10.0},
                                         {"label": "not-E", "utility": -5.0}]},
            {"name": "pass", "outcomes": [{"label": "none", "utility": 0.0}]},
        ],
        "tolerance": {"mode": "explicit", "max_error": 0.05},
        "statements": statements,
        "acceptance": {"rule": "next-most-probable"},
        "reference_classes": {
            "specificity": [[f"c{k + 1}", f"c{k}"] for k in range(n - 1)],
        },
    }


def levels_document(raw: dict, seq: CredalSequence) -> dict:
    """The levels form of the problem file raw, whose resolved credal
    sequence is seq: the same problem, acts and tolerance, and for each
    level its error and its boxes as overrides, each interval a [lo, hi]
    list."""
    out = {key: raw[key] for key in ("problem", "acts", "tolerance") if key in raw}
    out["levels"] = [
        {"error": level.error,
         "overrides": {act: {label: [iv.lo, iv.hi] for label, iv in box.items()}
                       for act, box in level.assignments.items()}}
        for level in seq.levels]
    return out


def binomial_tail_sum(n: int, p: float, support: range) -> float:
    """Oracle: Binomial(n, p) mass on support, summed term by term from
    log-gamma coefficients; p must lie strictly inside (0, 1)."""
    log_p = math.log(p)
    log_q = math.log1p(-p)
    lg_n = math.lgamma(n + 1)
    total = math.fsum(
        math.exp(lg_n - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                 + i * log_p + (n - i) * log_q)
        for i in support
    )
    return min(1.0, total)


def oracle_binomial_cdf(k: int, n: int, p: float) -> float:
    """Oracle P[X <= k] for p strictly inside (0, 1)."""
    return binomial_tail_sum(n, p, range(0, min(k, n) + 1))


def oracle_binomial_sf(k: int, n: int, p: float) -> float:
    """Oracle P[X >= k] for p strictly inside (0, 1)."""
    return binomial_tail_sum(n, p, range(max(k, 0), n + 1))


def falling_binomial_cdf(k: int, n: int, p: float) -> float:
    """Oracle: P[X <= k] as its own incomplete beta I_{1-p}(n-k, k+1),
    with its own edge cases and its own guard for p <= 2**-54, where
    1 - p rounds to 1.0.  The runtime takes the survival function of the
    failures at 1 - p instead, and the two agree to the bit."""
    if n < 1:
        raise ValueError(f"n must be at least 1, got {n!r}")
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p!r}")
    if k < 0:
        return 0.0
    if k >= n:
        return 1.0
    if p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    if 1.0 - p == 1.0:
        return 1.0
    return min(1.0, confidence._betai(n - k, k + 1, 1.0 - p))


def oracle_clopper_pearson(x: int, n: int, confidence: float,
                           tol: float) -> tuple[float, float]:
    """Oracle equal-tail endpoints: each oracle tail bisected on [0, 1]
    until the bracket is narrower than tol."""
    tail = (1.0 - confidence) / 2.0

    def root(fn, increasing):
        lo, hi = 0.0, 1.0
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if (fn(mid) < tail) == increasing:
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    lo = 0.0 if x == 0 else root(
        lambda p: oracle_binomial_sf(x, n, p), increasing=True)
    hi = 1.0 if x == n else root(
        lambda p: oracle_binomial_cdf(x, n, p), increasing=False)
    return lo, hi


def oracle_bisect(fn, target: float, increasing: bool, tol: float) -> float:
    """Oracle: plain bisection of fn, monotone on [0, 1] in the given
    direction, every midpoint evaluated, until the bracket is narrower
    than tol."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if (fn(mid) < target) == increasing:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def oracle_discount_threshold(fixed, discounted, event, target: float) -> float:
    """Oracle: the discount rate at which the combined belief in the
    event crosses target, by bisecting the belief to 1e-9 in the
    direction it moves between the two ends.  The runtime solves the
    line the belief's numerator and normaliser make instead."""
    if not 0.0 <= target <= 1.0:
        raise ValueError(f"target must lie in [0, 1], got {target!r}")

    def belief_at(rate: float) -> float:
        return bel(dempster_combine(fixed, discount(discounted, rate)), event)

    at0, at1 = belief_at(0.0), belief_at(1.0)
    if abs(at0 - target) <= 1e-12:
        return 0.0
    if abs(at1 - target) <= 1e-12:
        return 1.0
    if not (min(at0, at1) <= target <= max(at0, at1)):
        raise ValueError(
            f"target {target!r} is outside the reachable beliefs "
            f"[{min(at0, at1):.9g}, {max(at0, at1):.9g}]"
        )
    return oracle_bisect(belief_at, target, at1 > at0, 1e-9)


def oracle_betacf(a: float, b: float, x: float) -> float:
    """Oracle: the Lentz continued fraction as a loop over the even and
    the odd partial numerator of each step.  The runtime writes the two
    out in sequence, with the same expressions in the same order, so
    the two agree to the bit."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < confidence._CF_TINY:
        d = confidence._CF_TINY
    d = 1.0 / d
    h = d
    for m in range(1, confidence._CF_MAX_STEPS + 1):
        m2 = 2 * m
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < confidence._CF_TINY:
                d = confidence._CF_TINY
            c = 1.0 + aa / c
            if abs(c) < confidence._CF_TINY:
                c = confidence._CF_TINY
            d = 1.0 / d
            step = d * c
            h *= step
        if abs(step - 1.0) < confidence._CF_EPS:
            return h
    raise ValueError(
        f"incomplete beta I_{x!r}({a!r}, {b!r}) did not converge "
        f"in {confidence._CF_MAX_STEPS} steps"
    )


def oracle_point_eu(utils, probs, act: str) -> float:
    """Oracle: one act's point expected utility, its negative check a
    generator over every entry and its sum taken from a generator."""
    if len(utils) != len(probs):
        raise ValueError(
            f"act {act!r}: {len(probs)} probabilities for {len(utils)} outcomes"
        )
    try:
        total = math.fsum(probs)
    except ValueError:  # inf + -inf
        total = math.nan
    if not abs(total - 1.0) <= 1e-9:
        if not all(map(math.isfinite, probs)):
            raise ValueError(f"act {act!r}: probabilities must be finite numbers")
        raise ValueError(f"act {act!r}: probabilities sum to {total!r}, not 1")
    if any(p < 0.0 for p in probs):
        raise ValueError(f"act {act!r}: negative probability")
    return math.fsum(p * u for p, u in zip(probs, utils))


def oracle_higher_order_eu(problem, credal) -> dict:
    """Oracle: higher_order_eu over oracle_point_eu."""
    out = {}
    for act in problem.acts:
        utils = [o.utility for o in act.outcomes]
        terms = []
        for assignment, weight in credal.members:
            if act.name not in assignment:
                raise ValueError(f"a member assigns nothing to act {act.name!r}")
            terms.append(weight * oracle_point_eu(utils, assignment[act.name],
                                                  act.name))
        out[act.name] = math.fsum(terms)
    return out


def oracle_starr(problem, credal):
    """Oracle: starr with a name-keyed dict of scores per grid point and
    every grid point's winners split share / len(winners), where the
    runtime keeps a list of scores and adds share whole to a sole winner."""
    span = credal.hi - credal.lo
    step = span / credal.resolution
    share = 1.0 / credal.resolution
    measures = {act.name: 0.0 for act in problem.acts}
    utils = {act.name: [o.utility for o in act.outcomes] for act in problem.acts}
    for k in range(credal.resolution):
        theta = credal.lo + (k + 0.5) * step
        assignment = credal.mapping(theta)
        scores = {}
        for act in problem.acts:
            if act.name not in assignment:
                raise ValueError(
                    f"parameter {theta!r}: no distribution for act {act.name!r}"
                )
            scores[act.name] = oracle_point_eu(utils[act.name],
                                               assignment[act.name], act.name)
        best = max(scores.values())
        winners = [name for name, value in scores.items() if value == best]
        for name in winners:
            measures[name] += share / len(winners)
    winner = max(measures, key=lambda name: measures[name])
    return winner, measures


PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def perfbench_module(name: str) -> types.ModuleType:
    """perfbench/<name>.py as a module, read without writing a bytecode
    file next to it."""
    path = PERFBENCH / f"{name}.py"
    module = types.ModuleType(f"perfbench_{name}")
    # dataclasses look the defining module up in sys.modules
    sys.modules[module.__name__] = module
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
             module.__dict__)
    finally:
        del sys.modules[module.__name__]
    return module


@functools.cache
def _pool_text(workload: str, seed: int) -> str:
    return json.dumps(perfbench_module("gen").plan(workload, seed))


def seeded_pool(workload: str, seed: int = 1) -> list:
    """The documents (or stats-tools op specs) perfbench/gen.py plans for
    the workload at seed, as the benchmark's worker reads them back from
    JSON; a fresh copy on every call, free to mutate."""
    return json.loads(_pool_text(workload, seed))
