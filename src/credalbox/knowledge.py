"""Accepted statements, error-indexed bodies of knowledge, and the credal
levels they induce on a decision problem.

A body of knowledge collects the statements an agent is willing to treat
as settled at a given risk of error.  Two rules build bodies from an
initial corpus: a threshold rule (accept everything whose improbability
stays below the body's error level) and a next-most-probable rule (grow
the body one statement at a time, most probable first).  A body induces
a credal level by reading its statements as constraints on the outcome
probabilities of a decision problem: interval statements clamp an
event's bounds, accepted conditions pin an event as certain or
impossible, and class memberships trigger direct inference from the
most specific accepted reference class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .expectation import Act, DecisionProblem, FeasibilityError, Outcome, _check_feasible
from .intervals import CERTAIN, IMPOSSIBLE, ProbInterval, intersect


class InconsistentBodyError(ValueError):
    """A body of knowledge contains statements that cannot all hold."""


class ConflictingConstraintError(ValueError):
    """Constraints on the same event have an empty intersection."""


class NoUniqueReferenceClassError(ValueError):
    """Direct inference found no single most specific reference class."""


STATEMENT_KINDS = ("event-interval", "condition", "membership", "class-frequency")


@dataclass(frozen=True)
class Statement:
    """One statement of an initial corpus, with its credence.

    kind selects which fields apply:
      event-interval   -- event, interval
      condition        -- event, value
      membership       -- item, cls
      class-frequency  -- cls, event, interval
    """

    id: str
    kind: str
    prob: float = 1.0
    event: str | None = None
    interval: ProbInterval | None = None
    value: bool = True
    item: str | None = None
    cls: str | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("statement id must be non-empty")
        if self.kind not in STATEMENT_KINDS:
            raise ValueError(f"unknown statement kind {self.kind!r}")
        if not 0.0 <= self.prob <= 1.0:
            raise ValueError(f"statement {self.id!r}: prob must lie in [0, 1]")
        needs = {
            "event-interval": ("event", "interval"),
            "condition": ("event",),
            "membership": ("item", "cls"),
            "class-frequency": ("cls", "event", "interval"),
        }[self.kind]
        for name in needs:
            if getattr(self, name) is None:
                raise ValueError(
                    f"statement {self.id!r} of kind {self.kind!r} needs {name!r}"
                )

    @classmethod
    def event_interval(cls, id: str, event: str, interval: ProbInterval,
                       prob: float = 1.0) -> Statement:
        return cls(id=id, kind="event-interval", prob=prob, event=event,
                   interval=interval)

    @classmethod
    def condition(cls, id: str, event: str, value: bool = True,
                  prob: float = 1.0) -> Statement:
        return cls(id=id, kind="condition", prob=prob, event=event, value=value)

    @classmethod
    def membership(cls, id: str, item: str, in_cls: str,
                   prob: float = 1.0) -> Statement:
        return cls(id=id, kind="membership", prob=prob, item=item, cls=in_cls)

    @classmethod
    def class_frequency(cls, id: str, of_cls: str, event: str,
                        interval: ProbInterval, prob: float = 1.0) -> Statement:
        return cls(id=id, kind="class-frequency", prob=prob, cls=of_cls,
                   event=event, interval=interval)


def _check_statements_consistent(statements: Sequence[Statement]) -> None:
    ids = [s.id for s in statements]
    if len(set(ids)) != len(ids):
        raise InconsistentBodyError("statement ids repeat within one body")
    by_event: dict[str, list[Statement]] = {}
    for s in statements:
        if s.kind in ("event-interval", "condition"):
            by_event.setdefault(s.event, []).append(s)
    for event, group in by_event.items():
        merged: ProbInterval | None = None
        for s in group:
            iv = s.interval if s.kind == "event-interval" else (
                CERTAIN if s.value else IMPOSSIBLE)
            merged = iv if merged is None else intersect(merged, iv)
            if merged is None:
                culprits = ", ".join(repr(t.id) for t in group)
                raise InconsistentBodyError(
                    f"statements {culprits} cannot all hold for event {event!r}"
                )


@dataclass(frozen=True)
class BodyOfKnowledge:
    """Statements accepted at one error level of a nested (or merely
    indexed) family of corpora."""

    index: int
    error: float
    statements: tuple[Statement, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "statements", tuple(self.statements))
        if self.index < 0:
            raise ValueError(f"body index must be non-negative, got {self.index!r}")
        if not 0.0 <= self.error <= 1.0:
            raise ValueError(f"body error must lie in [0, 1], got {self.error!r}")
        _check_statements_consistent(self.statements)


def accept_threshold(statements: Sequence[Statement],
                     error_levels: Sequence[float]) -> list[BodyOfKnowledge]:
    """Bodies K_0..K_m where K_j holds the statements with 1 - prob below
    the j-th error level.  K_0 is always the empty body at error 0."""
    levels = list(error_levels)
    for j, eps in enumerate(levels):
        if not 0.0 < eps <= 1.0:
            raise ValueError(f"error level {eps!r} must lie in (0, 1]")
        if j > 0 and eps <= levels[j - 1]:
            raise ValueError("error levels must be strictly increasing")
    bodies = [BodyOfKnowledge(0, 0.0, ())]
    for j, eps in enumerate(levels, start=1):
        accepted = tuple(s for s in statements if 1.0 - s.prob < eps)
        try:
            bodies.append(BodyOfKnowledge(j, eps, accepted))
        except InconsistentBodyError as exc:
            raise InconsistentBodyError(
                f"body {j} at error level {eps}: {exc}"
            ) from exc
    return bodies


def accept_next_most_probable(statements: Sequence[Statement]) -> list[BodyOfKnowledge]:
    """Bodies K_0..K_n grown one statement at a time, most probable first;
    each body's error is the largest improbability accepted so far."""
    ordered = sorted(statements, key=lambda s: -s.prob)
    bodies = [BodyOfKnowledge(0, 0.0, ())]
    error = 0.0
    accepted: list[Statement] = []
    for j, s in enumerate(ordered, start=1):
        accepted.append(s)
        error = max(error, 1.0 - s.prob)
        try:
            bodies.append(BodyOfKnowledge(j, error, tuple(accepted)))
        except InconsistentBodyError as exc:
            raise InconsistentBodyError(f"body {j}: {exc}") from exc
    return bodies


def _transitive_closure(pairs: frozenset[tuple[str, str]]) -> frozenset[tuple[str, str]]:
    """Warshall's pass: once class k is visited, every class that reaches
    k also reaches everything k reaches."""
    reach: dict[str, set[str]] = {}
    for a, b in pairs:
        reach.setdefault(a, set()).add(b)
    for k in list(reach):
        for out in reach.values():
            if k in out:
                out |= reach[k]
    return frozenset((a, b) for a, out in reach.items() for b in out)


@dataclass(frozen=True)
class ReferenceClassTable:
    """Known class frequencies plus a specificity order between classes.

    entries maps (class, event) pairs to frequency intervals; specificity
    lists (more_specific, less_specific) pairs and is closed under
    transitivity here.
    """

    entries: tuple[tuple[str, str, ProbInterval], ...] = ()
    specificity: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "specificity",
                           _transitive_closure(frozenset(self.specificity)))
        for a, b in self.specificity:
            if a == b:
                # name the smallest class on a cycle, whatever the set order
                first = min(c for c, d in self.specificity if c == d)
                raise ValueError(
                    f"specificity order is cyclic at class {first!r}")
        # the first entry wins, so equal intervals such as -0.0 and 0.0
        # keep the bits they were listed with
        freqs: dict[tuple[str, str], ProbInterval] = {}
        for cls, event, iv in self.entries:
            if freqs.setdefault((cls, event), iv) != iv:
                raise ValueError(
                    f"class {cls!r} has two different frequencies for {event!r}"
                )
        object.__setattr__(self, "_freqs", freqs)

    def freq(self, cls: str, event: str) -> ProbInterval | None:
        return self._freqs.get((cls, event))

    def more_specific(self, a: str, b: str) -> bool:
        return (a, b) in self.specificity

    def with_entries(self, extra: Iterable[tuple[str, str, ProbInterval]]
                     ) -> ReferenceClassTable:
        return ReferenceClassTable(self.entries + tuple(extra), self.specificity)


EMPTY_TABLE = ReferenceClassTable()


def direct_inference(item: str, event: str, accepted_classes: Iterable[str],
                     refs: ReferenceClassTable) -> ProbInterval:
    """Frequency interval from the unique most specific accepted class.

    Every accepted class must carry a frequency for the event.  When the
    most specific classes are incomparable and disagree, there is no
    unique answer and an error is raised.
    """
    classes = sorted(set(accepted_classes))
    if not classes:
        raise NoUniqueReferenceClassError(
            f"no reference class accepted for item {item!r} and event {event!r}"
        )
    missing = [c for c in classes if refs.freq(c, event) is None]
    if missing:
        raise NoUniqueReferenceClassError(
            f"class {missing[0]!r} has no known frequency for event {event!r}"
        )
    most_specific = [
        c for c in classes
        if not any(refs.more_specific(d, c) for d in classes if d != c)
    ]
    answers = {refs.freq(c, event) for c in most_specific}
    if len(answers) > 1:
        culprits = ", ".join(repr(c) for c in most_specific)
        raise NoUniqueReferenceClassError(
            f"incomparable reference classes {culprits} disagree about {event!r}"
        )
    return next(iter(answers))


@dataclass(frozen=True)
class CredalLevel:
    """Per-act probability assignments at one error level.

    assignments maps act name -> outcome label -> interval; outcomes not
    mentioned keep the bounds declared on the problem itself.
    """

    index: int
    error: float
    assignments: Mapping[str, Mapping[str, ProbInterval]] = field(default_factory=dict)

    def __post_init__(self):
        if self.index < 0:
            raise ValueError(f"level index must be non-negative, got {self.index!r}")
        if not 0.0 <= self.error <= 1.0:
            raise ValueError(f"level error must lie in [0, 1], got {self.error!r}")
        frozen = {act: dict(boxes) for act, boxes in self.assignments.items()}
        object.__setattr__(self, "assignments", frozen)


@dataclass(frozen=True)
class CredalSequence:
    """Credal levels indexed 0..n with non-decreasing errors."""

    levels: tuple[CredalLevel, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("a credal sequence needs at least one level")
        for pos, level in enumerate(self.levels):
            if level.index != pos:
                raise ValueError(
                    f"level at position {pos} carries index {level.index}"
                )
            if pos > 0 and level.error < self.levels[pos - 1].error:
                raise ValueError(
                    f"level {pos} error {level.error} drops below level "
                    f"{pos - 1} error {self.levels[pos - 1].error}"
                )


def _check_targets(problem: DecisionProblem,
                   boxes: Mapping[str, Mapping[str, ProbInterval]],
                   where: str) -> None:
    """Raise unless every act and outcome named in boxes exists."""
    for act_name, box in boxes.items():
        try:
            labels = problem.act(act_name).labels()
        except KeyError:
            raise ValueError(f"{where} unknown act {act_name!r}") from None
        for label in box:
            if label not in labels:
                raise ValueError(
                    f"{where} unknown outcome {label!r} of act {act_name!r}"
                )


def apply_level(problem: DecisionProblem, level: CredalLevel) -> DecisionProblem:
    """The problem with outcome bounds replaced by the level's assignments.

    Replacement is wholesale: an assigned interval need not nest inside
    the declared one.  Acts the level leaves alone are passed through as
    they are.  Unknown act or outcome names are an error.
    """
    boxes = level.assignments
    _check_targets(problem, boxes, f"level {level.index} assigns to")
    return DecisionProblem(problem.name, tuple(
        Act(act.name, tuple(
            Outcome(o.label, o.utility, boxes[act.name].get(o.label, o.prob))
            for o in act.outcomes
        )) if boxes.get(act.name) else act
        for act in problem.acts
    ))


def _meet(bounds: dict[str, ProbInterval], key: str, iv: ProbInterval) -> bool:
    """Narrow bounds[key] to its intersection with iv, or set it to iv
    when absent.  False, with bounds untouched, when they are disjoint."""
    merged = intersect(bounds[key], iv) if key in bounds else iv
    if merged is None:
        return False
    bounds[key] = merged
    return True


def _event_constraints(body: BodyOfKnowledge,
                       refs: ReferenceClassTable) -> dict[str, ProbInterval]:
    """Event bounds entailed by a body's statements."""
    table = refs.with_entries(
        (s.cls, s.event, s.interval)
        for s in body.statements if s.kind == "class-frequency"
    )
    constraints: dict[str, ProbInterval] = {}
    for s in body.statements:
        if s.kind == "event-interval":
            iv = s.interval
        elif s.kind == "condition":
            iv = CERTAIN if s.value else IMPOSSIBLE
        else:
            continue
        if not _meet(constraints, s.event, iv):
            raise ConflictingConstraintError(
                f"body {body.index}: statement {s.id!r} leaves no "
                f"probability for event {s.event!r}"
            )

    memberships: dict[str, set[str]] = {}
    for s in body.statements:
        if s.kind == "membership":
            memberships.setdefault(s.item, set()).add(s.cls)
    for item in sorted(memberships):
        classes = memberships[item]
        events = sorted({e for c, e, _ in table.entries if c in classes})
        for event in events:
            usable = {c for c in classes if table.freq(c, event) is not None}
            iv = direct_inference(item, event, usable, table)
            if not _meet(constraints, event, iv):
                raise ConflictingConstraintError(
                    f"body {body.index}: direct inference for item {item!r} "
                    f"leaves no probability for event {event!r}"
                )
    return constraints


def level_from_body(body: BodyOfKnowledge, problem: DecisionProblem,
                    refs: ReferenceClassTable = EMPTY_TABLE,
                    extra: Mapping[str, Mapping[str, ProbInterval]] | None = None,
                    ) -> CredalLevel:
    """Resolve a body's statements into a credal level for the problem.

    Event constraints apply to every outcome sharing the event's label.
    In a two-outcome act, a constraint on one outcome forces the
    complementary bounds onto the other.  extra supplies act-keyed
    interval assertions that are intersected on top.
    """
    constraints = _event_constraints(body, refs)
    extra = extra or {}
    _check_targets(problem, extra, f"body {body.index}: asserted interval for")
    assignments: dict[str, dict[str, ProbInterval]] = {}
    for act in problem.acts:
        over = {o.label: constraints[o.label]
                for o in act.outcomes if o.label in constraints}
        if len(act.outcomes) == 2:
            first, second = act.outcomes
            # both complements come from the bounds before either is forced
            forced = [(other.label, over[mine.label].complement())
                      for mine, other in ((first, second), (second, first))
                      if mine.label in over]
            for label, comp in forced:
                if not _meet(over, label, comp):
                    raise ConflictingConstraintError(
                        f"body {body.index}: constraints on {first.label!r} "
                        f"and {second.label!r} of act {act.name!r} conflict"
                    )
        for label, iv in extra.get(act.name, {}).items():
            if not _meet(over, label, iv):
                raise ConflictingConstraintError(
                    f"body {body.index}: asserted interval for outcome "
                    f"{label!r} of act {act.name!r} conflicts with the "
                    f"statement-derived bounds"
                )
        if over:
            box_lo = [over.get(o.label, o.prob).lo for o in act.outcomes]
            box_hi = [over.get(o.label, o.prob).hi for o in act.outcomes]
            try:
                _check_feasible(act.name, box_lo, box_hi)
            except FeasibilityError as exc:
                raise FeasibilityError(f"body {body.index}: {exc}") from exc
            assignments[act.name] = over
    return CredalLevel(index=body.index, error=body.error, assignments=assignments)


def sequence_from_bodies(bodies: Sequence[BodyOfKnowledge],
                         problem: DecisionProblem,
                         refs: ReferenceClassTable = EMPTY_TABLE) -> CredalSequence:
    """Credal sequence induced by resolving each body against the problem."""
    return CredalSequence(tuple(
        level_from_body(body, problem, refs) for body in bodies
    ))


def is_nested(seq: CredalSequence, problem: DecisionProblem) -> bool:
    """True when every later level's boxes sit inside every earlier one's.

    Containment is transitive, so comparing neighbouring levels suffices.
    """
    resolved = [apply_level(problem, level) for level in seq.levels]
    for earlier, later in zip(resolved, resolved[1:]):
        for act_early, act_late in zip(earlier.acts, later.acts):
            for o_early, o_late in zip(act_early.outcomes, act_late.outcomes):
                if (o_late.prob.lo < o_early.prob.lo
                        or o_late.prob.hi > o_early.prob.hi):
                    return False
    return True
