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

import copy
from dataclasses import dataclass, field
from itertools import pairwise
from math import copysign
from operator import gt, lt
from typing import Iterable, Mapping, Sequence

from .expectation import (
    Act,
    DecisionProblem,
    FeasibilityError,
    Outcome,
    _Bounds,
    _box_bounds,
    _check_feasible,
    _check_targets,
    _level_bounds,
)
from .intervals import CERTAIN, IMPOSSIBLE, ProbInterval, intersect


class InconsistentBodyError(ValueError):
    """A body of knowledge contains statements that cannot all hold."""


class ConflictingConstraintError(ValueError):
    """Constraints on the same event have an empty intersection."""


class NoUniqueReferenceClassError(ValueError):
    """Direct inference found no single most specific reference class."""


# each statement kind and the fields it needs, checked in this order; the
# parser's one-check path reads the same table
_NEEDS = {
    "event-interval": ("event", "interval"),
    "condition": ("event",),
    "membership": ("item", "cls"),
    "class-frequency": ("cls", "event", "interval"),
}
STATEMENT_KINDS = tuple(_NEEDS)


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
        for name in _NEEDS[self.kind]:
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


_EVENT_KINDS = ("event-interval", "condition")


def _event_bound(s: Statement) -> ProbInterval:
    """The bounds an event-interval or condition statement puts on its event."""
    if s.kind == "event-interval":
        return s.interval
    return CERTAIN if s.value else IMPOSSIBLE


def _merged_events(statements: Sequence[Statement]) -> dict[str, ProbInterval]:
    """Each event's bounds under the body's event-interval and condition
    statements, merged in body order; raises when statements repeat an id
    or leave an event no probability."""
    ids = [s.id for s in statements]
    if len(set(ids)) != len(ids):
        raise InconsistentBodyError("statement ids repeat within one body")
    by_event: dict[str, list[Statement]] = {}
    for s in statements:
        if s.kind in _EVENT_KINDS:
            by_event.setdefault(s.event, []).append(s)
    merged: dict[str, ProbInterval] = {}
    for event, group in by_event.items():
        for s in group:
            if not _meet(merged, event, _event_bound(s)):
                culprits = ", ".join(repr(t.id) for t in group)
                raise InconsistentBodyError(
                    f"statements {culprits} cannot all hold for event {event!r}")
    return merged


def _refuse_bool(what: str, value, kind: str) -> None:
    """A bool passes as 1 or 0 but is written as true or false where the
    report schema needs a number, so it is refused, naming the field."""
    if isinstance(value, bool):
        raise ValueError(f"{what} must be {kind}, got {value!r}")


def _check_index_error(what: str, index: int, error: float) -> None:
    """Refuse a bool or negative index and a bool error or one outside
    [0, 1]; a bool would pass the range tests and then be reported as
    true or false where a report needs a number."""
    _refuse_bool(f"{what} index", index, "an int")
    if index < 0:
        raise ValueError(f"{what} index must be non-negative, got {index!r}")
    _refuse_bool(f"{what} error", error, "a number")
    if not 0.0 <= error <= 1.0:
        raise ValueError(f"{what} error must lie in [0, 1], got {error!r}")


@dataclass(frozen=True)
class BodyOfKnowledge:
    """Statements accepted at one error level of a nested (or merely
    indexed) family of corpora, checked to hold together; the resolver,
    not the body, merges the event bounds they entail.  A body an
    acceptance rule builds also records its parent's statements, the
    statements it adds and whether they come last, never the parent."""

    index: int
    error: float
    statements: tuple[Statement, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "statements", tuple(self.statements))
        _check_index_error("body", self.index, self.error)
        _merged_events(self.statements)


def _check_error_level(eps: float, previous: float | None) -> None:
    """Refuse a threshold error level outside (0, 1], or one at or below
    the level before it, previous (None for the first level)."""
    if not 0.0 < eps <= 1.0:
        raise ValueError(f"error level {eps!r} must lie in (0, 1]")
    if previous is not None and eps <= previous:
        raise ValueError("error levels must be strictly increasing")


def _accepted(cuts: Iterable[tuple[float, str, tuple[Statement, ...],
                                   tuple[Statement, ...]]]) -> list[BodyOfKnowledge]:
    """Bodies K_0..K_m, K_j from the j-th cut: its error, the text after
    "body j" in its errors, its statements, and the statements it adds
    to K_{j-1}, whose statements it holds.  One id set and one event
    bound dict grow along the walk, so each statement is checked once;
    a body that fails is checked again in full, which raises the text
    BodyOfKnowledge would.  The bodies nest, so the first one that fails
    is the first one BodyOfKnowledge would refuse.  Each body records
    whether the statements it adds come last, as next-most-probable ones do."""
    bodies = [BodyOfKnowledge(0, 0.0, ())]
    ids: set[str] = set()
    events: dict[str, ProbInterval] = {}
    for j, (error, where, statements, added) in enumerate(cuts, start=1):
        _refuse_bool("body error", error, "a number")
        for s in added:
            if s.id in ids or (s.kind in _EVENT_KINDS
                               and not _meet(events, s.event, _event_bound(s))):
                try:
                    _merged_events(statements)
                except InconsistentBodyError as exc:
                    raise InconsistentBodyError(f"body {j}{where}: {exc}") from exc
            ids.add(s.id)
        # built once, without __post_init__: index counts up from 1, error
        # is a level in (0, 1] or some statement's 1 - prob, and the walk
        # has checked the statements; ids are unique, so the tail is added
        body = object.__new__(BodyOfKnowledge)
        appends = statements[len(statements) - len(added):] == added
        body.__dict__.update(index=j, error=error, statements=statements,
                             _grown_from=(bodies[-1].statements, added, appends))
        bodies.append(body)
    return bodies


def accept_threshold(statements: Sequence[Statement],
                     error_levels: Sequence[float]) -> list[BodyOfKnowledge]:
    """Bodies K_0..K_m where K_j holds the statements with 1 - prob below
    the j-th error level.  K_0 is always the empty body at error 0."""
    levels = list(error_levels)
    for j, eps in enumerate(levels):
        _check_error_level(eps, levels[j - 1] if j else None)
    return _accepted(
        (eps, f" at error level {eps}",
         tuple(s for s in statements if 1.0 - s.prob < eps),
         tuple(s for s in statements if previous <= 1.0 - s.prob < eps))
        for previous, eps in zip([0.0, *levels], levels))


def accept_next_most_probable(statements: Sequence[Statement]) -> list[BodyOfKnowledge]:
    """Bodies K_0..K_n grown one statement at a time, most probable first;
    each body's error is the largest improbability accepted so far, which
    is the last one's, since 1 - prob never falls along that order."""
    ordered = tuple(sorted(statements, key=lambda s: -s.prob))
    return _accepted((1.0 - s.prob, "", ordered[:j], (s,))
                     for j, s in enumerate(ordered, start=1))


def _first_on_cycle(succ: Mapping[str, list[str]]) -> str:
    """The smallest class that reaches itself through succ."""
    def on_cycle(start: str) -> bool:
        seen: set[str] = set()
        todo = list(succ[start])
        while todo:
            cls = todo.pop()
            if cls == start:
                return True
            if cls not in seen:
                seen.add(cls)
                todo.extend(succ.get(cls, ()))
        return False
    return next(c for c in sorted(succ) if on_cycle(c))


def _reach_map(pairs: Iterable[tuple[str, str]]
               ) -> tuple[dict[str, int], dict[str, int]]:
    """The order's bits and reaches: each class that some class is more
    specific than gets one bit, and each class that is more specific
    than some class maps to its reach, the OR of the bits of every class
    it is more specific than.

    One depth-first walk ORs each class's direct successors' bits and
    reaches into its own, each built once.  A cyclic order raises,
    naming the smallest class on a cycle.
    """
    succ: dict[str, list[str]] = {}
    bit: dict[str, int] = {}
    for a, b in pairs:
        succ.setdefault(a, []).append(b)
        bit.setdefault(b, 1 << len(bit))
    reach: dict[str, int] = {}
    for root in succ:
        if root in reach:
            continue
        path = {root}
        stack = [(root, iter(succ[root]))]
        while stack:
            node, todo = stack[-1]
            for nxt in todo:
                if nxt in path:
                    raise ValueError("specificity order is cyclic at class "
                                     f"{_first_on_cycle(succ)!r}")
                if nxt in succ and nxt not in reach:
                    path.add(nxt)
                    stack.append((nxt, iter(succ[nxt])))
                    break
            else:
                stack.pop()
                path.discard(node)
                out = 0
                for nxt in succ[node]:
                    out |= bit[nxt] | reach.get(nxt, 0)
                reach[node] = out
    return bit, reach


def _add_freqs(freqs: dict[tuple[str, str], ProbInterval],
               entries: Iterable[tuple[str, str, ProbInterval]]
               ) -> dict[tuple[str, str], ProbInterval]:
    """freqs with the entries added.  The first entry for a (class, event)
    pair wins, so equal intervals such as -0.0 and 0.0 keep the bits
    they were listed with."""
    for cls, event, iv in entries:
        if freqs.setdefault((cls, event), iv) != iv:
            raise ValueError(
                f"class {cls!r} has two different frequencies for {event!r}"
            )
    return freqs


@dataclass(frozen=True)
class ReferenceClassTable:
    """Known class frequencies plus a specificity order between classes.

    entries maps (class, event) pairs to frequency intervals; specificity
    holds the (more_specific, less_specific) pairs as given, and equality
    compares them as given.  The order is closed here, once: each class
    that some class is more specific than gets one bit, and each class
    maps to the int of the bits of every class it is more specific than.
    Tables made by with_entries share both maps.
    """

    entries: tuple[tuple[str, str, ProbInterval], ...] = ()
    specificity: frozenset[tuple[str, str]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))
        object.__setattr__(self, "specificity", frozenset(self.specificity))
        bit, reach = _reach_map(self.specificity)
        object.__setattr__(self, "_bit", bit)
        object.__setattr__(self, "_reach", reach)
        object.__setattr__(self, "_freqs", _add_freqs({}, self.entries))

    def freq(self, cls: str, event: str) -> ProbInterval | None:
        return self._freqs.get((cls, event))

    def more_specific(self, a: str, b: str) -> bool:
        return bool(self._reach.get(a, 0) & self._bit.get(b, 0))

    def with_entries(self, extra: Iterable[tuple[str, str, ProbInterval]]
                     ) -> ReferenceClassTable:
        """This table with the extra entries appended.  Only the new
        entries are checked; the order's bits and reaches are shared, and
        this table never sees them."""
        extra = tuple(extra)
        table = copy.copy(self)
        object.__setattr__(table, "entries", self.entries + extra)
        object.__setattr__(table, "_freqs", _add_freqs(dict(self._freqs), extra))
        return table


EMPTY_TABLE = ReferenceClassTable()


def _most_specific(classes: Iterable[str],
                   refs: ReferenceClassTable) -> frozenset[str]:
    """The classes no other of the classes is more specific than: those
    whose bit lies in none of the classes' reaches.  No class reaches
    itself, so each class's own reach joins the union too."""
    classes = tuple(classes)
    under = 0
    for c in classes:
        under |= refs._reach.get(c, 0)
    return frozenset(c for c in classes if not refs._bit.get(c, 0) & under)


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
    most_specific = sorted(_most_specific(classes, refs))
    answers = {refs.freq(c, event) for c in most_specific}
    if len(answers) > 1:
        culprits = ", ".join(repr(c) for c in most_specific)
        raise NoUniqueReferenceClassError(
            f"incomparable reference classes {culprits} disagree about {event!r}"
        )
    # equal intervals may differ in the sign of a zero: the first class's win
    return refs.freq(most_specific[0], event)


@dataclass(frozen=True)
class CredalLevel:
    """Per-act probability assignments at one error level.

    assignments maps act name -> outcome label -> interval; outcomes not
    mentioned keep the bounds declared on the problem itself.  A level
    built here copies its boxes; a level built by resolution keeps the
    boxes the resolver built, which no later body changes.  Either way
    the boxes are read-only after construction: a level built by
    resolution also carries the bounds its boxes were checked to, which
    a box changed in place would leave stale.
    """

    index: int
    error: float
    assignments: Mapping[str, Mapping[str, ProbInterval]] = field(default_factory=dict)

    def __post_init__(self):
        _check_index_error("level", self.index, self.error)
        frozen = {act: dict(boxes) for act, boxes in self.assignments.items()}
        object.__setattr__(self, "assignments", frozen)


def _read_level(level: CredalLevel, problem: DecisionProblem) -> list[_Bounds | None]:
    """Each act's bounds under level's boxes, checked, as _level_bounds
    gives them.  A level that resolution built against this very problem
    object carries them, checked there; any other level or problem is
    checked in full.  The record is no field, so equality, repr and
    sequence_bytes never see it."""
    checked = level.__dict__.get("_checked")
    if checked is not None and checked[0] is problem:
        return checked[1]
    return _level_bounds(problem, level.assignments, f"level {level.index} assigns to")


_NO_LEVELS = "a credal sequence needs at least one level"


def _level_drop(i: int, error: float, previous: float) -> str:
    return f"level {i} error {error} drops below level {i - 1} error {previous}"


@dataclass(frozen=True)
class CredalSequence:
    """Credal levels indexed 0..n with non-decreasing errors."""

    levels: tuple[CredalLevel, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError(_NO_LEVELS)
        for pos, level in enumerate(self.levels):
            if level.index != pos:
                raise ValueError(
                    f"level at position {pos} carries index {level.index}"
                )
            if pos > 0 and level.error < self.levels[pos - 1].error:
                raise ValueError(
                    _level_drop(pos, level.error, self.levels[pos - 1].error))


def apply_level(problem: DecisionProblem, level: CredalLevel) -> DecisionProblem:
    """The problem with outcome bounds replaced by the level's assignments.

    Replacement is wholesale: an assigned interval need not nest inside
    the declared one.  Acts the level leaves alone, and the outcomes a
    box does not name, are passed through as they are, so whatever was
    computed on them carries over.  Unknown act or outcome names are an
    error.  The package never builds this problem: eu_all and is_nested
    read the same bounds in place, bit for bit.
    """
    boxes = level.assignments
    _check_targets(problem, boxes, f"level {level.index} assigns to")
    acts = []
    for act in problem.acts:
        box = boxes.get(act.name)
        if box:
            act = Act(act.name, tuple(
                Outcome(o.label, o.utility, box[o.label]) if o.label in box else o
                for o in act.outcomes))
        acts.append(act)
    return DecisionProblem(problem.name, tuple(acts))


def _meet(bounds: dict[str, ProbInterval], key: str, iv: ProbInterval) -> bool:
    """Narrow bounds[key] to its intersection with iv, or set it to iv
    when absent.  False, with bounds untouched, when they are disjoint."""
    merged = intersect(bounds[key], iv) if key in bounds else iv
    if merged is None:
        return False
    bounds[key] = merged
    return True


def _act_index(problem: DecisionProblem) -> tuple[dict[str, list[int]], dict[str, int]]:
    """The positions of the acts with an outcome of each label, and each
    act's position by name."""
    by_label: dict[str, list[int]] = {}
    for pos, act in enumerate(problem.acts):
        for o in act.outcomes:
            by_label.setdefault(o.label, []).append(pos)
    return by_label, {act.name: pos for pos, act in enumerate(problem.acts)}


class _Resolver:
    """Resolves bodies of knowledge against one problem and base table,
    one body after another.

    A body that an acceptance rule grew from the body resolved last
    carries that body's table, event bounds and per-(item, event) most
    specific classes forward, and only the (item, event) pairs, events
    and acts that its added statements touch are recomputed.  Added
    statements that come last in the body are met in body order, as a
    fresh start meets them; _added reads any others for ties.  Direct
    inference is not monotone, because a newly accepted, more specific
    class replaces the old answer, so a touched event is merged again
    from its parts instead of narrowing its old bound.  Any other body
    (levels-form, hand-built, or one after an assertion or an error) is
    resolved from empty.  Either way only the acts with an outcome on a
    recomputed event, or named in the level's assertions, are visited.

    The first body after a fresh start that adds a frequency makes a
    working copy of the base table, which it and later bodies grow in
    place.  The copy's entries, equality and repr stay the base table's,
    so it never leaves the resolver: no level, error or caller is handed
    it.  The event bounds live here too, not on the bodies.
    """

    def __init__(self, problem: DecisionProblem, refs: ReferenceClassTable):
        self.problem = problem
        self.refs = refs
        self.by_label, self.by_name = _act_index(problem)
        self._start()

    def _start(self) -> None:
        # the statements of the body resolved last; None after assertions or an error
        self.last: tuple[Statement, ...] | None = None
        # the base table until a body adds a frequency, then the working
        # table that later bodies grow in place (see the class docstring)
        self.table = self.refs
        # class -> events it has a frequency for, and items accepted in it
        self.freq_events: dict[str, set[str]] = {}
        for cls, event, _ in self.refs.entries:
            self.freq_events.setdefault(cls, set()).add(event)
        self.members: dict[str, set[str]] = {}
        # (item, event) -> most specific usable classes
        self.most: dict[tuple[str, str], frozenset[str]] = {}
        # event -> the bound its statements give, met in growth order;
        # event -> item -> its inferred answer; and the event's merged bound
        self.events: dict[str, ProbInterval] = {}
        self.answers: dict[str, dict[str, ProbInterval]] = {}
        self.bounds: dict[str, ProbInterval] = {}
        # act position -> its box at the last level, if any, and the
        # bounds that box was checked to (None for no box or an empty one)
        self.boxes: list[dict[str, ProbInterval] | None] = [None] * len(self.problem.acts)
        self.checked: list[_Bounds | None] = [None] * len(self.boxes)

    def _added(self, body: BodyOfKnowledge) -> Sequence[Statement] | None:
        """The statements body adds to the body resolved last, when an
        acceptance rule grew it from that one and no inserted statement
        sets a tie's bits; None when body must be resolved from empty."""
        grown_from = body.__dict__.get("_grown_from")
        if grown_from is None or grown_from[0] is not self.last:
            return None
        _, added, appends = grown_from
        if appends:
            return added
        # the bits of a repeated frequency, or of a zero endpoint met with
        # a zero of the other sign, come from whichever statement is first
        # in body order, which the carried table and bounds cannot tell
        for s in added:
            if s.kind == "class-frequency":
                if self.table.freq(s.cls, s.event) is not None:
                    return None
            elif s.kind in _EVENT_KINDS and s.event in self.events:
                old, new = self.events[s.event], _event_bound(s)
                if any(x == y == 0.0 and copysign(1.0, x) != copysign(1.0, y)
                       for x, y in ((old.lo, new.lo), (old.hi, new.hi))):
                    return None
        return added

    def _touched(self, added: Sequence[Statement]) -> dict[tuple[str, str], list[str]]:
        """(item, event) pairs that gain usable classes, with the classes."""
        touched: dict[tuple[str, str], list[str]] = {}
        for s in added:
            if s.kind == "class-frequency":
                events = self.freq_events.setdefault(s.cls, set())
                if s.event not in events:
                    events.add(s.event)
                    for item in self.members.get(s.cls, ()):
                        touched.setdefault((item, s.event), []).append(s.cls)
            elif s.kind == "membership":
                items = self.members.setdefault(s.cls, set())
                if s.item not in items:
                    items.add(s.item)
                    for event in self.freq_events.get(s.cls, ()):
                        touched.setdefault((s.item, event), []).append(s.cls)
        return touched

    def _infer(self, body: BodyOfKnowledge, added: Sequence[Statement]) -> set[str]:
        """Update the answers and event bounds the added statements
        touch, and return the touched events.  Of several errors, the one
        raised is the first in (item, event) order, as a resolution item
        by item and event by event would meet it."""
        freqs = [(s.cls, s.event, s.interval)
                 for s in added if s.kind == "class-frequency"]
        # a body's statements hold together, so every meet succeeds
        for s in added:
            if s.kind in _EVENT_KINDS:
                _meet(self.events, s.event, _event_bound(s))
        if freqs:
            if self.table is self.refs:
                self.table = self.refs.with_entries(())
            # a body that raises here leaves the next one to start
            # afresh, which drops this table
            _add_freqs(self.table._freqs, freqs)
        table = self.table
        touched = self._touched(added)
        errors: list[tuple[tuple[str, str, int], ValueError]] = []
        for (item, event), classes in touched.items():
            # the new classes only compete with the most specific old ones
            most = _most_specific([*self.most.get((item, event), ()), *classes], table)
            self.most[item, event] = most
            answers = self.answers.setdefault(event, {})
            try:
                answers[item] = direct_inference(item, event, most, table)
            except NoUniqueReferenceClassError as exc:
                answers.pop(item, None)
                errors.append(((item, event, 0), exc))
        changed = {event for _, event in touched}
        changed.update(s.event for s in added if s.kind in _EVENT_KINDS)
        for event in changed:
            self.bounds.pop(event, None)
            if event in self.events:
                self.bounds[event] = self.events[event]
            answers = self.answers.get(event, {})
            for item in sorted(answers):
                if not _meet(self.bounds, event, answers[item]):
                    errors.append(((item, event, 1), ConflictingConstraintError(
                        f"body {body.index}: direct inference for item {item!r} "
                        f"leaves no probability for event {event!r}"
                    )))
                    break
        if errors:
            raise min(errors, key=lambda e: e[0])[1]
        return changed

    def _redo(self, events: Iterable[str], names: Iterable[str]) -> list[int]:
        """Positions, in act order, of the acts with an outcome labelled
        by one of the events or named in names."""
        redo = {pos for event in events for pos in self.by_label.get(event, ())}
        redo.update(self.by_name[name] for name in names)
        return sorted(redo)

    def level(self, body: BodyOfKnowledge,
              extra: Mapping[str, Mapping[str, ProbInterval]]) -> CredalLevel:
        """The credal level of body, with extra's assertions on top."""
        added = self._added(body)
        if added is None:
            self._start()
            added = body.statements
        # a body that raises leaves the next one to start from empty
        self.last = None
        changed = self._infer(body, added)
        _check_targets(self.problem, extra, f"body {body.index}: asserted interval for")
        acts = self.problem.acts
        # an act no changed bound and no assertion reaches keeps its box,
        # which after a fresh start is none
        for pos in self._redo(changed, extra):
            act = acts[pos]
            over = {o.label: self.bounds[o.label]
                    for o in act.outcomes if o.label in self.bounds}
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
            bounds = None
            if over:
                bounds = _box_bounds(act, over)
                try:
                    _check_feasible(act.name, *bounds)
                except FeasibilityError as exc:
                    raise FeasibilityError(f"body {body.index}: {exc}") from exc
            self.boxes[pos] = over
            self.checked[pos] = bounds
        # the boxes now hold extra, which the next body must not inherit
        self.last = None if extra else body.statements
        # CredalLevel(body.index, body.error, boxes) without copying the
        # boxes, which were built here and are never changed afterwards;
        # the body has checked its index and error
        level = object.__new__(CredalLevel)
        level.__dict__.update(
            index=body.index, error=body.error,
            assignments={act.name: box for act, box in zip(acts, self.boxes) if box},
            _checked=(self.problem, list(self.checked)))
        return level


def level_from_body(body: BodyOfKnowledge, problem: DecisionProblem,
                    refs: ReferenceClassTable = EMPTY_TABLE,
                    extra: Mapping[str, Mapping[str, ProbInterval]] | None = None,
                    *, resolver: _Resolver | None = None) -> CredalLevel:
    """Resolve a body's statements into a credal level for the problem.

    Event constraints apply to every outcome sharing the event's label.
    In a two-outcome act, a constraint on one outcome forces the
    complementary bounds onto the other.  extra supplies act-keyed
    interval assertions that are intersected on top.  resolver, when
    given, is one built for the same problem and table; it carries its
    state from body to body (see _Resolver), and the level is the one a
    call without it gives.
    """
    if resolver is None:
        resolver = _Resolver(problem, refs)
    return resolver.level(body, extra or {})


def sequence_from_bodies(bodies: Sequence[BodyOfKnowledge],
                         problem: DecisionProblem,
                         refs: ReferenceClassTable = EMPTY_TABLE) -> CredalSequence:
    """Credal sequence induced by resolving each body against the problem,
    through one resolver that carries its state from body to body."""
    resolver = _Resolver(problem, refs)
    return CredalSequence(tuple(
        level_from_body(body, problem, refs, resolver=resolver) for body in bodies
    ))


def is_nested(seq: CredalSequence, problem: DecisionProblem) -> bool:
    """True when every later level's boxes sit inside every earlier one's.

    Every level is checked first, as apply_level checks it, unless
    resolution against this problem checked it already; containment is
    transitive, so comparing neighbouring levels suffices.
    """
    resolved = [_read_level(level, problem) for level in seq.levels]
    for act, *levels in zip(problem.acts, *resolved):
        own = act._declared
        for (lo_early, hi_early), (lo_late, hi_late) in pairwise(
                bounds or own for bounds in levels):
            if any(map(lt, lo_late, lo_early)) or any(map(gt, hi_late, hi_early)):
                return False
    return True
