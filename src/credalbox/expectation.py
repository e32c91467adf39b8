"""Interval expected utility over box-constrained probability simplexes.

An act carries an exhaustive, mutually exclusive set of outcomes; each
outcome has a utility and a probability interval.  The feasible
distributions are the points of the simplex that respect every bound.
The extreme expected utilities are reached by greedy mass allocation:
fix every coordinate at its lower bound, then pour the leftover mass
into the worst-utility outcomes first (for the infimum) or the
best-utility outcomes first (for the supremum), capping each coordinate
at its upper bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import mul
from typing import Mapping

from .intervals import VACUOUS, Interval, ProbInterval, _unchecked

#: slack used when checking that a probability box admits a distribution
FEASIBILITY_TOL = 1e-9


#: an act's outcome bounds, lows and highs in outcome order
_Bounds = tuple[tuple[float, ...], tuple[float, ...]]


class FeasibilityError(ValueError):
    """No distribution satisfies the act's probability box."""


@dataclass(frozen=True)
class Outcome:
    """One cell of an act's outcome partition."""

    label: str
    utility: float
    prob: ProbInterval = field(default_factory=lambda: VACUOUS)

    def __post_init__(self):
        if not self.label:
            raise ValueError("outcome label must be non-empty")
        if math.isnan(self.utility) or math.isinf(self.utility):
            raise ValueError(f"outcome {self.label!r} has non-finite utility")


def _unchecked_outcome(label: str, utility: float, prob: ProbInterval) -> Outcome:
    """Outcome(label, utility, prob) for a non-empty str label and a
    finite float utility the caller has already checked; __post_init__
    does not run again."""
    o = object.__new__(Outcome)
    fields = o.__dict__
    fields["label"] = label
    fields["utility"] = utility
    fields["prob"] = prob
    return o


@dataclass(frozen=True)
class Act:
    """A named act with its outcome partition."""

    name: str
    outcomes: tuple[Outcome, ...]

    def __post_init__(self):
        object.__setattr__(self, "outcomes", tuple(self.outcomes))
        if not self.name:
            raise ValueError("act name must be non-empty")
        if not self.outcomes:
            raise ValueError(f"act {self.name!r} has no outcomes")
        labels = tuple(o.label for o in self.outcomes)
        if len(set(labels)) != len(labels):
            raise ValueError(f"act {self.name!r} repeats an outcome label")
        # the declared bounds, kept for every later evaluation to read
        declared = _box_bounds(self, {})
        _check_feasible(self.name, *declared)
        object.__setattr__(self, "_labels", labels)
        object.__setattr__(self, "_declared", declared)
        # the allocation orders, shared by every box: no level changes a
        # utility; the stable sort keeps equal utilities in outcome order
        utils = [o.utility for o in self.outcomes]
        positions = range(len(utils))
        object.__setattr__(self, "_orders", (
            utils, sorted(positions, key=utils.__getitem__),
            sorted(positions, key=utils.__getitem__, reverse=True)))

    def labels(self) -> tuple[str, ...]:
        return self._labels

    def outcome(self, label: str) -> Outcome:
        for o in self.outcomes:
            if o.label == label:
                return o
        raise KeyError(f"act {self.name!r} has no outcome {label!r}")


@dataclass(frozen=True)
class DecisionProblem:
    """A named, ordered collection of acts."""

    name: str
    acts: tuple[Act, ...]

    def __post_init__(self):
        object.__setattr__(self, "acts", tuple(self.acts))
        if not self.acts:
            raise ValueError(f"problem {self.name!r} has no acts")
        by_name = {a.name: a for a in self.acts}
        if len(by_name) != len(self.acts):
            raise ValueError(f"problem {self.name!r} repeats an act name")
        object.__setattr__(self, "_by_name", by_name)

    def act(self, name: str) -> Act:
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"problem {self.name!r} has no act {name!r}") from None

    @property
    def act_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.acts)


def _box_bounds(act: Act, box: Mapping[str, ProbInterval]) -> _Bounds:
    """The act's outcome bounds (lows, highs) under box, whose intervals
    replace the declared bounds of the outcomes it names.  Tuples, which
    outlive the call (acts and resolved levels keep them): the garbage
    collector stops tracking a tuple of floats, but never a list."""
    lows, highs = [], []
    for o in act.outcomes:
        p = box.get(o.label, o.prob)
        lows.append(p.lo)
        highs.append(p.hi)
    return tuple(lows), tuple(highs)


def _check_feasible(name: str, lows: tuple[float, ...],
                    highs: tuple[float, ...]) -> None:
    lo_sum = math.fsum(lows)
    hi_sum = math.fsum(highs)
    if lo_sum > 1.0 + FEASIBILITY_TOL:
        raise FeasibilityError(
            f"act {name!r}: outcome lower bounds sum to {lo_sum:.12g}, above 1"
        )
    if hi_sum < 1.0 - FEASIBILITY_TOL:
        raise FeasibilityError(
            f"act {name!r}: outcome upper bounds sum to {hi_sum:.12g}, below 1"
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


def _allocate(lows: tuple[float, ...], highs: tuple[float, ...],
              utils: list[float], order: list[int], residual: float) -> float:
    """The expected utility after pouring residual, the mass the lower
    bounds leave, into the outcomes in order."""
    p = list(lows)
    for i in order:
        if residual <= 0.0:
            break
        room = highs[i] - p[i]
        add = room if room < residual else residual
        p[i] += add
        residual -= add
    # summed in outcome order so both passes agree exactly on point boxes
    return math.fsum(map(mul, p, utils))


def _bounds(act: Act, lows: tuple[float, ...], highs: tuple[float, ...]) -> Interval:
    """The act's expected-utility interval over the box lows..highs."""
    utils, ascending, descending = act._orders
    residual = 1.0 - math.fsum(lows)
    try:
        lo = _allocate(lows, highs, utils, ascending, residual)
        hi = _allocate(lows, highs, utils, descending, residual)
    except OverflowError:
        raise ValueError(
            f"act {act.name!r}: expected utility overflows the float range"
        ) from None
    if lo > hi:  # guard against stray rounding on near-degenerate boxes
        lo = hi = (lo + hi) / 2.0
    # finite utilities weighted by probabilities of at most 1 give no NaN,
    # and the guard orders the endpoints: Interval's checks would pass
    return _unchecked(Interval, lo, hi)


def eu_interval(act: Act) -> Interval:
    """Exact bounds on expected utility over the act's probability box.

    Computed once per act instance and kept on it: Act is frozen, so
    the result cannot go stale, and an act that several problems or
    levels share is evaluated once.
    """
    cached = act.__dict__.get("_eu")
    if cached is None:
        cached = _bounds(act, *act._declared)
        object.__setattr__(act, "_eu", cached)
    return cached


def _level_bounds(problem: DecisionProblem,
                  boxes: Mapping[str, Mapping[str, ProbInterval]],
                  where: str) -> list[_Bounds | None]:
    """Each act's bounds under its box, in act order; None for an act with
    no box or an empty one.  Unknown names raise first, their message led
    by where; then the first infeasible boxed act, in act order."""
    _check_targets(problem, boxes, where)
    out = [_box_bounds(act, box) if (box := boxes.get(act.name)) else None
           for act in problem.acts]
    for act, bounds in zip(problem.acts, out):
        if bounds:
            _check_feasible(act.name, *bounds)
    return out


def eu_all(problem: DecisionProblem,
           assignments: Mapping[str, Mapping[str, ProbInterval]] | None = None,
           where: str = "assignment to", *,
           _checked: list[_Bounds | None] | None = None) -> dict[str, Interval]:
    """Expected-utility interval for every act, keyed by act name.

    assignments (act name -> outcome label -> interval) replaces the
    declared bounds of the outcomes it names, as a credal level does, and
    the result is bit-identical to eu_all(apply_level(problem, level)),
    without building a single act.  _level_bounds checks the level before
    any expected utility is computed, unless _checked holds what it would
    return, already checked, as knowledge's level reader gives it.  Acts
    with no box, or an empty one, keep the interval computed on their
    own bounds.
    """
    if _checked is None:
        _checked = _level_bounds(problem, assignments or {}, where)
    return {
        act.name: eu_interval(act) if bounds is None else _bounds(act, *bounds)
        for act, bounds in zip(problem.acts, _checked)
    }
