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

from .intervals import VACUOUS, Interval, ProbInterval

#: slack used when checking that a probability box admits a distribution
FEASIBILITY_TOL = 1e-9


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
        _check_feasible(self.name, [o.prob.lo for o in self.outcomes],
                        [o.prob.hi for o in self.outcomes])
        object.__setattr__(self, "_labels", labels)

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


def _check_feasible(name: str, lows: list[float], highs: list[float]) -> None:
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


def _allocate(lows: list[float], highs: list[float], utils: list[float],
              order: list[int]) -> float:
    p = list(lows)
    residual = 1.0 - math.fsum(lows)
    for i in order:
        if residual <= 0.0:
            break
        room = highs[i] - p[i]
        add = room if room < residual else residual
        p[i] += add
        residual -= add
    # summed in outcome order so both passes agree exactly on point boxes
    return math.fsum(map(mul, p, utils))


def _orders(act: Act) -> tuple[list[float], list[int], list[int]]:
    """The act's utilities and its ascending and descending allocation
    orders.  Computed once per act instance and kept on it: no level
    changes a utility, so every box the act is evaluated on shares them.
    """
    cached = act.__dict__.get("_orders")
    if cached is None:
        utils = [o.utility for o in act.outcomes]
        n = len(utils)
        cached = (utils, sorted(range(n), key=lambda i: (utils[i], i)),
                  sorted(range(n), key=lambda i: (-utils[i], i)))
        object.__setattr__(act, "_orders", cached)
    return cached


def _bounds(act: Act, lows: list[float], highs: list[float]) -> Interval:
    """The act's expected-utility interval over the box lows..highs."""
    utils, ascending, descending = _orders(act)
    try:
        lo = _allocate(lows, highs, utils, ascending)
        hi = _allocate(lows, highs, utils, descending)
    except OverflowError:
        raise ValueError(
            f"act {act.name!r}: expected utility overflows the float range"
        ) from None
    if lo > hi:  # guard against stray rounding on near-degenerate boxes
        lo = hi = (lo + hi) / 2.0
    return Interval(lo, hi)


def eu_interval(act: Act) -> Interval:
    """Exact bounds on expected utility over the act's probability box.

    Computed once per act instance and kept on it: Act is frozen, so
    the result cannot go stale, and an act that several problems or
    levels share is evaluated once.
    """
    cached = act.__dict__.get("_eu")
    if cached is None:
        cached = _bounds(act, [o.prob.lo for o in act.outcomes],
                         [o.prob.hi for o in act.outcomes])
        object.__setattr__(act, "_eu", cached)
    return cached


def eu_all(problem: DecisionProblem,
           assignments: Mapping[str, Mapping[str, ProbInterval]] | None = None,
           where: str = "assignment to") -> dict[str, Interval]:
    """Expected-utility interval for every act, keyed by act name.

    assignments (act name -> outcome label -> interval) replaces the
    declared bounds of the outcomes it names, as a credal level does, and
    the result is bit-identical to eu_all(apply_level(problem, level)),
    without building a single act.  Unknown names raise first, their
    message led by where; then every boxed act's feasibility is checked,
    in act order, before any expected utility is computed.  Acts with no
    box, or an empty one, keep the interval computed on their own bounds.
    """
    if not assignments:
        return {act.name: eu_interval(act) for act in problem.acts}
    _check_targets(problem, assignments, where)
    boxed = []
    for act in problem.acts:
        box = assignments.get(act.name)
        if box:
            probs = [box.get(o.label, o.prob) for o in act.outcomes]
            lows = [p.lo for p in probs]
            highs = [p.hi for p in probs]
            _check_feasible(act.name, lows, highs)
            boxed.append((lows, highs))
        else:
            boxed.append(None)
    return {
        act.name: eu_interval(act) if box is None else _bounds(act, *box)
        for act, box in zip(problem.acts, boxed)
    }
