"""Dominance ordering over interval utilities, plus the fallback criteria
used when dominance alone leaves more than one act standing."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping

from .expectation import DecisionProblem
from .intervals import Interval


def _require(eu: Mapping[str, Interval]) -> None:
    if not eu:
        raise ValueError("no acts to rank")


@dataclass(frozen=True)
class MaximalSet:
    """Acts not strictly dominated, in original act order."""

    names: tuple[str, ...]

    def __contains__(self, name: str) -> bool:
        return name in self.names

    def __len__(self) -> int:
        return len(self.names)

    def __iter__(self):
        return iter(self.names)

    def is_decision(self) -> bool:
        return len(self.names) == 1


def maximal_set(eu: Mapping[str, Interval]) -> MaximalSet:
    """All acts that no other act strictly dominates.

    An act is dominated exactly when the best lower bound overall beats
    its upper bound; no act dominates itself, because lo <= hi.
    """
    _require(eu)
    best_lo = max(iv.lo for iv in eu.values())
    return MaximalSet(tuple(a for a, iv in eu.items() if iv.hi >= best_lo))


def maximin(eu: Mapping[str, Interval]) -> str:
    """Act with the best lower expected utility; ties go to the first act."""
    _require(eu)
    return max(eu, key=lambda name: eu[name].lo)


def worst_case_regrets(eu: Mapping[str, Interval]) -> dict[str, float]:
    """Worst-case regret per act: best rival upper bound minus own lower
    bound, floored at zero.  A lone act has regret zero.

    Every act's best rival is the act with the best upper bound, except
    for that act itself, whose best rival holds the second best.
    """
    _require(eu)
    if len(eu) == 1:
        return {a: 0.0 for a in eu}
    top = max(eu, key=lambda a: eu[a].hi)
    best = eu[top].hi
    runner_up = max(iv.hi for a, iv in eu.items() if a != top)
    return {a: max(0.0, (runner_up if a == top else best) - iv.lo)
            for a, iv in eu.items()}


def min_regret(eu: Mapping[str, Interval]) -> str:
    """Act minimizing worst-case regret; ties go to the first act."""
    regrets = worst_case_regrets(eu)
    return min(regrets, key=lambda name: regrets[name])


def _hurwicz_score(iv: Interval, alpha: float) -> float:
    return alpha * iv.hi + (1.0 - alpha) * iv.lo


def hurwicz(eu: Mapping[str, Interval], alpha: float) -> str:
    """Act maximizing alpha*hi + (1-alpha)*lo; ties go to the first act."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"hurwicz alpha must lie in [0, 1], got {alpha!r}")
    _require(eu)
    return max(eu, key=lambda name: _hurwicz_score(eu[name], alpha))


def midpoint_rank(eu: Mapping[str, Interval]) -> list[str]:
    """Acts sorted by descending interval midpoint; ties keep act order."""
    _require(eu)
    return sorted(eu, key=lambda name: -eu[name].midpoint)


def leximin(problem: DecisionProblem, acts: Iterable[str] | None = None) -> str:
    """Act whose sorted outcome utilities are lexicographically best, worst
    outcome first; full ties go to the first act in problem order.

    Each act's utilities are sorted ascending and padded with its best
    value to the longest act's length, so a shorter vector reads as if
    its best outcome repeated.
    """
    wanted = None if acts is None else set(acts)
    vectors = {a.name: sorted(o.utility for o in a.outcomes)
               for a in problem.acts if wanted is None or a.name in wanted}
    if not vectors:
        raise ValueError("no acts to rank")
    width = max(map(len, vectors.values()))
    for v in vectors.values():
        v += v[-1:] * (width - len(v))
    return max(vectors, key=vectors.__getitem__)
