"""Closed-interval values for utilities and probabilities."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True, slots=True)
class Interval:
    """A closed real interval [lo, hi].

    Slotted: an instance holds its two endpoints and no __dict__.
    """

    lo: float
    hi: float

    def __post_init__(self):
        if math.isnan(self.lo) or math.isnan(self.hi):
            raise ValueError("interval endpoints must not be NaN")
        if self.lo > self.hi:
            raise ValueError(
                f"lower endpoint {self.lo!r} exceeds upper endpoint {self.hi!r}"
            )

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def __str__(self) -> str:
        return f"[{self.lo:g}, {self.hi:g}]"


@dataclass(frozen=True, slots=True)
class ProbInterval(Interval):
    """A closed probability interval, constrained to [0, 1]."""

    def __post_init__(self):
        # two floats in order pass at once; anything else meets every check
        if type(self.lo) is float is type(self.hi) and 0.0 <= self.lo <= self.hi <= 1.0:
            return
        # slots=True rebuilds the class, which leaves zero-argument
        # super() pointing at the class it replaced
        Interval.__post_init__(self)
        if self.lo < 0.0 or self.hi > 1.0:
            raise ValueError(
                f"probability interval [{self.lo!r}, {self.hi!r}] escapes [0, 1]"
            )

    def complement(self) -> ProbInterval:
        """Bounds on the complementary event: [1 - hi, 1 - lo]."""
        return ProbInterval(1.0 - self.hi, 1.0 - self.lo)


#: the vacuous probability interval, committing to nothing
VACUOUS = ProbInterval(0.0, 1.0)
CERTAIN = ProbInterval(1.0, 1.0)
IMPOSSIBLE = ProbInterval(0.0, 0.0)


def scale_add(iv: Interval, c: float, d: float) -> Interval:
    """Image of the interval under x -> c*x + d."""
    a = c * iv.lo + d
    b = c * iv.hi + d
    return Interval(min(a, b), max(a, b))


def frechet_and(p: ProbInterval, q: ProbInterval) -> ProbInterval:
    """Tightest bounds on P(A and B) given only marginal bounds on A and B.

    Nothing is assumed about how the two events interact, so the lower
    bound is max(0, p.lo + q.lo - 1) and the upper is min(p.hi, q.hi).
    The lower bound never exceeds the upper in exact arithmetic, but the
    float sum can round just above it (1.0 + x - 1.0 > x for some x), so
    it is capped at the upper bound.
    """
    hi = min(p.hi, q.hi)
    return ProbInterval(min(max(0.0, p.lo + q.lo - 1.0), hi), hi)


def intersect(p: ProbInterval, q: ProbInterval) -> ProbInterval | None:
    """Intersection of two probability intervals, or None when disjoint."""
    lo = max(p.lo, q.lo)
    hi = min(p.hi, q.hi)
    if lo > hi:
        return None
    return ProbInterval(lo, hi)


def dominates(a: Interval, b: Interval) -> bool:
    """True when a's worst value strictly beats b's best value."""
    return a.lo > b.hi
