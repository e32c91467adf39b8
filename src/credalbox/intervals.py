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


@dataclass(frozen=True)
class ProbInterval(Interval):
    """A closed probability interval, constrained to [0, 1]."""

    __slots__ = ()  # the endpoints live in Interval's slots

    def __post_init__(self):
        super().__post_init__()
        if self.lo < 0.0 or self.hi > 1.0:
            raise ValueError(
                f"probability interval [{self.lo!r}, {self.hi!r}] escapes [0, 1]"
            )

    def complement(self) -> ProbInterval:
        """Bounds on the complementary event: [1 - hi, 1 - lo]."""
        return ProbInterval(1.0 - self.hi, 1.0 - self.lo)


_new = object.__new__
_set_lo = Interval.__dict__["lo"].__set__
_set_hi = Interval.__dict__["hi"].__set__


def _unchecked(cls: type[Interval], lo: float, hi: float) -> Interval:
    """cls(lo, hi) for endpoints the caller has already found valid for
    cls, stored through the slots without running __post_init__.  It
    equals, hashes and prints as cls(lo, hi) does, zero signs included."""
    iv = _new(cls)
    _set_lo(iv, lo)
    _set_hi(iv, hi)
    return iv


#: the vacuous probability interval, committing to nothing
VACUOUS = ProbInterval(0.0, 1.0)
CERTAIN = ProbInterval(1.0, 1.0)
IMPOSSIBLE = ProbInterval(0.0, 0.0)


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
