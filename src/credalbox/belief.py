"""Mass functions on small finite frames: combination, discounting, and
the belief/plausibility bounds they induce on events."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from .confidence import _bisect
from .intervals import ProbInterval

#: how far the masses may miss summing to exactly 1
MASS_TOL = 1e-9

#: frames larger than this are refused; the algebra is exponential in atoms
MAX_FRAME = 8


class TotalConflictError(ValueError):
    """Two sources flatly contradict each other; combination is undefined."""


def _as_set(frame: tuple[str, ...], focal) -> frozenset[str]:
    if isinstance(focal, str):
        focal = (focal,)
    out = frozenset(focal)
    if not out:
        raise ValueError("focal sets must be non-empty")
    stray = out - set(frame)
    if stray:
        raise ValueError(f"focal set mentions atoms outside the frame: {sorted(stray)}")
    return out


@dataclass(frozen=True)
class MassFunction:
    """A basic mass assignment over subsets of a frame of 2 to 8 atoms.

    masses may be keyed by frozenset, iterable of atoms, or a single atom
    string; zero-mass entries are dropped so equal functions compare equal.
    """

    frame: tuple[str, ...]
    masses: Mapping

    def __post_init__(self):
        frame = tuple(self.frame)
        object.__setattr__(self, "frame", frame)
        if not 2 <= len(frame) <= MAX_FRAME:
            raise ValueError(
                f"frame must have 2 to {MAX_FRAME} atoms, got {len(frame)}"
            )
        if len(set(frame)) != len(frame):
            raise ValueError("frame atoms must be distinct")
        cleaned: dict[frozenset[str], float] = {}
        for focal, value in dict(self.masses).items():
            key = _as_set(frame, focal)
            if not math.isfinite(value):
                raise ValueError(f"mass for {sorted(key)} is not finite: {value!r}")
            if value < 0.0:
                raise ValueError(f"mass for {sorted(key)} is negative: {value!r}")
            if key in cleaned:
                raise ValueError(f"focal set {sorted(key)} appears twice")
            if value > 0.0:
                cleaned[key] = value
        total = math.fsum(cleaned.values())
        if abs(total - 1.0) > MASS_TOL:
            raise ValueError(f"masses sum to {total!r}, not 1")
        object.__setattr__(self, "masses", cleaned)

    @classmethod
    def vacuous(cls, frame: Iterable[str]) -> MassFunction:
        frame = tuple(frame)
        return cls(frame, {frozenset(frame): 1.0})

    def is_bayesian(self) -> bool:
        return all(len(focal) == 1 for focal in self.masses)

    def mass(self, focal) -> float:
        return self.masses.get(_as_set(self.frame, focal), 0.0)


def discount(m: MassFunction, rate: float) -> MassFunction:
    """Shift a fraction rate of every focal mass onto the whole frame."""
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"discount rate must lie in [0, 1], got {rate!r}")
    theta = frozenset(m.frame)
    out: dict[frozenset[str], float] = {}
    for focal, value in m.masses.items():
        if focal != theta:
            out[focal] = (1.0 - rate) * value
    out[theta] = rate + (1.0 - rate) * m.masses.get(theta, 0.0)
    return MassFunction(m.frame, out)


def dempster_combine(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule: intersect focal sets, renormalize away conflict."""
    if m1.frame != m2.frame:
        raise ValueError(
            f"cannot combine mass functions over different frames "
            f"{m1.frame!r} and {m2.frame!r}"
        )
    acc: dict[frozenset[str], float] = {}
    conflict = 0.0
    for a, va in m1.masses.items():
        for b, vb in m2.masses.items():
            meet = a & b
            weight = va * vb
            if meet:
                acc[meet] = acc.get(meet, 0.0) + weight
            else:
                conflict += weight
    if conflict >= 1.0 - MASS_TOL:
        raise TotalConflictError(
            f"sources are in total conflict (conflict weight {conflict:.9g})"
        )
    norm = 1.0 - conflict
    return MassFunction(m1.frame, {k: v / norm for k, v in acc.items()})


def bel(m: MassFunction, event) -> float:
    """Total mass committed to subsets of the event."""
    ev = _as_set(m.frame, event)
    return math.fsum(v for focal, v in m.masses.items() if focal <= ev)


def pl(m: MassFunction, event) -> float:
    """Total mass not committed against the event."""
    ev = _as_set(m.frame, event)
    return math.fsum(v for focal, v in m.masses.items() if focal & ev)


def bel_pl_interval(m: MassFunction, event) -> ProbInterval:
    """The [belief, plausibility] probability bounds for an event."""
    lo = bel(m, event)
    hi = pl(m, event)
    lo = min(max(lo, 0.0), 1.0)
    hi = min(max(hi, lo), 1.0)
    return ProbInterval(lo, hi)


def discount_threshold(fixed: MassFunction, discounted: MassFunction,
                       event, target: float) -> float:
    """Discount rate at which the combined belief in the event crosses target.

    fixed is combined with discounted-at-rate-r for r in [0, 1]; the
    belief in the event must bracket the target.  Solved to 1e-9 by the
    bisection Clopper-Pearson uses.

    The belief is monotone in r: discounting is linear in r, so the
    combined masses and their conflict are too, and the normalized
    belief is a ratio of two linear functions of r whose denominator
    stays positive wherever the combination is defined.
    """
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
    return _bisect(belief_at, target, at1 > at0, 1e-9)
