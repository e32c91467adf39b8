"""Best-first exploration of a credal sequence under a tolerable-error
cutoff, plus two point-probability extensions: mixture expected utility
over weighted credal members and the share-of-parameter-range criterion."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii as _quote
from operator import mul as _mul
from typing import Callable, Mapping, Sequence

from .expectation import DecisionProblem, FeasibilityError, eu_all
from .intervals import Interval
# not called here: perfbench/tracing.py binds its apply_level span on it
from .knowledge import CredalSequence, _read_level, _refuse_bool, apply_level
from .ordering import maximal_set, maximin

DECIDED = "decided"
RISK_PROBLEM = "risk-problem"
NO_MANDATE = "no-mandate"


class InfeasibleLevelError(ValueError):
    """A credal level leaves some act with an empty probability box."""


@dataclass(frozen=True)
class ToleranceSpec:
    """How much probability of error the agent will tolerate.

    explicit mode carries the cutoff directly; odds-derived mode reads it
    off the stakes, as 1/(rho + 1) for rho the ratio of the larger of
    best gain and worst loss to the smaller.
    """

    mode: str
    max_error: float | None = None

    def __post_init__(self):
        if self.mode not in ("explicit", "odds-derived"):
            raise ValueError(f"unknown tolerance mode {self.mode!r}")
        if self.mode == "explicit":
            # a bool passes the range test but is no number in a report
            if (self.max_error is None or isinstance(self.max_error, bool)
                    or not 0.0 <= self.max_error <= 1.0):
                raise ValueError(
                    f"explicit tolerance needs max_error in [0, 1], "
                    f"got {self.max_error!r}"
                )
        elif self.max_error is not None:
            raise ValueError("odds-derived tolerance carries no max_error")

    @classmethod
    def explicit(cls, max_error: float) -> ToleranceSpec:
        return cls(mode="explicit", max_error=max_error)

    @classmethod
    def odds_derived(cls) -> ToleranceSpec:
        return cls(mode="odds-derived")


def tolerable_error(problem: DecisionProblem, spec: ToleranceSpec) -> float:
    """Resolve a tolerance spec against a problem's stakes."""
    if spec.mode == "explicit":
        return spec.max_error
    utilities = [o.utility for act in problem.acts for o in act.outcomes]
    gain = max(utilities)
    loss = -min(utilities)
    if gain <= 0.0 or loss <= 0.0:
        raise ValueError(
            "odds-derived tolerance needs both a positive gain and a "
            "positive loss among the outcome utilities"
        )
    rho = max(gain, loss) / min(gain, loss)
    if math.isinf(rho):
        # the limit of 1/(rho + 1); the expression below would give NaN
        return 0.0
    return 1.0 - rho / (rho + 1.0)


@dataclass(frozen=True)
class TraceRow:
    """What one explored level looked like."""

    index: int
    error: float
    eu: Mapping[str, Interval]
    maximal: tuple[str, ...]

    def __post_init__(self):
        _refuse_bool("trace row index", self.index, "an int")
        _refuse_bool("trace row error", self.error, "a number")
        object.__setattr__(self, "eu", dict(self.eu))
        object.__setattr__(self, "maximal", tuple(self.maximal))


_float_repr = float.__repr__
_int_repr = int.__repr__
_isfinite = math.isfinite


def _json_scalar(x) -> str:
    """x as json.dumps writes it inside an indent-2, allow_nan=False
    document.  A finite float is its repr; a non-finite one raises json's
    own ValueError.  A container raises TypeError, which hands the whole
    report to json."""
    kind = type(x)
    if kind is float and _isfinite(x):
        return _float_repr(x)
    if kind is str:
        return _quote(x)
    if kind is int:
        return _int_repr(x)
    if x is None or isinstance(x, (str, int, float)):
        # bools, subclasses and non-finite floats
        return json.dumps(x, indent=2, allow_nan=False)
    raise TypeError(f"not a JSON scalar: {kind.__name__}")


def _block(opening: str, entries: list[str], closing: str, indent: int) -> str:
    """A JSON array or object whose entries, already written, sit one
    step below a line indented by indent spaces."""
    if not entries:
        return opening + closing
    pad = "\n" + " " * indent
    return f"{opening}{pad}  " + f",{pad}  ".join(entries) + f"{pad}{closing}"


@dataclass(frozen=True)
class DecisionReport:
    """Outcome of exploring a credal sequence.

    status is decided (a single act survives dominance), risk-problem
    (every box collapsed to a point and point expected utility tied), or
    no-mandate (the tolerance cut exploration off first).
    """

    problem: str
    status: str
    tolerance: float
    act: str | None = None
    level_used: int | None = None
    error_used: float | None = None
    ambiguous: bool = False
    trace: tuple[TraceRow, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "trace", tuple(self.trace))
        if self.status not in (DECIDED, RISK_PROBLEM, NO_MANDATE):
            raise ValueError(f"unknown report status {self.status!r}")
        _refuse_bool("report tolerance", self.tolerance, "a number")
        _refuse_bool("report level_used", self.level_used, "an int")
        _refuse_bool("report error_used", self.error_used, "a number")

    def to_dict(self) -> dict:
        return {
            "problem": self.problem,
            "status": self.status,
            "tolerance": self.tolerance,
            "act": self.act,
            "level_used": self.level_used,
            "error_used": self.error_used,
            "ambiguous": self.ambiguous,
            "trace": [
                {
                    "index": row.index,
                    "error": row.error,
                    "eu": {
                        name: [iv.lo, iv.hi]
                        for name, iv in row.eu.items()
                    },
                    "maximal": list(row.maximal),
                }
                for row in self.trace
            ],
        }

    def to_json(self) -> str:
        """The report exactly as json.dumps(self.to_dict(), indent=2,
        allow_nan=False) writes it, without building the dict.

        A value of a type the report does not declare (a container, say)
        is left to json, which then encodes the report through to_dict.
        """
        try:
            return self._write_json()
        except TypeError:
            return json.dumps(self.to_dict(), indent=2, allow_nan=False)

    def _write_json(self) -> str:
        # written in document order, so the first non-finite float is the
        # one json would refuse
        head = (
            f'{{\n  "problem": {_json_scalar(self.problem)},\n'
            f'  "status": {_json_scalar(self.status)},\n'
            f'  "tolerance": {_json_scalar(self.tolerance)},\n'
            f'  "act": {_json_scalar(self.act)},\n'
            f'  "level_used": {_json_scalar(self.level_used)},\n'
            f'  "error_used": {_json_scalar(self.error_used)},\n'
            f'  "ambiguous": {_json_scalar(self.ambiguous)},\n'
            '  "trace": '
        )
        # (act name, id of its interval) -> the entry as written: an act
        # the levels leave unboxed brings back the same interval object
        # row after row.  The report holds every interval until this
        # returns, so no id is reused meanwhile.
        written: dict = {}
        rows = []
        for row in self.trace:
            start = (f'{{\n      "index": {_json_scalar(row.index)},\n'
                     f'      "error": {_json_scalar(row.error)},\n      "eu": ')
            entries = []
            for name, iv in row.eu.items():
                text = written.get((name, id(iv)))
                if text is None:
                    text = written[name, id(iv)] = (
                        f'{_quote(name)}: [\n          {_json_scalar(iv.lo)},\n'
                        f'          {_json_scalar(iv.hi)}\n        ]')
                entries.append(text)
            eu = _block("{", entries, "}", 6)
            maximal = _block("[", list(map(_quote, row.maximal)), "]", 6)
            rows.append(f'{start}{eu},\n      "maximal": {maximal}\n    }}')
        return head + _block("[", rows, "]", 2) + "\n}"


def explore(problem: DecisionProblem, seq: CredalSequence,
            spec: ToleranceSpec | None = None) -> DecisionReport:
    """Walk the sequence from level 0 while error stays below tolerance.

    Each level's expected utilities come straight from its checked
    bounds, by eu_all; no act is rebuilt, and a level that resolution
    built against this problem is not checked again.
    Stops with a decision at the first level whose maximal set is a
    single act.  A level whose boxes have all collapsed to points with
    the top acts still tied is reported as a bare risk problem: the first
    best act is named and flagged ambiguous.  Running out of tolerable
    levels yields no mandate.
    """
    spec = spec if spec is not None else ToleranceSpec.explicit(1.0)
    tolerance = tolerable_error(problem, spec)
    trace: list[TraceRow] = []
    for level in seq.levels:
        if level.error >= tolerance:
            break
        try:
            bounds = _read_level(level, problem)
            eu = eu_all(problem, _checked=bounds)
        except FeasibilityError as exc:
            raise InfeasibleLevelError(
                f"level {level.index} (error {level.error:g}): {exc}"
            ) from exc
        surviving = maximal_set(eu)
        trace.append(TraceRow(level.index, level.error, eu, surviving.names))
        if len(surviving) == 1:
            return DecisionReport(
                problem=problem.name, status=DECIDED, tolerance=tolerance,
                act=surviving.names[0], level_used=level.index,
                error_used=level.error, trace=tuple(trace),
            )
        if all(lows == highs for lows, highs in (
                b or act._declared for act, b in zip(problem.acts, bounds))):
            # all points, so ties are certain: a unique point maximum
            # would have been a singleton maximal set already
            return DecisionReport(
                problem=problem.name, status=RISK_PROBLEM, tolerance=tolerance,
                act=maximin(eu), level_used=level.index, error_used=level.error,
                ambiguous=True, trace=tuple(trace),
            )
    return DecisionReport(
        problem=problem.name, status=NO_MANDATE, tolerance=tolerance,
        trace=tuple(trace),
    )


def _point_eu(utils: Sequence[float], probs: Sequence[float], act: str) -> float:
    if len(utils) != len(probs):
        raise ValueError(
            f"act {act!r}: {len(probs)} probabilities for {len(utils)} outcomes"
        )
    try:
        total = math.fsum(probs)
    except ValueError:  # inf + -inf
        total = math.nan
    if not abs(total - 1.0) <= 1e-9:  # NaN fails here too
        if not all(map(math.isfinite, probs)):
            raise ValueError(f"act {act!r}: probabilities must be finite numbers")
        raise ValueError(f"act {act!r}: probabilities sum to {total!r}, not 1")
    # every entry is finite here, so min sees no NaN
    if min(probs) < 0.0:
        raise ValueError(f"act {act!r}: negative probability")
    return math.fsum(map(_mul, probs, utils))


@dataclass(frozen=True)
class WeightedCredal:
    """Finitely many point-probability members with weights summing to 1.

    Each member maps act name -> per-outcome probabilities, aligned with
    the act's outcome order.
    """

    members: tuple[tuple[Mapping[str, Sequence[float]], float], ...]

    def __post_init__(self):
        members = tuple(
            ({act: tuple(probs) for act, probs in assignment.items()}, weight)
            for assignment, weight in self.members
        )
        object.__setattr__(self, "members", members)
        if not members:
            raise ValueError("a weighted credal needs at least one member")
        for pos, (_, w) in enumerate(members):
            if not math.isfinite(w):
                raise ValueError(f"member {pos} has non-finite weight {w!r}")
            if w < 0.0:
                raise ValueError("member weights must be non-negative")
        total = math.fsum(w for _, w in members)
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"member weights sum to {total!r}, not 1")


def higher_order_eu(problem: DecisionProblem, credal: WeightedCredal
                    ) -> dict[str, float]:
    """Weight-averaged point expected utility per act."""
    out: dict[str, float] = {}
    for act in problem.acts:
        utils = [o.utility for o in act.outcomes]
        terms = []
        for assignment, weight in credal.members:
            if act.name not in assignment:
                raise ValueError(f"a member assigns nothing to act {act.name!r}")
            terms.append(weight * _point_eu(utils, assignment[act.name], act.name))
        out[act.name] = math.fsum(terms)
    return out


@dataclass(frozen=True)
class ParameterizedCredal:
    """Credal members indexed by one real parameter over [lo, hi].

    mapping sends a parameter value to act-keyed outcome distributions;
    resolution fixes the uniform evaluation grid.  The range must be
    non-empty, with finite endpoints and a finite span, and resolution an
    int (not a bool) of at least 100; anything else is refused with a
    ValueError.
    """

    lo: float
    hi: float
    mapping: Callable[[float], Mapping[str, Sequence[float]]]
    resolution: int = 1000

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(
                f"parameter range [{self.lo!r}, {self.hi!r}] must be non-empty"
            )
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError(
                f"parameter range [{self.lo!r}, {self.hi!r}] must have "
                f"finite endpoints"
            )
        if math.isinf(self.hi - self.lo):
            raise ValueError(
                f"parameter range [{self.lo!r}, {self.hi!r}] must have a "
                f"finite span"
            )
        if isinstance(self.resolution, bool) or not isinstance(self.resolution, int):
            raise ValueError(
                f"resolution must be an int, got {self.resolution!r}"
            )
        if self.resolution < 100:
            raise ValueError(
                f"resolution must be at least 100, got {self.resolution!r}"
            )


def starr(problem: DecisionProblem, credal: ParameterizedCredal
          ) -> tuple[str, dict[str, float]]:
    """Share of the parameter range where each act is point-optimal.

    The range is sampled at cell midpoints; a grid point where several
    acts tie contributes equally to each.  Returns the act with the
    largest share (ties to the first act) and every act's share.
    """
    span = credal.hi - credal.lo
    step = span / credal.resolution
    share = 1.0 / credal.resolution
    acts = [(act.name, [o.utility for o in act.outcomes]) for act in problem.acts]
    names = [name for name, _ in acts]
    measures = dict.fromkeys(names, 0.0)
    for k in range(credal.resolution):
        theta = credal.lo + (k + 0.5) * step
        assignment = credal.mapping(theta)
        scores = []
        for name, utils in acts:
            if name not in assignment:
                raise ValueError(
                    f"parameter {theta!r}: no distribution for act {name!r}"
                )
            scores.append(_point_eu(utils, assignment[name], name))
        # the scores are finite, so == finds exactly the acts at the best
        best = max(scores)
        if scores.count(best) == 1:
            measures[names[scores.index(best)]] += share
        else:
            winners = [name for name, value in zip(names, scores) if value == best]
            for name in winners:
                measures[name] += share / len(winners)
    winner = max(measures, key=lambda name: measures[name])
    return winner, measures
