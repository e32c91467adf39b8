"""Reading and writing decision problems as JSON documents.

A document carries the acts, an optional tolerance block, and at most
one way of stating the credal sequence: either "levels" (per-level
constraint statements and raw interval assertions) or "statements" plus
an "acceptance" rule that grows bodies of knowledge from an initial
corpus.  A document with neither gets the single vacuous level 0.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Mapping

from .engine import ToleranceSpec
from .expectation import Act, DecisionProblem, Outcome, _unchecked_outcome
from .intervals import VACUOUS, ProbInterval, _unchecked
from .knowledge import (
    EMPTY_TABLE,
    BodyOfKnowledge,
    CredalLevel,
    CredalSequence,
    InconsistentBodyError,
    ReferenceClassTable,
    Statement,
    _NEEDS,
    _NO_LEVELS,
    _Resolver,
    _check_error_level,
    _level_drop,
    accept_next_most_probable,
    accept_threshold,
    level_from_body,
    sequence_from_bodies,
)


class ProblemFormatError(ValueError):
    """The document fails validation; the message names the faulty path."""


class _Invalid(Exception):
    """A check failed at path, relative to the value being parsed.  Each
    caller the failure passes through puts its own step in front, so a
    path is built only when parsing fails."""

    def __init__(self, path: str, message: str):
        super().__init__(path, message)
        self.path = path
        self.message = message

    def under(self, step: str) -> _Invalid:
        self.path = step + self.path
        return self


def _fail(path: str, message: str) -> None:
    raise _Invalid(path, message)


def _each(raw, path: str, parse, key=None) -> list:
    """The array at path, each entry parsed by parse(entry, i, done), done
    being the entries parsed before it; a failing entry's path gains [i].
    With key given, the list ends at the first entry whose key(entry) an
    earlier entry has, so that the constructor the caller hands it to
    refuses the repeat before a later entry can fail."""
    done: list = []
    seen = set()
    for i, data in enumerate(_as_list(raw, path)):
        try:
            entry = parse(data, i, done)
        except _Invalid as exc:
            raise exc.under(f"{path}[{i}]")
        done.append(entry)
        if key is not None:
            k = key(entry)
            if k in seen:
                break
            seen.add(k)
    return done


def _built(path: str, make, /, *args, **kwargs):
    """make(*args, **kwargs), with the ValueError it raises failing at path."""
    try:
        return make(*args, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _as_mapping(value, path: str, allowed: set[str] | None = None) -> dict:
    """The value as an object; with allowed given, no other keys may appear."""
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    if allowed is not None and not value.keys() <= allowed:
        _fail(path, f"unknown key {sorted(value.keys() - allowed)[0]!r}")
    return value


def _as_list(value, path: str) -> list:
    if not isinstance(value, list):
        _fail(path, f"expected an array, got {type(value).__name__}")
    return value


def _get(mapping: dict, key: str, path: str):
    if key not in mapping:
        _fail(path, f"missing required key {key!r}")
    return mapping[key]


def _number(value, path: str, lo: float | None = None, hi: float | None = None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    try:
        out = float(value)
    except OverflowError:  # an int past the float range
        out = math.inf if value > 0 else -math.inf
    if not math.isfinite(out):
        _fail(path, f"expected a finite number, got {out!r}")
    if lo is not None and out < lo:
        _fail(path, f"value {out!r} is below {lo}")
    if hi is not None and out > hi:
        _fail(path, f"value {out!r} is above {hi}")
    return out


def _string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "expected a non-empty string")
    return value


def _interval(value, path: str) -> ProbInterval:
    # two ordered floats in [0, 1], the usual value, pass in one check,
    # which implies every check ProbInterval would run; anything else
    # (ints, NaN, a reversed pair) meets every check below
    if (type(value) is list and len(value) == 2 and type(value[0]) is float
            is type(value[1]) and 0.0 <= value[0] <= value[1] <= 1.0):
        return _unchecked(ProbInterval, value[0], value[1])
    pair = _as_list(value, path)
    if len(pair) != 2:
        _fail(path, f"expected [lo, hi], got {len(pair)} entries")
    try:
        lo, hi = _number(pair[0], "[0]"), _number(pair[1], "[1]")
    except _Invalid as exc:
        raise exc.under(path)
    return _built(path, ProbInterval, lo, hi)


_STATEMENT_KEYS = frozenset({"id", "kind", "prob", "event", "interval", "value",
                             "item", "class"})
# Statement's fields at their defaults, in field order; id and kind have
# none and every parse sets them
_STATEMENT_DEFAULTS = {f.name: f.default for f in dataclasses.fields(Statement)}


def _parse_statement(data, fallback_id: str) -> Statement:
    obj = _as_mapping(data, "", _STATEMENT_KEYS)
    kind = _string(_get(obj, "kind", ""), ".kind")
    sid = obj["id"] if "id" in obj else fallback_id
    if not isinstance(sid, str) or not sid:
        _fail(".id", "expected a non-empty string")
    prob = _number(obj.get("prob", 1.0), ".prob", 0.0, 1.0)
    # in field order, as Statement's __init__ would set them
    fields = {**_STATEMENT_DEFAULTS, "id": sid, "kind": kind, "prob": prob}
    if "event" in obj:
        fields["event"] = _string(obj["event"], ".event")
    if "interval" in obj:
        fields["interval"] = _interval(obj["interval"], ".interval")
    if "value" in obj:
        if not isinstance(obj["value"], bool):
            _fail(".value", "expected true or false")
        fields["value"] = obj["value"]
    if "item" in obj:
        fields["item"] = _string(obj["item"], ".item")
    if "class" in obj:
        fields["cls"] = _string(obj["class"], ".class")
    # the checks above are Statement's but two, a known kind and every
    # field it needs; when those hold too, it is built without repeating them
    needs = _NEEDS.get(kind)
    if needs is None or None in map(fields.get, needs):
        return _built("", Statement, **fields)
    s = object.__new__(Statement)
    s.__dict__.update(fields)
    return s


def _parse_statements(raw, path: str, id_prefix: str) -> tuple[Statement, ...]:
    """The array at path as statements; the i-th is named id_prefix + i
    when it has no id of its own.  The array ends at the first repeated
    id, so that _unique_ids names the repeat before a later statement
    can fail."""
    return tuple(_each(raw, path, lambda data, i, _: _parse_statement(
        data, f"{id_prefix}{i}"), attrgetter("id")))


def _unique_ids(statements: tuple[Statement, ...], path: str) -> None:
    if len({s.id for s in statements}) != len(statements):
        _fail(path, "statement ids repeat")


def _statement_to_dict(s: Statement) -> dict:
    out: dict = {"kind": s.kind, "id": s.id, "prob": s.prob}
    if s.event is not None:
        out["event"] = s.event
    if s.interval is not None:
        out["interval"] = [s.interval.lo, s.interval.hi]
    if s.kind == "condition" or s.value is False:
        out["value"] = s.value
    if s.item is not None:
        out["item"] = s.item
    if s.cls is not None:
        out["class"] = s.cls
    return out


@dataclass(frozen=True)
class LevelSpec:
    """One asserted credal level: constraint statements plus raw
    act-keyed interval assertions."""

    error: float
    statements: tuple[Statement, ...] = ()
    overrides: Mapping[str, Mapping[str, ProbInterval]] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "statements", tuple(self.statements))
        frozen = {act: dict(boxes) for act, boxes in self.overrides.items()}
        object.__setattr__(self, "overrides", frozen)


@dataclass(frozen=True)
class ProblemDocument:
    """Everything a problem file states, in resolved form."""

    problem: DecisionProblem
    tolerance: ToleranceSpec = field(default_factory=lambda: ToleranceSpec.explicit(1.0))
    level_specs: tuple[LevelSpec, ...] | None = None
    statements: tuple[Statement, ...] = ()
    rule: str | None = None
    error_levels: tuple[float, ...] = ()
    refs: ReferenceClassTable = EMPTY_TABLE

    def __post_init__(self):
        if self.level_specs is not None:
            object.__setattr__(self, "level_specs", tuple(self.level_specs))
            if not self.level_specs:
                raise ProblemFormatError(_NO_LEVELS)
            for i in range(1, len(self.level_specs)):
                error, previous = self.level_specs[i].error, self.level_specs[i - 1].error
                if error < previous:
                    raise ProblemFormatError(_level_drop(i, error, previous))
        object.__setattr__(self, "statements", tuple(self.statements))
        object.__setattr__(self, "error_levels", tuple(self.error_levels))
        if self.level_specs is not None and (self.statements or self.rule is not None):
            raise ProblemFormatError(
                "document states both levels and statements; pick one"
            )
        if self.statements and self.rule is None:
            raise ProblemFormatError("statements need an acceptance rule")
        if self.rule is not None and self.rule not in ("threshold",
                                                       "next-most-probable"):
            raise ProblemFormatError(f"unknown acceptance rule {self.rule!r}")
        if self.rule == "threshold" and not self.error_levels:
            raise ProblemFormatError("threshold acceptance needs error_levels")

    def build_sequence(self) -> CredalSequence:
        """Resolve the document's credal sequence against its problem."""
        if self.level_specs is not None:
            resolver = _Resolver(self.problem, self.refs)
            levels = []
            for index, spec in enumerate(self.level_specs):
                try:
                    body = BodyOfKnowledge(index, spec.error, spec.statements)
                except InconsistentBodyError as exc:
                    raise InconsistentBodyError(f"body {index}: {exc}") from exc
                levels.append(level_from_body(body, self.problem, self.refs,
                                              extra=spec.overrides, resolver=resolver))
            return CredalSequence(tuple(levels))
        if self.statements:
            if self.rule == "threshold":
                bodies = accept_threshold(self.statements, self.error_levels)
            else:
                bodies = accept_next_most_probable(self.statements)
            return sequence_from_bodies(bodies, self.problem, self.refs)
        return CredalSequence((CredalLevel(0, 0.0, {}),))


def parse_document(data) -> ProblemDocument:
    """Validate a decoded JSON object into a ProblemDocument."""
    try:
        return _parse_root(data)
    except _Invalid as exc:
        raise ProblemFormatError(f"${exc.path}: {exc.message}") from None


def _parse_root(data) -> ProblemDocument:
    root = _as_mapping(data, "", {"problem", "acts", "tolerance", "levels",
                                  "statements", "acceptance", "reference_classes"})
    name = _string(_get(root, "problem", ""), ".problem")
    acts = _each(_get(root, "acts", ""), ".acts", _parse_act, attrgetter("name"))
    problem = _built(".acts", DecisionProblem, name, tuple(acts))

    tolerance = ToleranceSpec.explicit(1.0)
    if "tolerance" in root:
        tolerance = _parse_tolerance(root["tolerance"])

    if "levels" in root and ("statements" in root or "acceptance" in root):
        _fail("", "document states both levels and statements; pick one")
    level_specs = None
    if "levels" in root:
        level_specs = _each(root["levels"], ".levels",
                            lambda raw, i, done: _parse_level(raw, i, done, problem))
        if not level_specs:
            _fail(".levels", _NO_LEVELS)

    statements: tuple[Statement, ...] = ()
    rule = None
    error_levels: list[float] = []
    if "statements" in root or "acceptance" in root:
        if "statements" not in root or "acceptance" not in root:
            _fail("", "statements and acceptance must appear together")
        statements = _parse_statements(root["statements"], ".statements", "s")
        _unique_ids(statements, ".statements")
        rule, error_levels = _parse_acceptance(root["acceptance"])

    refs = EMPTY_TABLE
    if "reference_classes" in root:
        refs = _parse_refs(root["reference_classes"])

    return ProblemDocument(
        problem=problem, tolerance=tolerance, level_specs=level_specs,
        statements=statements, rule=rule, error_levels=error_levels,
        refs=refs,
    )


def _parse_act(raw, *_) -> Act:
    obj = _as_mapping(raw, "", {"name", "outcomes"})
    name = _string(_get(obj, "name", ""), ".name")
    outcomes = _each(_get(obj, "outcomes", ""), ".outcomes", _parse_outcome,
                     attrgetter("label"))
    return _built("", Act, name, tuple(outcomes))


_OUTCOME_KEYS = frozenset({"label", "utility", "prob"})


def _parse_outcome(raw, *_) -> Outcome:
    # a non-empty str label and a finite float utility, the usual outcome,
    # pass in one check, which is all Outcome's would do; anything else
    # meets every check below
    if (type(raw) is dict and raw.keys() <= _OUTCOME_KEYS
            and type(label := raw.get("label")) is str and label
            and type(utility := raw.get("utility")) is float
            and -math.inf < utility < math.inf):
        return _unchecked_outcome(
            label, utility,
            _interval(raw["prob"], ".prob") if "prob" in raw else VACUOUS)
    out = _as_mapping(raw, "", _OUTCOME_KEYS)
    return Outcome(
        _string(_get(out, "label", ""), ".label"),
        _number(_get(out, "utility", ""), ".utility"),
        _interval(out["prob"], ".prob") if "prob" in out else VACUOUS,
    )


def _parse_tolerance(raw) -> ToleranceSpec:
    obj = _as_mapping(raw, ".tolerance", {"mode", "max_error"})
    mode = _string(_get(obj, "mode", ".tolerance"), ".tolerance.mode")
    if mode == "explicit":
        return ToleranceSpec.explicit(_number(_get(obj, "max_error", ".tolerance"),
                                              ".tolerance.max_error", 0.0, 1.0))
    if mode == "odds-derived":
        if "max_error" in obj:
            _fail(".tolerance", "odds-derived tolerance carries no max_error")
        return ToleranceSpec.odds_derived()
    _fail(".tolerance.mode", f"unknown tolerance mode {mode!r}")


def _parse_refs(raw) -> ReferenceClassTable:
    obj = _as_mapping(raw, ".reference_classes", {"entries", "specificity"})
    entries = _each(obj.get("entries", []), ".reference_classes.entries", _parse_entry)
    pairs = _each(obj.get("specificity", []), ".reference_classes.specificity",
                  _parse_pair)
    return _built(".reference_classes", ReferenceClassTable, tuple(entries),
                  frozenset(pairs))


def _parse_entry(data, *_) -> tuple[str, str, ProbInterval]:
    entry = _as_mapping(data, "", {"class", "event", "interval"})
    return (_string(_get(entry, "class", ""), ".class"),
            _string(_get(entry, "event", ""), ".event"),
            _interval(_get(entry, "interval", ""), ".interval"))


def _parse_pair(data, *_) -> tuple[str, str]:
    pair = _as_list(data, "")
    if len(pair) != 2:
        _fail("", "expected [more_specific, less_specific]")
    return _string(pair[0], "[0]"), _string(pair[1], "[1]")


def _parse_level(raw, i: int, done: list[LevelSpec],
                 problem: DecisionProblem) -> LevelSpec:
    """The i-th level; done holds the levels before it."""
    obj = _as_mapping(raw, "", {"error", "constraints", "overrides"})
    error = _number(_get(obj, "error", ""), ".error", 0.0, 1.0)
    if done and error < done[-1].error:
        _fail(".error", _level_drop(i, error, done[-1].error))
    constraints = _parse_statements(obj.get("constraints", []), ".constraints",
                                    f"level{i}.c")
    for c in constraints:
        if c.prob != 1.0:
            _fail(".constraints", "level constraints are assertions; prob must stay 1")
    _unique_ids(constraints, ".constraints")
    overrides: dict[str, dict[str, ProbInterval]] = {}
    for act_name, raw_box in _as_mapping(obj.get("overrides", {}), ".overrides").items():
        try:
            overrides[act_name] = _parse_box(raw_box, act_name, problem)
        except _Invalid as exc:
            raise exc.under(f".overrides.{act_name}")
    # LevelSpec(error, constraints, overrides) without copying the boxes,
    # which were built here and are held nowhere else
    spec = object.__new__(LevelSpec)
    spec.__dict__.update(error=error, statements=constraints, overrides=overrides)
    return spec


def _parse_box(raw, act_name: str, problem: DecisionProblem) -> dict[str, ProbInterval]:
    """One act's override box."""
    try:
        labels = problem.act(act_name).labels()
    except KeyError:
        _fail("", f"unknown act {act_name!r}")
    box = {}
    for label, raw_iv in _as_mapping(raw, "").items():
        try:
            if label not in labels:
                _fail("", f"unknown outcome {label!r} of act {act_name!r}")
            box[label] = _interval(raw_iv, "")
        except _Invalid as exc:
            raise exc.under(f".{label}")
    return box


def _parse_acceptance(raw) -> tuple[str, list[float]]:
    obj = _as_mapping(raw, ".acceptance", {"rule", "error_levels"})
    rule = _string(_get(obj, "rule", ".acceptance"), ".acceptance.rule")
    error_levels: list[float] = []
    if rule == "threshold":
        error_levels = _each(_get(obj, "error_levels", ".acceptance"),
                             ".acceptance.error_levels", _error_level)
        if not error_levels:
            _fail(".acceptance.error_levels",
                  "threshold acceptance needs at least one error level")
    elif rule == "next-most-probable":
        if "error_levels" in obj:
            _fail(".acceptance", "next-most-probable acceptance takes no error_levels")
    else:
        _fail(".acceptance.rule", f"unknown acceptance rule {rule!r}")
    return rule, error_levels


def _error_level(data, i: int, done: list[float]) -> float:
    eps = _number(data, "", 0.0, 1.0)
    _built("", _check_error_level, eps, done[-1] if done else None)
    return eps


def document_to_dict(doc: ProblemDocument) -> dict:
    """Serialize back to the JSON document shape; re-parsing the result
    yields an equal document."""
    out: dict = {
        "problem": doc.problem.name,
        "acts": [
            {
                "name": act.name,
                "outcomes": [
                    {
                        "label": o.label,
                        "utility": o.utility,
                        "prob": [o.prob.lo, o.prob.hi],
                    }
                    for o in act.outcomes
                ],
            }
            for act in doc.problem.acts
        ],
        "tolerance": (
            {"mode": "explicit", "max_error": doc.tolerance.max_error}
            if doc.tolerance.mode == "explicit" else {"mode": "odds-derived"}
        ),
    }
    if doc.level_specs is not None:
        out["levels"] = [
            {
                "error": spec.error,
                "constraints": [
                    _statement_to_dict(s) for s in spec.statements
                ],
                "overrides": {
                    act: {label: [iv.lo, iv.hi] for label, iv in box.items()}
                    for act, box in spec.overrides.items()
                },
            }
            for spec in doc.level_specs
        ]
    if doc.rule is not None:
        out["statements"] = [
            _statement_to_dict(s) for s in doc.statements
        ]
        acceptance: dict = {"rule": doc.rule}
        if doc.rule == "threshold":
            acceptance["error_levels"] = list(doc.error_levels)
        out["acceptance"] = acceptance
    if doc.refs.entries or doc.refs.specificity:
        out["reference_classes"] = {
            "entries": [
                {"class": cls, "event": event, "interval": [iv.lo, iv.hi]}
                for cls, event, iv in doc.refs.entries
            ],
            "specificity": sorted(
                [list(pair) for pair in doc.refs.specificity]
            ),
        }
    return out


def loads(text: str) -> ProblemDocument:
    # besides a JSONDecodeError, json raises a RecursionError for deep
    # nesting and a bare ValueError for an integer past int's digit limit
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    return parse_document(data)


def dumps(doc: ProblemDocument) -> str:
    """The document as JSON text that loads reads back equal.  A document
    built through the API that the parser would refuse is refused here
    with the parser's ProblemFormatError, and one that would read back
    different names the first field that differs."""
    data = document_to_dict(doc)
    again = parse_document(data)
    if again != doc:
        name = next(name for name in doc.__dataclass_fields__
                    if getattr(again, name) != getattr(doc, name))
        raise ProblemFormatError(f"$: the document's {name} would not read back equal")
    return json.dumps(data, indent=2)


def load_path(path) -> ProblemDocument:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    return loads(text)


def sequence_to_dict(seq: CredalSequence) -> dict:
    """Canonical serialization of a resolved credal sequence."""
    return {
        "levels": [
            {
                "index": level.index,
                "error": level.error,
                "assignments": {
                    act: {label: [iv.lo, iv.hi] for label, iv in sorted(box.items())}
                    for act, box in sorted(level.assignments.items())
                },
            }
            for level in seq.levels
        ]
    }


def sequence_bytes(seq: CredalSequence) -> bytes:
    """Byte-stable form of a credal sequence, for purity checks."""
    return json.dumps(sequence_to_dict(seq), sort_keys=True).encode("utf-8")
