"""Reading and writing decision problems as JSON documents.

A document carries the acts, an optional tolerance block, and at most
one way of stating the credal sequence: either "levels" (per-level
constraint statements and raw interval assertions) or "statements" plus
an "acceptance" rule that grows bodies of knowledge from an initial
corpus.  A document with neither gets the single vacuous level 0.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

from .engine import ToleranceSpec
from .expectation import Act, DecisionProblem, Outcome
from .intervals import VACUOUS, ProbInterval
from .knowledge import (
    EMPTY_TABLE,
    BodyOfKnowledge,
    CredalLevel,
    CredalSequence,
    ReferenceClassTable,
    Statement,
    accept_next_most_probable,
    accept_threshold,
    level_from_body,
    sequence_from_bodies,
)


class ProblemFormatError(ValueError):
    """The document fails validation; the message names the faulty path."""


def _fail(path: str, message: str) -> None:
    raise ProblemFormatError(f"{path}: {message}")


def _as_mapping(value, path: str, allowed: set[str] | None = None) -> dict:
    """The value as an object; with allowed given, no other keys may appear."""
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    if allowed is not None:
        unknown = set(value) - allowed
        if unknown:
            _fail(path, f"unknown key {sorted(unknown)[0]!r}")
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
    except OverflowError:
        out = math.inf
    if not math.isfinite(out):
        _fail(path, f"expected a finite number, got {out!r}")
    if lo is not None and out < lo:
        _fail(path, f"value {out!r} is below {lo}")
    if hi is not None and out > hi:
        _fail(path, f"value {out!r} is above {hi}")
    return out


_NO_LEVELS = "a credal sequence needs at least one level"


def _level_drop(i: int, error: float, previous: float) -> str:
    return f"level {i} error {error} drops below level {i - 1} error {previous}"


def _string(value, path: str) -> str:
    if not isinstance(value, str) or not value:
        _fail(path, "expected a non-empty string")
    return value


def _interval(value, path: str) -> ProbInterval:
    pair = _as_list(value, path)
    if len(pair) != 2:
        _fail(path, f"expected [lo, hi], got {len(pair)} entries")
    lo = _number(pair[0], f"{path}[0]")
    hi = _number(pair[1], f"{path}[1]")
    try:
        return ProbInterval(lo, hi)
    except ValueError as exc:
        _fail(path, str(exc))


def _parse_statement(data, path: str, fallback_id: str) -> Statement:
    obj = _as_mapping(data, path, {"id", "kind", "prob", "event", "interval",
                                   "value", "item", "class"})
    kind = _string(_get(obj, "kind", path), f"{path}.kind")
    sid = obj.get("id", fallback_id)
    if not isinstance(sid, str) or not sid:
        _fail(f"{path}.id", "expected a non-empty string")
    prob = _number(obj.get("prob", 1.0), f"{path}.prob", 0.0, 1.0)
    kwargs = {}
    if "event" in obj:
        kwargs["event"] = _string(obj["event"], f"{path}.event")
    if "interval" in obj:
        kwargs["interval"] = _interval(obj["interval"], f"{path}.interval")
    if "value" in obj:
        if not isinstance(obj["value"], bool):
            _fail(f"{path}.value", "expected true or false")
        kwargs["value"] = obj["value"]
    if "item" in obj:
        kwargs["item"] = _string(obj["item"], f"{path}.item")
    if "class" in obj:
        kwargs["cls"] = _string(obj["class"], f"{path}.class")
    try:
        return Statement(id=sid, kind=kind, prob=prob, **kwargs)
    except ValueError as exc:
        _fail(path, str(exc))


def _statement_to_dict(s: Statement) -> dict:
    out: dict = {"kind": s.kind, "id": s.id, "prob": s.prob}
    if s.event is not None:
        out["event"] = s.event
    if s.interval is not None:
        out["interval"] = [s.interval.lo, s.interval.hi]
    if s.kind == "condition":
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
        if self.level_specs is not None and self.statements:
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
            levels = []
            for index, spec in enumerate(self.level_specs):
                body = BodyOfKnowledge(index, spec.error, spec.statements)
                levels.append(level_from_body(
                    body, self.problem, self.refs, extra=spec.overrides))
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
    root = _as_mapping(data, "$", {"problem", "acts", "tolerance", "levels",
                                   "statements", "acceptance", "reference_classes"})
    name = _string(_get(root, "problem", "$"), "$.problem")

    acts = []
    for i, raw_act in enumerate(_as_list(_get(root, "acts", "$"), "$.acts")):
        apath = f"$.acts[{i}]"
        obj = _as_mapping(raw_act, apath, {"name", "outcomes"})
        act_name = _string(_get(obj, "name", apath), f"{apath}.name")
        outcomes = []
        raw_outs = _as_list(_get(obj, "outcomes", apath), f"{apath}.outcomes")
        for j, raw_out in enumerate(raw_outs):
            opath = f"{apath}.outcomes[{j}]"
            oobj = _as_mapping(raw_out, opath, {"label", "utility", "prob"})
            label = _string(_get(oobj, "label", opath), f"{opath}.label")
            utility = _number(_get(oobj, "utility", opath), f"{opath}.utility")
            prob = VACUOUS
            if "prob" in oobj:
                prob = _interval(oobj["prob"], f"{opath}.prob")
            outcomes.append(Outcome(label, utility, prob))
        try:
            acts.append(Act(act_name, tuple(outcomes)))
        except ValueError as exc:
            _fail(apath, str(exc))
    try:
        problem = DecisionProblem(name, tuple(acts))
    except ValueError as exc:
        _fail("$.acts", str(exc))

    tolerance = ToleranceSpec.explicit(1.0)
    if "tolerance" in root:
        tpath = "$.tolerance"
        tobj = _as_mapping(root["tolerance"], tpath, {"mode", "max_error"})
        mode = _string(_get(tobj, "mode", tpath), f"{tpath}.mode")
        if mode == "explicit":
            max_error = _number(_get(tobj, "max_error", tpath),
                                f"{tpath}.max_error", 0.0, 1.0)
            tolerance = ToleranceSpec.explicit(max_error)
        elif mode == "odds-derived":
            if "max_error" in tobj:
                _fail(tpath, "odds-derived tolerance carries no max_error")
            tolerance = ToleranceSpec.odds_derived()
        else:
            _fail(f"{tpath}.mode", f"unknown tolerance mode {mode!r}")

    refs = EMPTY_TABLE
    if "reference_classes" in root:
        rpath = "$.reference_classes"
        robj = _as_mapping(root["reference_classes"], rpath,
                           {"entries", "specificity"})
        entries = []
        for i, raw in enumerate(_as_list(robj.get("entries", []), f"{rpath}.entries")):
            epath = f"{rpath}.entries[{i}]"
            eobj = _as_mapping(raw, epath, {"class", "event", "interval"})
            entries.append((
                _string(_get(eobj, "class", epath), f"{epath}.class"),
                _string(_get(eobj, "event", epath), f"{epath}.event"),
                _interval(_get(eobj, "interval", epath), f"{epath}.interval"),
            ))
        pairs = []
        for i, raw in enumerate(_as_list(robj.get("specificity", []),
                                         f"{rpath}.specificity")):
            ppath = f"{rpath}.specificity[{i}]"
            pair = _as_list(raw, ppath)
            if len(pair) != 2:
                _fail(ppath, "expected [more_specific, less_specific]")
            pairs.append((_string(pair[0], f"{ppath}[0]"),
                          _string(pair[1], f"{ppath}[1]")))
        try:
            refs = ReferenceClassTable(tuple(entries), frozenset(pairs))
        except ValueError as exc:
            _fail(rpath, str(exc))

    if "levels" in root and ("statements" in root or "acceptance" in root):
        _fail("$", "document states both levels and statements; pick one")

    level_specs = None
    if "levels" in root:
        labels_of = {a.name: a.labels() for a in problem.acts}
        level_specs = []
        for i, raw in enumerate(_as_list(root["levels"], "$.levels")):
            lpath = f"$.levels[{i}]"
            lobj = _as_mapping(raw, lpath, {"error", "constraints", "overrides"})
            error = _number(_get(lobj, "error", lpath), f"{lpath}.error", 0.0, 1.0)
            if level_specs and error < level_specs[-1].error:
                _fail(f"{lpath}.error", _level_drop(i, error, level_specs[-1].error))
            constraints = tuple(
                _parse_statement(raw_c, f"{lpath}.constraints[{j}]",
                                 f"level{i}.c{j}")
                for j, raw_c in enumerate(_as_list(lobj.get("constraints", []),
                                                   f"{lpath}.constraints"))
            )
            overrides: dict[str, dict[str, ProbInterval]] = {}
            if "overrides" in lobj:
                opath = f"{lpath}.overrides"
                for act_name, raw_box in _as_mapping(lobj["overrides"], opath).items():
                    if act_name not in labels_of:
                        _fail(f"{opath}.{act_name}", f"unknown act {act_name!r}")
                    box = {}
                    for label, raw_iv in _as_mapping(
                            raw_box, f"{opath}.{act_name}").items():
                        if label not in labels_of[act_name]:
                            _fail(f"{opath}.{act_name}.{label}",
                                  f"unknown outcome {label!r} of act {act_name!r}")
                        box[label] = _interval(raw_iv, f"{opath}.{act_name}.{label}")
                    overrides[act_name] = box
            for c in constraints:
                if c.prob != 1.0:
                    _fail(f"{lpath}.constraints",
                          "level constraints are assertions; prob must stay 1")
            level_specs.append(LevelSpec(error, constraints, overrides))
        if not level_specs:
            _fail("$.levels", _NO_LEVELS)

    statements: tuple[Statement, ...] = ()
    rule = None
    error_levels: list[float] = []
    if "statements" in root or "acceptance" in root:
        if "statements" not in root or "acceptance" not in root:
            _fail("$", "statements and acceptance must appear together")
        statements = tuple(
            _parse_statement(raw, f"$.statements[{i}]", f"s{i}")
            for i, raw in enumerate(_as_list(root["statements"], "$.statements"))
        )
        ids = [s.id for s in statements]
        if len(set(ids)) != len(ids):
            _fail("$.statements", "statement ids repeat")
        apath = "$.acceptance"
        aobj = _as_mapping(root["acceptance"], apath, {"rule", "error_levels"})
        rule = _string(_get(aobj, "rule", apath), f"{apath}.rule")
        if rule == "threshold":
            epath = f"{apath}.error_levels"
            for i, raw in enumerate(_as_list(_get(aobj, "error_levels", apath),
                                             epath)):
                eps = _number(raw, f"{epath}[{i}]", 0.0, 1.0)
                if eps == 0.0:
                    _fail(f"{epath}[{i}]", f"error level {eps!r} must lie in (0, 1]")
                if error_levels and eps <= error_levels[-1]:
                    _fail(f"{epath}[{i}]", "error levels must be strictly increasing")
                error_levels.append(eps)
            if not error_levels:
                _fail(epath, "threshold acceptance needs at least one error level")
        elif rule == "next-most-probable":
            if "error_levels" in aobj:
                _fail(apath, "next-most-probable acceptance takes no error_levels")
        else:
            _fail(f"{apath}.rule", f"unknown acceptance rule {rule!r}")

    try:
        return ProblemDocument(
            problem=problem, tolerance=tolerance, level_specs=level_specs,
            statements=statements, rule=rule, error_levels=error_levels,
            refs=refs,
        )
    except ProblemFormatError:
        raise
    except ValueError as exc:
        _fail("$", str(exc))


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
    if doc.statements:
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
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(f"not valid JSON: {exc}") from exc
    return parse_document(data)


def dumps(doc: ProblemDocument, indent: int | None = 2) -> str:
    return json.dumps(document_to_dict(doc), indent=indent)


def load_path(path) -> ProblemDocument:
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
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
