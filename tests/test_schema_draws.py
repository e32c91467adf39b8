"""Documents drawn from the problem schema, the converse of the fuzz tests.

The strategy below is written by hand from schema/problem.schema.json:
it draws only documents the schema accepts, in both sequence forms (and
neither), both tolerance modes, and with or without reference classes.
Names come from small pools, so repeats and references to names a
document does not declare are common.  Every draw must pass the schema
validator, and parse_document must accept it or refuse it with one of
the semantic refusals the README lists as checks beyond the schema.
"""

import json
import re
from pathlib import Path

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from credalbox import ProblemFormatError, parse_document

SCHEMA = Path(__file__).resolve().parent.parent / "schema" / "problem.schema.json"
VALIDATOR = jsonschema.Draft202012Validator(
    json.loads(SCHEMA.read_text(encoding="utf-8")))

# the README's refusals beyond the schema, one pattern each, in its order
SEMANTIC_REFUSALS = {
    "act names repeat": r"\$\.acts: problem .+ repeats an act name",
    "outcome labels of one act repeat":
        r"\$\.acts\[\d+\]: act .+ repeats an outcome label",
    "an act's declared bounds admit no distribution":
        r"\$\.acts\[\d+\]: act .+: outcome (lower bounds sum to .+, above 1"
        r"|upper bounds sum to .+, below 1)",
    "the specificity order has a cycle":
        r"\$\.reference_classes: specificity order is cyclic at class .+",
    "a class has two frequencies for one event":
        r"\$\.reference_classes: class .+ has two different frequencies for .+",
    "an override names an unknown act or outcome":
        r"\$\.levels\[\d+\]\.overrides\..+: unknown (act .+|outcome .+ of act .+)",
    "a level's error falls below the one before":
        r"\$\.levels\[\d+\]\.error: level \d+ error .+ drops below level \d+ error .+",
    "threshold error levels do not strictly increase":
        r"\$\.acceptance\.error_levels\[\d+\]: error levels must be strictly increasing",
    "an interval has lo > hi":
        r"\$\S*: lower endpoint .+ exceeds upper endpoint .+",
    "statement ids repeat": r"\$\.statements: statement ids repeat",
}

NAMES = st.sampled_from(["a1", "a2", "a3"])
LABELS = st.sampled_from(["G", "not-G", "H"])
CLASSES = st.sampled_from(["c", "d", "e"])
IDS = st.sampled_from(["s0", "s1", "x"])
# a JSON number in [0, 1], ints and both zeros included
UNIT = st.one_of(st.sampled_from([0, 1, -0.0, 0.0, 0.25, 0.5, 1.0]),
                 st.floats(0.0, 1.0))
# ordered, but one in ten reversed
INTERVAL = st.tuples(UNIT, UNIT, st.integers(0, 9)).map(
    lambda t: sorted(t[:2], reverse=t[2] == 0))
UTILITY = st.one_of(st.integers(-100, 100),
                    st.floats(-1e6, 1e6, allow_nan=False))

# the keys each statement kind requires, with their strategies
_STATEMENT_FIELDS = {"event": LABELS, "interval": INTERVAL,
                     "item": st.sampled_from(["i", "j"]), "class": CLASSES}
_REQUIRED = {"event-interval": ("event", "interval"), "condition": ("event",),
             "membership": ("item", "class"),
             "class-frequency": ("class", "event", "interval")}


@st.composite
def statements(draw, prob=UNIT):
    kind = draw(st.sampled_from(sorted(_REQUIRED)))
    out = {"kind": kind}
    out.update(draw(st.fixed_dictionaries(
        {key: _STATEMENT_FIELDS[key] for key in _REQUIRED[kind]},
        optional={"id": IDS, "prob": prob, "value": st.booleans(),
                  **{key: value for key, value in _STATEMENT_FIELDS.items()
                     if key not in _REQUIRED[kind]}})))
    return out


def _mostly_unique(elements, key, **sizes):
    """Lists whose entries' keys differ, except in one list in ten."""
    return st.integers(0, 9).flatmap(lambda n: st.lists(
        elements, unique_by=key if n else None, **sizes))


OUTCOMES = st.fixed_dictionaries({"label": LABELS, "utility": UTILITY},
                                 optional={"prob": INTERVAL})
ACTS = st.fixed_dictionaries({"name": NAMES, "outcomes": _mostly_unique(
    OUTCOMES, lambda o: o["label"], min_size=1, max_size=3)})
TOLERANCE = st.one_of(
    st.fixed_dictionaries({"mode": st.just("explicit"), "max_error": UNIT}),
    st.just({"mode": "odds-derived"}))
LEVEL = st.fixed_dictionaries({"error": UNIT}, optional={
    # a level constraint's prob, when given, is 1
    "constraints": st.lists(statements(st.sampled_from([1, 1.0])), max_size=2),
    "overrides": st.dictionaries(
        st.sampled_from(["a1", "a2", "zz"]),
        st.dictionaries(st.sampled_from(["G", "not-G", "Q"]), INTERVAL, max_size=2),
        max_size=2),
})
ACCEPTANCE = st.one_of(
    st.fixed_dictionaries({"rule": st.just("threshold"), "error_levels": st.lists(
        st.one_of(st.just(1), st.floats(0.0, 1.0, exclude_min=True)),
        min_size=1, max_size=3)}),
    st.just({"rule": "next-most-probable"}))
REFERENCE_CLASSES = st.fixed_dictionaries({}, optional={
    "entries": st.lists(st.fixed_dictionaries(
        {"class": CLASSES, "event": LABELS, "interval": INTERVAL}), max_size=3),
    "specificity": st.lists(st.lists(CLASSES, min_size=2, max_size=2), max_size=3),
})


@st.composite
def documents(draw):
    doc = draw(st.fixed_dictionaries(
        {"problem": st.just("p"),
         "acts": _mostly_unique(ACTS, lambda a: a["name"], min_size=1, max_size=3)},
        optional={"tolerance": TOLERANCE, "reference_classes": REFERENCE_CLASSES}))
    form = draw(st.sampled_from(["none", "levels", "statements"]))
    if form == "levels":
        doc["levels"] = draw(st.lists(LEVEL, min_size=1, max_size=3))
    elif form == "statements":
        doc["statements"] = draw(st.lists(statements(), max_size=4))
        doc["acceptance"] = draw(ACCEPTANCE)
    return doc


def refusal(message: str) -> str | None:
    """The README refusal the message is, if any."""
    return next((name for name, pattern in SEMANTIC_REFUSALS.items()
                 if re.fullmatch(pattern, message)), None)


@settings(max_examples=300, deadline=None)
@given(documents())
def test_schema_valid_documents_parse_or_meet_a_listed_refusal(doc):
    VALIDATOR.validate(doc)
    try:
        parse_document(doc)
    except ProblemFormatError as exc:
        assert refusal(str(exc)) is not None, str(exc)


def test_every_listed_refusal_is_reachable():
    # one schema-valid document per refusal, each named by its pattern
    acts = [{"name": "a1", "outcomes": [{"label": "G", "utility": 1}]}]
    cases = {
        "act names repeat": {"acts": acts * 2},
        "outcome labels of one act repeat": {"acts": [
            {"name": "a1", "outcomes": acts[0]["outcomes"] * 2}]},
        "an act's declared bounds admit no distribution": {"acts": [
            {"name": "a1", "outcomes": [{"label": "G", "utility": 1,
                                         "prob": [0, 0.5]}]}]},
        "the specificity order has a cycle": {
            "reference_classes": {"specificity": [["c", "c"]]}},
        "a class has two frequencies for one event": {"reference_classes": {
            "entries": [{"class": "c", "event": "G", "interval": [0, 1]},
                        {"class": "c", "event": "G", "interval": [0, 0.5]}]}},
        "an override names an unknown act or outcome": {
            "levels": [{"error": 0, "overrides": {"a1": {"Q": [0, 1]}}}]},
        "a level's error falls below the one before": {
            "levels": [{"error": 0.5}, {"error": 0}]},
        "threshold error levels do not strictly increase": {
            "statements": [],
            "acceptance": {"rule": "threshold", "error_levels": [0.5, 0.5]}},
        "an interval has lo > hi": {"acts": [
            {"name": "a1", "outcomes": [{"label": "G", "utility": 1,
                                         "prob": [1, 0]}]}]},
        "statement ids repeat": {
            "statements": [{"kind": "condition", "event": "G", "id": "x"}] * 2,
            "acceptance": {"rule": "next-most-probable"}},
    }
    assert cases.keys() == SEMANTIC_REFUSALS.keys()
    for name, extra in cases.items():
        doc = {"problem": "p", "acts": acts, **extra}
        VALIDATOR.validate(doc)
        try:
            parse_document(doc)
        except ProblemFormatError as exc:
            assert refusal(str(exc)) == name, str(exc)
        else:
            raise AssertionError(f"{name}: parsed")
