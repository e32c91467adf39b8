"""Objects the runtime builds without their dataclass __init__.

Five places fill a frozen dataclass's __dict__ themselves, to skip checks
or copies that cannot fail there: the parser's statements, level specs
and outcomes, the bodies both acceptance rules build, and the levels the
resolver builds.  Each must set every field, in field order, so that an
object built there equals and prints as the constructor's; a field added
to the class and missed here would otherwise fail only when read.
"""

import dataclasses

import pytest

from credalbox import (
    BodyOfKnowledge,
    CredalLevel,
    LevelSpec,
    Outcome,
    ProbInterval,
    Statement,
    accept_next_most_probable,
    accept_threshold,
    parse_document,
)

ACTS = [{"name": "a", "outcomes": [{"label": "G", "utility": 1.0},
                                   {"label": "not-G", "utility": -1.0}]}]
STATEMENTS = [{"id": "m", "kind": "membership", "prob": 0.9, "item": "i", "class": "c"},
              {"id": "f", "kind": "class-frequency", "prob": 0.95, "class": "c",
               "event": "G", "interval": [0.25, 0.5]}]


def statements_document():
    return parse_document({"problem": "p", "acts": ACTS, "statements": STATEMENTS,
                           "acceptance": {"rule": "next-most-probable"}})


def levels_document():
    return parse_document({"problem": "p", "acts": ACTS, "levels": [
        {"error": 0.1,
         "constraints": [{"kind": "event-interval", "event": "G", "interval": [0.25, 0.5]}],
         "overrides": {"a": {"not-G": [0.5, 0.625]}}}]})


def parsed_statement():
    s = statements_document().statements[1]
    return s, Statement.class_frequency("f", "c", "G", ProbInterval(0.25, 0.5), 0.95)


def parsed_level_spec():
    spec = levels_document().level_specs[0]
    return spec, LevelSpec(0.1, (Statement.event_interval(
        "level0.c0", "G", ProbInterval(0.25, 0.5)),),
        {"a": {"not-G": ProbInterval(0.5, 0.625)}})


def parsed_outcome():
    return (statements_document().problem.acts[0].outcomes[0],
            Outcome("G", 1.0, ProbInterval(0.0, 1.0)))


def grown_body():
    body = accept_next_most_probable(statements_document().statements)[2]
    return body, BodyOfKnowledge(2, body.error, body.statements)


def threshold_body():
    body = accept_threshold(statements_document().statements, [0.08, 0.2])[2]
    return body, BodyOfKnowledge(2, 0.2, body.statements)


def resolved_level():
    level = levels_document().build_sequence().levels[0]
    return level, CredalLevel(0, 0.1, {"a": {"G": ProbInterval(0.25, 0.5),
                                             "not-G": ProbInterval(0.5, 0.625)}})


@pytest.mark.parametrize("build", [parsed_statement, parsed_level_spec, parsed_outcome,
                                   grown_body, threshold_body, resolved_level],
                         ids=lambda build: build.__name__)
def test_bypass_sets_every_field_in_order(build):
    obj, twin = build()
    names = [f.name for f in dataclasses.fields(type(obj))]
    assert list(vars(obj))[:len(names)] == names
    assert obj == twin
    assert repr(obj) == repr(twin)
