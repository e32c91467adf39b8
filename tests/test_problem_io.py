import itertools
import json
import math
from pathlib import Path

import jsonschema
import pytest

from credalbox import (
    CredalLevel,
    CredalSequence,
    InconsistentBodyError,
    LevelSpec,
    ProbInterval,
    ProblemDocument,
    ProblemFormatError,
    Statement,
    ToleranceSpec,
    document_to_dict,
    dumps,
    load_fixture,
    load_path,
    loads,
    parse_document,
    sequence_bytes,
    sequence_to_dict,
)
from credalbox.replicate import fixture_text

FIXTURES = ("example_a", "example_b", "example_c_berry",
            "example_c_lottery", "example_d")

PROBLEM_SCHEMA = Path(__file__).resolve().parent.parent / "schema" / "problem.schema.json"

MINIMAL = {
    "problem": "tiny",
    "acts": [
        {"name": "a1", "outcomes": [
            {"label": "G", "utility": 10.0},
            {"label": "not-G", "utility": -30.0},
        ]},
        {"name": "a2", "outcomes": [
            {"label": "pass", "utility": 0.0},
        ]},
    ],
}


def doc_with(**extras):
    data = json.loads(json.dumps(MINIMAL))
    data.update(extras)
    return data


def doc_with_utility(value):
    data = doc_with()
    data["acts"][0]["outcomes"][0]["utility"] = value
    return data


def doc_with_act(pos, **fields):
    data = doc_with()
    data["acts"][pos].update(fields)
    return data


def statements_doc(statement):
    return doc_with(statements=[statement],
                    acceptance={"rule": "next-most-probable"})


def threshold_doc(error_levels):
    return doc_with(statements=[{"kind": "condition", "event": "G"}],
                    acceptance={"rule": "threshold",
                                "error_levels": error_levels})


def error_path(data):
    with pytest.raises(ProblemFormatError) as exc_info:
        parse_document(data)
    return str(exc_info.value)



def _set(*path_and_value):
    """A fault that puts the value at the path in a document."""
    *path, key, value = path_and_value

    def put(doc):
        for step in path:
            doc = doc[step]
        doc[key] = value
    return put


# one fault per key of each sequence form, in the order dumps writes the
# keys (problem, acts, tolerance, levels, statements, acceptance,
# reference_classes) and, within a level, error, constraints, overrides
_COMMON_FAULTS = [
    ("problem", _set("problem", "")),
    ("acts", _set("acts", 0, "outcomes", 0, "prob", [0.8, 0.2])),
    ("tolerance", _set("tolerance", "max_error", 2.0)),
]
_REFS_FAULT = ("reference_classes",
               _set("reference_classes", "entries", 0, "interval", [0.5, 0.4]))
_REFS = {"entries": [{"class": "c", "event": "G", "interval": [0.1, 0.2]}]}
TWO_FAULT_FORMS = [
    (doc_with(tolerance={"mode": "explicit", "max_error": 0.5},
              levels=[{"error": 0.0,
                       "constraints": [{"kind": "condition", "event": "G"}],
                       "overrides": {"a1": {"G": [0.2, 0.4]}}}],
              reference_classes=_REFS),
     _COMMON_FAULTS + [
         ("level-error", _set("levels", 0, "error", 2.0)),
         ("level-constraints", _set("levels", 0, "constraints", 0, "prob", 0.9)),
         ("level-overrides", _set("levels", 0, "overrides", "a1", "G", [0.5, 0.4])),
         _REFS_FAULT]),
    (doc_with(tolerance={"mode": "explicit", "max_error": 0.5},
              statements=[{"kind": "condition", "event": "G"}],
              acceptance={"rule": "threshold", "error_levels": [0.1]},
              reference_classes=_REFS),
     _COMMON_FAULTS + [
         ("statements", _set("statements", 0, "prob", 2.0)),
         ("acceptance", _set("acceptance", "error_levels", [0.2, 0.1])),
         _REFS_FAULT]),
]
TWO_FAULT_CASES = [(base, first, second)
                   for base, faults in TWO_FAULT_FORMS
                   for first, second in itertools.combinations(faults, 2)]


# the four places a document states a probability interval: a function
# that puts a value there, and the path of that value
INTERVAL_PLACES = {
    "outcome-prob": (lambda value: doc_with_act(0, outcomes=[
        {"label": "G", "utility": 10.0, "prob": value},
        {"label": "not-G", "utility": -30.0}]), "$.acts[0].outcomes[0].prob"),
    "override": (lambda value: doc_with(levels=[
        {"error": 0.0, "overrides": {"a1": {"G": value}}}]),
        "$.levels[0].overrides.a1.G"),
    "statement": (lambda value: statements_doc(
        {"kind": "event-interval", "event": "G", "interval": value}),
        "$.statements[0].interval"),
    "reference-entry": (lambda value: doc_with(reference_classes={
        "entries": [{"class": "c", "event": "G", "interval": value}]}),
        "$.reference_classes.entries[0].interval"),
}

# values at the edge of the one-check parse of [lo, hi] that it accepts
# or leaves to the full checks, as JSON text; each must parse as those
# checks parse it
ACCEPTED_INTERVALS = {"int-endpoints": "[0, 1]", "signed-zeros": "[-0.0, 0.0]",
                      "unit": "[0.0, 1.0]", "certain": "[1.0, 1.0]"}
REFUSED_INTERVALS = {
    "bool-endpoint": ("[true, 1.0]", "[0]: expected a number, got bool"),
    "reversed": ("[0.5, 0.4]", ": lower endpoint 0.5 exceeds upper endpoint 0.4"),
    "nan-endpoint": ("[NaN, 0.5]", "[0]: expected a finite number, got nan"),
    "overflowing-endpoint": ("[0.5, 1e309]", "[1]: expected a finite number, got inf"),
    "above-one": ("[0.0, 1.0000000000000002]",
                  ": probability interval [0.0, 1.0000000000000002] escapes [0, 1]"),
    "below-zero": ("[-5e-324, 0.5]",
                   ": probability interval [-5e-324, 0.5] escapes [0, 1]"),
    "one-entry": ("[0.5]", ": expected [lo, hi], got 1 entries"),
    "three-entries": ("[0.1, 0.2, 0.3]", ": expected [lo, hi], got 3 entries"),
    "not-a-list": ('{"lo": 0.1, "hi": 0.2}', ": expected an array, got dict"),
}

# (id, document, full message) for each refused value in each place
REFUSED_CASES = [(f"{place}-{name}", put(json.loads(text)), path + message)
                 for place, (put, path) in INTERVAL_PLACES.items()
                 for name, (text, message) in REFUSED_INTERVALS.items()]


# documents that exercise what no fixture holds: reference-class
# entries, level overrides, a false value outside a condition and an
# acceptance rule over no statements
CYCLE_DOCS = {
    "reference-entries": doc_with(
        statements=[{"kind": "membership", "item": "i", "class": "soft"}],
        acceptance={"rule": "next-most-probable"},
        reference_classes={
            "entries": [{"class": "all", "event": "G", "interval": [0.2, 0.9]},
                        {"class": "soft", "event": "G", "interval": [-0.0, 0.3]}],
            "specificity": [["soft", "all"]],
        }),
    "overrides": doc_with(levels=[
        {"error": 0.0},
        {"error": 0.1, "overrides": {"a1": {"G": [0.25, 0.5]}, "a2": {}}},
    ]),
    "false-membership": statements_doc(
        {"kind": "membership", "item": "x", "class": "c", "value": False}),
    "empty-corpus": doc_with(
        statements=[], acceptance={"rule": "threshold", "error_levels": [0.1]}),
    "int-utility": doc_with_utility(10),
    **{f"{place}-{name}": put(json.loads(text))
       for place, (put, _) in INTERVAL_PLACES.items()
       for name, text in ACCEPTED_INTERVALS.items()},
}


class TestRoundTrip:
    @pytest.mark.parametrize("load", [
        pytest.param(lambda name=name: load_fixture(name), id=name)
        for name in FIXTURES
    ] + [
        pytest.param(lambda data=data: parse_document(data), id=name)
        for name, data in CYCLE_DOCS.items()
    ])
    def test_fixture_survives_a_cycle(self, load):
        doc = load()
        again = loads(dumps(doc))
        assert again == doc
        assert document_to_dict(again) == document_to_dict(doc)

    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_sequences_are_stable(self, name):
        doc = load_fixture(name)
        assert sequence_bytes(doc.build_sequence()) == \
            sequence_bytes(doc.build_sequence())

    def test_order_is_written_and_compared_as_given(self):
        data = doc_with(reference_classes={
            "specificity": [["c2", "c1"], ["c1", "c0"]]})
        doc = parse_document(data)
        assert document_to_dict(doc)["reference_classes"]["specificity"] == \
            [["c1", "c0"], ["c2", "c1"]]
        # the same closed order, listed with its implied pair
        data["reference_classes"]["specificity"].append(["c2", "c0"])
        implied = parse_document(data)
        assert implied.refs.more_specific("c2", "c0")
        assert doc.refs.more_specific("c2", "c0")
        assert implied != doc
        assert loads(dumps(implied)) == implied

    def test_level_constraint_keeps_id_and_prob(self):
        doc = parse_document(doc_with(levels=[
            {"error": 0.0, "constraints": [
                {"id": "mine", "kind": "event-interval", "event": "G",
                 "interval": [0.6, 0.8]},
            ]},
        ]))
        assert loads(dumps(doc)) == doc

    def test_statements_document_round_trip(self):
        doc = load_fixture("example_b")
        assert doc.rule == "threshold"
        again = loads(dumps(doc))
        assert again.statements == doc.statements
        assert again.error_levels == doc.error_levels
        assert again.refs == doc.refs

    @pytest.mark.parametrize("place", INTERVAL_PLACES)
    def test_edge_intervals_parse_as_floats(self, place):
        put, _ = INTERVAL_PLACES[place]
        as_ints = parse_document(put([0, 1]))
        assert as_ints == parse_document(put([0.0, 1.0]))
        assert dumps(as_ints) == dumps(parse_document(put([0.0, 1.0])))
        # a -0.0 endpoint keeps its sign through dumps and back
        assert "-0.0" not in dumps(parse_document(put([0.0, 0.5])))
        signed = dumps(parse_document(put([-0.0, 0.5])))
        assert "-0.0" in signed
        assert dumps(loads(signed)) == signed

    def test_int_utility_parses_as_a_float(self):
        doc = parse_document(doc_with_utility(10))
        utility = doc.problem.acts[0].outcomes[0].utility
        assert utility == 10.0 and type(utility) is float

    def test_load_path_matches_fixture_loader(self, tmp_path):
        text = fixture_text("example_a")
        target = tmp_path / "problem.json"
        target.write_text(text, encoding="utf-8")
        assert load_path(target) == loads(text)


class TestSchema:
    @pytest.mark.parametrize("name", FIXTURES)
    def test_fixture_matches_problem_schema(self, name):
        schema = json.loads(PROBLEM_SCHEMA.read_text(encoding="utf-8"))
        jsonschema.validate(json.loads(fixture_text(name)), schema)

    @pytest.mark.parametrize("data", [
        doc_with(levels=[]),
        threshold_doc([]),
        threshold_doc([0.0, 0.01]),
        doc_with(tolerance={"mode": "explicit"}),
        doc_with(tolerance={"mode": "odds-derived", "max_error": 0.1}),
        doc_with(statements=[{"kind": "condition", "event": "G"}],
                 acceptance={"rule": "threshold"}),
        doc_with(statements=[{"kind": "condition", "event": "G"}],
                 acceptance={"rule": "next-most-probable", "error_levels": [0.1]}),
        doc_with(levels=[{"error": 0.0, "constraints": [
            {"kind": "condition", "event": "G", "prob": 0.9}]}]),
    ], ids=["no-levels", "no-error-levels", "zero-error-level",
            "explicit-without-max-error", "odds-derived-with-max-error",
            "threshold-without-error-levels", "next-most-probable-with-error-levels",
            "level-constraint-prob"])
    def test_schema_rejects_what_parsing_rejects(self, data):
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(
                data, json.loads(PROBLEM_SCHEMA.read_text(encoding="utf-8")))
        error_path(data)

    # the checks beyond the schema: JSON Schema cannot say that names or
    # ids are distinct, that an order has no cycle, that an override
    # names a declared act, or compare one number with another
    @pytest.mark.parametrize("data, message", [
        (doc_with_act(1, name="a1"), "$.acts: problem 'tiny' repeats an act name"),
        (doc_with_act(0, outcomes=[{"label": "G", "utility": 1.0},
                                   {"label": "G", "utility": 2.0}]),
         "$.acts[0]: act 'a1' repeats an outcome label"),
        (doc_with(reference_classes={"specificity": [["a", "b"], ["b", "a"]]}),
         "$.reference_classes: specificity order is cyclic at class 'a'"),
        (doc_with(levels=[{"error": 0.0, "overrides": {"zz": {}}}]),
         "$.levels[0].overrides.zz: unknown act 'zz'"),
        (doc_with(levels=[{"error": 0.5}, {"error": 0.1}]),
         "$.levels[1].error: level 1 error 0.1 drops below level 0 error 0.5"),
        (threshold_doc([0.1, 0.1]),
         "$.acceptance.error_levels[1]: error levels must be strictly increasing"),
        (doc_with_act(1, outcomes=[{"label": "pass", "utility": 0.0,
                                    "prob": [0.8, 0.2]}]),
         "$.acts[1].outcomes[0].prob: lower endpoint 0.8 exceeds upper endpoint 0.2"),
        (doc_with(statements=[{"id": "s", "kind": "condition", "event": "G"},
                              {"id": "s", "kind": "membership", "item": "x",
                               "class": "c"}],
                  acceptance={"rule": "next-most-probable"}),
         "$.statements: statement ids repeat"),
    ], ids=["repeated-act-name", "repeated-outcome-label", "cyclic-order",
            "unknown-override-act", "falling-level-error",
            "non-increasing-error-levels", "lo-above-hi", "repeated-statement-ids"])
    def test_refusals_beyond_the_schema(self, data, message):
        jsonschema.validate(
            data, json.loads(PROBLEM_SCHEMA.read_text(encoding="utf-8")))
        assert error_path(data) == message

    @pytest.mark.parametrize("name", FIXTURES)
    def test_serialized_form_matches_problem_schema(self, name):
        schema = json.loads(PROBLEM_SCHEMA.read_text(encoding="utf-8"))
        jsonschema.validate(document_to_dict(load_fixture(name)), schema)


class TestParsing:
    def test_minimal_document(self):
        doc = parse_document(MINIMAL)
        assert doc.problem.name == "tiny"
        assert doc.problem.act_names == ("a1", "a2")
        assert doc.tolerance == ToleranceSpec.explicit(1.0)
        assert doc.level_specs is None

    def test_default_sequence_is_one_vacuous_level(self):
        seq = parse_document(MINIMAL).build_sequence()
        assert seq == CredalSequence((CredalLevel(0, 0.0, {}),))

    def test_outcome_probs_parsed(self):
        data = doc_with()
        data["acts"][0]["outcomes"][0]["prob"] = [0.6, 0.8]
        doc = parse_document(data)
        assert doc.problem.act("a1").outcome("G").prob == ProbInterval(0.6, 0.8)

    def test_tolerance_modes(self):
        doc = parse_document(doc_with(
            tolerance={"mode": "explicit", "max_error": 0.25}))
        assert doc.tolerance == ToleranceSpec.explicit(0.25)
        doc = parse_document(doc_with(tolerance={"mode": "odds-derived"}))
        assert doc.tolerance == ToleranceSpec.odds_derived()

    def test_levels_build_constraint_driven_sequence(self):
        data = doc_with(levels=[
            {"error": 0.0, "constraints": []},
            {"error": 0.1, "constraints": [
                {"kind": "event-interval", "event": "G",
                 "interval": [0.6, 0.8]},
            ]},
        ])
        seq = parse_document(data).build_sequence()
        assert seq.levels[1].assignments["a1"]["G"] == ProbInterval(0.6, 0.8)
        forced = seq.levels[1].assignments["a1"]["not-G"]
        assert forced.lo == pytest.approx(0.2)
        assert forced.hi == pytest.approx(0.4)

    def test_next_most_probable_conflict_names_the_body(self):
        # the body that first accepts both statements is body 2
        doc = parse_document(doc_with(
            statements=[
                {"kind": "event-interval", "event": "G", "interval": [0.0, 0.1],
                 "prob": 0.99},
                {"kind": "event-interval", "event": "G", "interval": [0.5, 0.6],
                 "prob": 0.9},
            ],
            acceptance={"rule": "next-most-probable"}))
        with pytest.raises(InconsistentBodyError) as exc_info:
            doc.build_sequence()
        assert str(exc_info.value) == \
            "body 2: statements 's0', 's1' cannot all hold for event 'G'"

    @pytest.mark.parametrize("constraints,message", [
        ([{"kind": "event-interval", "event": "G", "interval": [0.0, 0.1]},
          {"kind": "event-interval", "event": "G", "interval": [0.5, 0.6]}],
         "body 1: statements 'level1.c0', 'level1.c1' cannot all hold for event 'G'"),
        ([{"id": "x", "kind": "condition", "event": "G"},
          {"id": "x", "kind": "condition", "event": "H"}],
         "body 1: statement ids repeat within one body"),
    ], ids=["conflict", "repeated-ids"])
    def test_inconsistent_level_names_its_body(self, constraints, message):
        doc = parse_document(doc_with(levels=[
            {"error": 0.0}, {"error": 0.1, "constraints": constraints}]))
        with pytest.raises(InconsistentBodyError) as exc_info:
            doc.build_sequence()
        assert str(exc_info.value) == message

    def test_level_overrides_parsed(self):
        data = doc_with(levels=[
            {"error": 0.0, "overrides": {"a1": {"G": [0.5, 0.9]}}},
        ])
        seq = parse_document(data).build_sequence()
        assert seq.levels[0].assignments["a1"]["G"] == ProbInterval(0.5, 0.9)

    def test_statement_ids_default_by_position(self):
        data = doc_with(
            statements=[
                {"kind": "condition", "event": "G", "prob": 0.9},
            ],
            acceptance={"rule": "next-most-probable"},
        )
        doc = parse_document(data)
        assert doc.statements[0].id == "s0"


class TestValidationErrors:
    @pytest.mark.parametrize(
        "base, first, second", TWO_FAULT_CASES,
        ids=[f"{first[0]}+{second[0]}" for _, first, second in TWO_FAULT_CASES])
    def test_two_faults_name_the_first_written(self, base, first, second):
        # of two faults, the one named is the one dumps writes first
        alone = {}
        for name, put in (first, second):
            doc = json.loads(json.dumps(base))
            put(doc)
            alone[name] = error_path(doc)
        assert alone[first[0]] != alone[second[0]]
        doc = json.loads(json.dumps(base))
        first[1](doc)
        second[1](doc)
        assert error_path(doc) == alone[first[0]]

    def test_unknown_root_key(self):
        assert "unknown key 'extra'" in error_path(doc_with(extra=1))

    def test_missing_problem_name(self):
        data = doc_with()
        del data["problem"]
        assert "missing required key 'problem'" in error_path(data)

    def test_act_path_in_message(self):
        data = doc_with()
        data["acts"][1]["outcomes"] = []
        assert "$.acts[1]" in error_path(data)

    def test_outcome_utility_must_be_number(self):
        data = doc_with()
        data["acts"][0]["outcomes"][0]["utility"] = "ten"
        message = error_path(data)
        assert "$.acts[0].outcomes[0].utility" in message
        assert "expected a number" in message

    def test_bad_interval_shape(self):
        data = doc_with()
        data["acts"][0]["outcomes"][0]["prob"] = [0.1, 0.2, 0.3]
        assert "expected [lo, hi]" in error_path(data)

    def test_interval_out_of_unit_range(self):
        data = doc_with()
        data["acts"][0]["outcomes"][0]["prob"] = [0.5, 1.5]
        assert "$.acts[0].outcomes[0].prob" in error_path(data)

    def test_duplicate_act_names(self):
        data = doc_with()
        data["acts"][1]["name"] = "a1"
        assert "$.acts" in error_path(data)

    def test_levels_and_statements_conflict(self):
        data = doc_with(
            levels=[{"error": 0.0}],
            statements=[{"kind": "condition", "event": "G"}],
            acceptance={"rule": "next-most-probable"},
        )
        assert "pick one" in error_path(data)

    def test_statements_without_acceptance(self):
        data = doc_with(statements=[{"kind": "condition", "event": "G"}])
        assert "must appear together" in error_path(data)

    def test_acceptance_without_statements(self):
        data = doc_with(acceptance={"rule": "next-most-probable"})
        assert "must appear together" in error_path(data)

    def test_unknown_acceptance_rule(self):
        data = doc_with(
            statements=[{"kind": "condition", "event": "G"}],
            acceptance={"rule": "by-feel"},
        )
        assert "unknown acceptance rule" in error_path(data)

    def test_threshold_needs_error_levels(self):
        data = doc_with(
            statements=[{"kind": "condition", "event": "G"}],
            acceptance={"rule": "threshold"},
        )
        assert "missing required key 'error_levels'" in error_path(data)

    def test_next_most_probable_takes_no_error_levels(self):
        data = doc_with(
            statements=[{"kind": "condition", "event": "G"}],
            acceptance={"rule": "next-most-probable", "error_levels": [0.1]},
        )
        assert "takes no error_levels" in error_path(data)

    def test_repeated_statement_ids(self):
        data = doc_with(
            statements=[
                {"id": "dup", "kind": "condition", "event": "G"},
                {"id": "dup", "kind": "condition", "event": "H"},
            ],
            acceptance={"rule": "next-most-probable"},
        )
        assert "statement ids repeat" in error_path(data)

    def test_level_constraints_must_be_certain(self):
        data = doc_with(levels=[
            {"error": 0.0, "constraints": [
                {"kind": "event-interval", "event": "G",
                 "interval": [0.1, 0.2], "prob": 0.9},
            ]},
        ])
        assert "prob must stay 1" in error_path(data)

    def test_tolerance_mode_errors(self):
        assert "unknown tolerance mode" in error_path(
            doc_with(tolerance={"mode": "loose"}))
        assert "missing required key 'max_error'" in error_path(
            doc_with(tolerance={"mode": "explicit"}))
        assert "no max_error" in error_path(
            doc_with(tolerance={"mode": "odds-derived", "max_error": 0.2}))

    def test_reference_class_cycle_reported_at_path(self):
        data = doc_with(reference_classes={
            "specificity": [["a", "b"], ["b", "a"]],
        })
        message = error_path(data)
        assert "$.reference_classes" in message
        assert "cyclic" in message

    def test_statement_kind_required(self):
        data = doc_with(levels=[
            {"error": 0.0, "constraints": [{"event": "G"}]},
        ])
        assert "missing required key 'kind'" in error_path(data)

    @pytest.mark.parametrize("specs,message", [
        ((), "a credal sequence needs at least one level"),
        ((LevelSpec(0.5), LevelSpec(0.1)),
         "level 1 error 0.1 drops below level 0 error 0.5"),
    ], ids=["no-levels", "level-error-drops"])
    def test_document_refuses_what_parsing_refuses(self, specs, message):
        problem = parse_document(MINIMAL).problem
        with pytest.raises(ProblemFormatError) as exc_info:
            ProblemDocument(problem, level_specs=specs)
        assert str(exc_info.value) == message
        data = doc_with(levels=[{"error": spec.error} for spec in specs])
        assert error_path(data).endswith(f": {message}")

    def test_invalid_json_text(self):
        with pytest.raises(ProblemFormatError, match="not valid JSON"):
            loads("{problem:")

    def test_non_object_root(self):
        assert "expected an object" in error_path([1, 2, 3])

    @pytest.mark.parametrize("data,path", [
        (doc_with(levels=[{"error": math.nan}]), "$.levels[0].error"),
        (doc_with_utility(math.nan), "$.acts[0].outcomes[0].utility"),
        (doc_with_utility(-math.inf), "$.acts[0].outcomes[0].utility"),
        (doc_with_utility(10 ** 400), "$.acts[0].outcomes[0].utility"),
        (doc_with(tolerance={"mode": "explicit", "max_error": math.nan}),
         "$.tolerance.max_error"),
        (doc_with(levels=[{"error": 0.0, "overrides": {"zz": {}}}]),
         "$.levels[0].overrides.zz"),
        (doc_with(levels=[{"error": 0.0,
                           "overrides": {"a1": {"H": [0.1, 0.2]}}}]),
         "$.levels[0].overrides.a1.H"),
        (doc_with(levels=[]), "$.levels"),
        (doc_with(levels=[{"error": 0.05}, {"error": 0.01}]),
         "$.levels[1].error"),
        (threshold_doc([]), "$.acceptance.error_levels"),
        (threshold_doc([0.05, 0.01]), "$.acceptance.error_levels[1]"),
        (threshold_doc([0.0, 0.01]), "$.acceptance.error_levels[0]"),
    ], ids=["nan-error", "nan-utility", "infinite-utility", "huge-int-utility",
            "nan-max-error", "unknown-override-act", "unknown-override-outcome",
            "no-levels", "level-error-drops", "no-error-levels",
            "error-levels-fall", "zero-error-level"])
    def test_bad_value_named_at_path(self, data, path):
        assert error_path(data).startswith(f"{path}: ")

    @pytest.mark.parametrize("data,message", [
        (doc_with(levels={}), "$.levels: expected an array, got dict"),
        (doc_with(levels=[{"error": -0.5}]),
         "$.levels[0].error: value -0.5 is below 0.0"),
        (doc_with(tolerance={"mode": "explicit", "max_error": 1.5}),
         "$.tolerance.max_error: value 1.5 is above 1.0"),
        (doc_with_act(0, name=""), "$.acts[0].name: expected a non-empty string"),
        (statements_doc({"id": 5, "kind": "condition", "event": "G"}),
         "$.statements[0].id: expected a non-empty string"),
        (statements_doc({"kind": "condition", "event": "G", "value": 1}),
         "$.statements[0].value: expected true or false"),
        (statements_doc({"kind": "bogus"}),
         "$.statements[0]: unknown statement kind 'bogus'"),
        (statements_doc({"kind": "membership", "item": "x"}),
         "$.statements[0]: statement 's0' of kind 'membership' needs 'cls'"),
        (doc_with(reference_classes={"specificity": [["a"]]}),
         "$.reference_classes.specificity[0]: expected [more_specific, less_specific]"),
        (doc_with(reference_classes={"specificity": [["a", 3]]}),
         "$.reference_classes.specificity[0][1]: expected a non-empty string"),
        (doc_with(reference_classes={"entries": [
            {"class": "c", "event": "G", "interval": [0.1, "x"]}]}),
         "$.reference_classes.entries[0].interval[1]: expected a number, got str"),
        (doc_with_act(0, outcomes=[{"label": "G", "utility": 1.0, "x": 0}]),
         "$.acts[0].outcomes[0]: unknown key 'x'"),
        (doc_with_act(0, outcomes=[[]]),
         "$.acts[0].outcomes[0]: expected an object, got list"),
        (doc_with_act(0, outcomes=[{"label": "G"}]),
         "$.acts[0].outcomes[0]: missing required key 'utility'"),
        (doc_with_act(0, outcomes=[{"label": 7, "utility": 1.0}]),
         "$.acts[0].outcomes[0].label: expected a non-empty string"),
        (doc_with_utility(True),
         "$.acts[0].outcomes[0].utility: expected a number, got bool"),
        (doc_with_utility(10 ** 400),
         "$.acts[0].outcomes[0].utility: expected a finite number, got inf"),
        (doc_with_act(0, outcomes=[{"label": "G", "utility": 1.0,
                                    "prob": [0.5, 0.2]}]),
         "$.acts[0].outcomes[0].prob: lower endpoint 0.5 exceeds upper endpoint 0.2"),
        (doc_with_act(0, outcomes=[{"label": "G", "utility": 1.0,
                                    "prob": [0.5, None]}]),
         "$.acts[0].outcomes[0].prob[1]: expected a number, got NoneType"),
        (doc_with_act(0, outcomes=[{"label": "G", "utility": 1.0,
                                    "prob": [0.1, 0.2, 0.3]}]),
         "$.acts[0].outcomes[0].prob: expected [lo, hi], got 3 entries"),
        (doc_with_act(1, outcomes=[]), "$.acts[1]: act 'a2' has no outcomes"),
        (doc_with_act(1, name="a1"), "$.acts: problem 'tiny' repeats an act name"),
        (doc_with(levels=[{"error": 0.0, "overrides": {"a1": []}}]),
         "$.levels[0].overrides.a1: expected an object, got list"),
        (doc_with(levels=[{"error": 0.0, "overrides": {"a1": {"G": [0.1, 2]}}}]),
         "$.levels[0].overrides.a1.G: probability interval [0.1, 2.0] escapes [0, 1]"),
        (doc_with(levels=[{"error": 0.0, "constraints": [
            {"kind": "event-interval", "event": "G", "interval": [0.2, "x"]}]}]),
         "$.levels[0].constraints[0].interval[1]: expected a number, got str"),
        (doc_with(levels=[{"error": 0.0, "constraints": [
            {"kind": "event-interval", "event": ""}]}]),
         "$.levels[0].constraints[0].event: expected a non-empty string"),
        (threshold_doc(["x"]),
         "$.acceptance.error_levels[0]: expected a number, got str"),
        (doc_with_act(0, outcomes=[{"label": "", "utility": 1.0}]),
         "$.acts[0].outcomes[0].label: expected a non-empty string"),
    ] + [(data, message) for _, data, message in REFUSED_CASES],
       ids=["levels-not-array", "error-below-range", "max-error-above-range",
            "empty-act-name", "statement-id-not-string", "value-not-bool",
            "unknown-statement-kind", "statement-misses-field",
            "specificity-pair-shape", "specificity-class-not-string",
            "entry-interval-number", "unknown-outcome-key", "outcome-not-object",
            "outcome-misses-utility", "label-not-string", "bool-utility",
            "huge-int-utility", "interval-lo-above-hi", "interval-endpoint-type",
            "interval-shape", "act-refused", "problem-refused",
            "override-box-not-object", "override-interval-range",
            "constraint-interval-number", "constraint-event-empty",
            "error-level-not-number", "empty-label"]
       + [case_id for case_id, _, _ in REFUSED_CASES])
    def test_failure_message_in_full(self, data, message):
        assert error_path(data) == message

    @pytest.mark.parametrize("fields,message", [
        ({"level_specs": (LevelSpec(0.0),), "rule": "threshold",
          "error_levels": (0.1,)},
         "document states both levels and statements; pick one"),
        ({"level_specs": (LevelSpec(0.0),), "statements": (), "rule": "threshold",
          "error_levels": (0.1,)},
         "document states both levels and statements; pick one"),
        ({}, "statements need an acceptance rule"),
        ({"rule": "by-feel"}, "unknown acceptance rule 'by-feel'"),
        ({"rule": "threshold"}, "threshold acceptance needs error_levels"),
    ], ids=["levels-and-statements", "levels-and-rule", "no-rule", "unknown-rule",
            "threshold-without-levels"])
    def test_document_refuses_inconsistent_fields(self, fields, message):
        problem = parse_document(MINIMAL).problem
        statement = Statement.condition("s0", "G")
        with pytest.raises(ProblemFormatError) as exc_info:
            ProblemDocument(problem, **{"statements": (statement,), **fields})
        assert str(exc_info.value) == message


class TestSequenceSerialization:
    def test_canonical_shape(self):
        seq = CredalSequence((
            CredalLevel(0, 0.0, {}),
            CredalLevel(1, 0.1, {"b": {"y": ProbInterval(0.2, 0.4),
                                       "x": ProbInterval(0.1, 0.3)},
                                 "a": {"z": ProbInterval(0.0, 1.0)}}),
        ))
        doc = sequence_to_dict(seq)
        assert [lvl["index"] for lvl in doc["levels"]] == [0, 1]
        assert list(doc["levels"][1]["assignments"]) == ["a", "b"]
        assert list(doc["levels"][1]["assignments"]["b"]) == ["x", "y"]

    def test_bytes_ignore_assignment_insertion_order(self):
        forward = CredalLevel(0, 0.0, {"a": {"x": ProbInterval(0.1, 0.2)},
                                       "b": {"y": ProbInterval(0.3, 0.4)}})
        backward = CredalLevel(0, 0.0, {"b": {"y": ProbInterval(0.3, 0.4)},
                                        "a": {"x": ProbInterval(0.1, 0.2)}})
        assert sequence_bytes(CredalSequence((forward,))) == \
            sequence_bytes(CredalSequence((backward,)))
