"""Fuzzed problem files: mutated fixtures and small reference-class
chains.  Some mutations break the shape of a file; others keep it:
reordering an array, renaming a class, act or label to one the file
already uses, adding a specificity pair the order implies, and moving a
statement to another level or between the corpus and a level.  Every
input either fails with a ProblemFormatError naming a $ path, or parses
to a document that matches the problem schema, survives dumps and loads
unchanged, and builds and explores to a ValueError or to a report that
matches the report schema and that to_json writes as an indent-2
json.dumps does."""

import copy
import json
import math
from pathlib import Path

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from credalbox import (
    ProblemFormatError,
    document_to_dict,
    dumps,
    explore,
    loads,
    parse_document,
    sequence_bytes,
)
from credalbox.replicate import fixture_text
from support import chain_document, fixed_point_closure

SCHEMA_DIR = Path(__file__).resolve().parent.parent / "schema"
# validators built once: jsonschema.validate checks the schema itself
# on every call
PROBLEM_VALIDATOR, REPORT_VALIDATOR = (
    jsonschema.Draft202012Validator(json.loads(
        (SCHEMA_DIR / f"{name}.schema.json").read_text(encoding="utf-8")))
    for name in ("problem", "report"))

SEEDS = [json.loads(fixture_text(name)) for name in (
    "example_a", "example_b", "example_c_berry", "example_c_lottery", "example_d")
] + [chain_document(n) for n in (1, 2, 3)]

# values a key can be retyped to: NaN, huge, overflowing (1e400 reads
# as inf) and signed-zero numbers, names the seeds use, and the other
# JSON types; a number or a name is more often retyped to its own kind
NUMBERS = [-0.0, 1e308, -1e308, 0.25, 1, 0.0, -1, math.nan, math.inf, -math.inf,
           10 ** 400]
NAMES = ["G", "a1", "s0", "c0", "x", "threshold", "condition", "membership"]
ODD_VALUES = NUMBERS + NAMES + [True, False, None, "", [], {}, [0.0, 1.0]]
# keys of the format, so a stray or copied key is often a known one
KEYS = ["value", "id", "kind", "prob", "event", "interval", "item", "class",
        "label", "utility", "error", "constraints", "overrides", "mode",
        "max_error", "rule", "error_levels", "statements", "acceptance",
        "levels", "entries", "specificity", "extra"]


def containers(node):
    """Every object and array inside node, node itself first."""
    found = [node]
    for child in (node.values() if isinstance(node, dict) else node):
        if isinstance(child, (dict, list)):
            found.extend(containers(child))
    return found


def specificity_pairs(doc) -> list:
    """The specificity pairs of doc that are still two strings."""
    refs = doc.get("reference_classes")
    pairs = refs.get("specificity") if isinstance(refs, dict) else None
    if not isinstance(pairs, list):
        return []
    return [p for p in pairs if isinstance(p, list) and len(p) == 2
            and all(isinstance(c, str) for c in p)]


def name_slots(doc) -> dict[str, list]:
    """(parent, key) slots holding a class, an act name or an outcome
    label, by what they name; a specificity pair's entries are classes."""
    slots: dict[str, list] = {"class": [], "name": [], "label": []}
    for n in containers(doc):
        if isinstance(n, dict):
            for key in slots.keys() & n.keys():
                if isinstance(n[key], str):
                    slots[key].append((n, key))
    slots["class"] += [(pair, i) for pair in specificity_pairs(doc) for i in (0, 1)]
    return slots


def statement_slots(doc) -> list:
    """(parent, key) slots that hold, or could hold, an array of
    statements: the top-level statements and each level's constraints."""
    levels = doc.get("levels")
    slots = [(doc, "statements")]
    if isinstance(levels, list):
        slots += [(level, "constraints") for level in levels if isinstance(level, dict)]
    return [(parent, key) for parent, key in slots
            if isinstance(parent.get(key, []), list)]


def mutate(data, doc) -> None:
    """Apply one drawn mutation to doc in place."""
    op = data.draw(st.sampled_from(["retype", "stray", "duplicate", "empty", "drop",
                                    "reorder", "rename", "imply", "move"]))
    nodes = containers(doc)
    if op == "move":
        # one statement to another level, or between the corpus and a
        # level; a slot with no array yet gets one
        slots = statement_slots(doc)
        sources = [slot for slot in slots if slot[0].get(slot[1])]
        if len(slots) > 1 and sources:
            parent, key = data.draw(st.sampled_from(sources))
            to_parent, to_key = data.draw(st.sampled_from(
                [slot for slot in slots if slot[0] is not parent]))
            entry = parent[key].pop(data.draw(st.integers(0, len(parent[key]) - 1)))
            target = to_parent.setdefault(to_key, [])
            target.insert(data.draw(st.integers(0, len(target))), entry)
        return
    if op == "reorder":
        arrays = [n for n in nodes if isinstance(n, list) and len(n) > 1]
        if arrays:
            target = data.draw(st.sampled_from(arrays))
            target[:] = data.draw(st.permutations(target))
        return
    if op == "rename":
        # to a name the document already uses for something of the same kind
        named = name_slots(doc)
        slots = [(kind, slot) for kind, found in named.items() for slot in found]
        if slots:
            kind, (parent, key) = data.draw(st.sampled_from(slots))
            parent[key] = data.draw(st.sampled_from(
                sorted({p[k] for p, k in named[kind]})))
        return
    if op == "imply":
        given = {tuple(p) for p in specificity_pairs(doc)}
        implied = sorted(fixed_point_closure(given) - given)
        if implied:
            doc["reference_classes"]["specificity"].append(
                list(data.draw(st.sampled_from(implied))))
        return
    if op == "empty":
        arrays = [n for n in nodes if isinstance(n, list) and n]
        if arrays:
            data.draw(st.sampled_from(arrays)).clear()
        return
    if op == "stray":
        # a stray value or id is put into a statement where there is one
        objects = [n for n in nodes if isinstance(n, dict)]
        target = data.draw(st.sampled_from(
            [n for n in objects if "kind" in n] or objects))
        key = data.draw(st.sampled_from(["value", "id"]))
        target[key] = data.draw(st.sampled_from([False, "s0", True, "x", ""]))
        return
    slots = [(n, k) for n in nodes
             for k in (list(n) if isinstance(n, dict) else range(len(n)))]
    parent, key = data.draw(st.sampled_from(slots))
    if op == "drop":
        del parent[key]
    elif op == "duplicate":
        if isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
        else:
            parent[data.draw(st.sampled_from(KEYS))] = copy.deepcopy(parent[key])
    else:
        value = parent[key]
        pool = ODD_VALUES
        if isinstance(value, str):
            pool = NAMES + pool
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            pool = NUMBERS + pool
        parent[key] = copy.deepcopy(data.draw(st.sampled_from(pool)))


def written(write):
    """The text write() returns, or the ValueError it raises."""
    try:
        return write()
    except ValueError as exc:
        return ValueError, str(exc)


def report_or_value_error(doc, seq) -> None:
    try:
        report = explore(doc.problem, seq, doc.tolerance)
    except ValueError:
        return
    assert written(report.to_json) == written(
        lambda: json.dumps(report.to_dict(), indent=2, allow_nan=False))
    encoded = json.dumps(report.to_dict(), allow_nan=False)
    REPORT_VALIDATOR.validate(json.loads(encoded))


class TestFuzzedDocuments:
    @settings(max_examples=1000, deadline=None, derandomize=True, database=None)
    @given(st.sampled_from(SEEDS), st.integers(1, 3), st.data())
    def test_refused_at_a_path_or_round_trips(self, seed, mutations, data):
        raw = copy.deepcopy(seed)
        for _ in range(mutations):
            mutate(data, raw)
        try:
            doc = parse_document(raw)
        except ProblemFormatError as exc:
            assert str(exc).startswith("$"), str(exc)
            return
        PROBLEM_VALIDATOR.validate(raw)
        PROBLEM_VALIDATOR.validate(document_to_dict(doc))
        again = loads(dumps(doc))
        assert again == doc
        try:
            seq = doc.build_sequence()
        except ValueError as exc:
            try:
                again.build_sequence()
            except ValueError as again_exc:
                assert str(again_exc) == str(exc)
            else:
                raise AssertionError(f"reloaded document builds; original: {exc}")
            return
        assert sequence_bytes(again.build_sequence()) == sequence_bytes(seq)
        report_or_value_error(doc, seq)
