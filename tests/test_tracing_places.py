"""The places perfbench/tracing.py rebinds must exist in the package.

The tracer times each layer by replacing a module attribute (or a class
method) with a wrapper, and looks every one up in its owner's __dict__.
A renamed or removed attribute would stop a traced benchmark run at
install; these tests stop the suite instead.
"""

from __future__ import annotations

import importlib

import pytest

from credalbox import (
    Act,
    CredalLevel,
    CredalSequence,
    DecisionProblem,
    LevelSpec,
    Outcome,
    ProbInterval,
    ProblemDocument,
    SampleCount,
    confidence,
    engine,
)
from support import perfbench_module


def tracing_tables():
    """SPANS and COUNTED from perfbench/tracing.py."""
    module = perfbench_module("tracing")
    return module.SPANS, module.COUNTED


def places():
    out = []
    for table in tracing_tables():
        for name, bound in table.items():
            out += [(name, place) for place in bound]
    return out


@pytest.mark.parametrize("name, place", places(),
                         ids=[".".join(p) for _, p in places()])
def test_place_exists(name, place):
    owner = importlib.import_module(place[0])
    if len(place) == 3:
        owner = owner.__dict__[place[1]]
    assert place[-1] in owner.__dict__, f"{name}: {'.'.join(place)} is gone"


def test_explore_looks_its_layers_up_on_the_engine_module(monkeypatch):
    # the tracer's spans only see what explore reaches through engine's
    # own attributes
    calls = []

    def counted(attr):
        original = getattr(engine, attr)

        def wrapper(*args, **kwargs):
            calls.append(attr)
            return original(*args, **kwargs)
        monkeypatch.setattr(engine, attr, wrapper)

    counted("eu_all")
    counted("maximal_set")
    seq = CredalSequence((CredalLevel(0, 0.0, {}), CredalLevel(1, 0.1, {
        "a1": {"G": ProbInterval(0.75, 1.0), "not-G": ProbInterval(0.0, 0.25)},
        "a2": {"H": ProbInterval(0.15, 0.3), "not-H": ProbInterval(0.7, 0.85)},
    })))
    problem = DecisionProblem("berries", (
        Act("a1", (Outcome("G", 10.0), Outcome("not-G", -30.0))),
        Act("a2", (Outcome("H", -10.0), Outcome("not-H", 0.0))),
    ))
    # the same levels built by resolution, as decide builds them, carry
    # checked bounds and still go through engine.eu_all
    built = ProblemDocument(problem, level_specs=tuple(
        LevelSpec(level.error, (), level.assignments) for level in seq.levels)
    ).build_sequence()
    assert built == seq
    for levels in (seq, built):
        calls.clear()
        report = engine.explore(problem, levels)
        assert report.status == engine.DECIDED
        assert calls == ["eu_all", "maximal_set"] * 2


def test_clopper_pearson_looks_its_tails_up_on_the_confidence_module(monkeypatch):
    # confidence.tail_evals counts the calls the tracer's wrappers see:
    # for 3 of 14, the Newton steps, two certified points and the
    # midpoints of the replayed bisection between them for P[X >= 3],
    # then the same for P[X >= 11], whose lower endpoint is one minus
    # the upper one
    calls = []

    def counted(attr):
        original = getattr(confidence, attr)

        def wrapper(*args, **kwargs):
            calls.append((attr, args[:2]))
            return original(*args, **kwargs)
        monkeypatch.setattr(confidence, attr, wrapper)

    counted("binomial_sf")
    counted("binomial_cdf")
    counted("_betai")
    confidence.clopper_pearson(SampleCount(3, 14), 0.99)
    tails = [call for call in calls if call[0] != "_betai"]
    assert tails == [("binomial_sf", (3, 14))] * 7 + [("binomial_sf", (11, 14))] * 9
    # and no tail is evaluated past the wrappers
    assert len(calls) == 2 * len(tails)
