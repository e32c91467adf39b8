"""Metamorphic relations of the whole decision path.

Each relation transforms a problem file and says how the report must
change, or that it must not: no single layer's oracle states these.
Each runs over the benchmark's seed-1 documents and over documents
drawn from the schema strategy of test_schema_draws.py and the fuzzer
of test_problem_fuzz.py.  A document the parser refuses has nothing to
relate; one that parses is read, resolved and explored before and after
the transformation, and a ValueError on either side must meet one on
the other.

- Act order.  Permuting the acts keeps every act's expected utility
  bit-identical at every explored level, the maximal sets equal as
  sets, and the status, tolerance, level and error.  A decided act stays
  the same; only a risk-problem tie, which maximin breaks by act order,
  may name another.
- Outcome order.  Permuting the outcomes of acts whose utilities are
  distinct gives the same report text: fsum is correctly rounded and
  the allocation order follows the utilities.
- Scaling.  Multiplying every utility by 2^k, away from overflow and
  subnormals, multiplies every expected-utility endpoint by exactly
  2^k and keeps every decision and every tolerance, odds-derived ones
  included.
- Tolerance.  Any explicit tolerance above the error of the level a
  report stopped at gives the same report at the same level, but for
  the tolerance it names.
- Two paths, one answer.  A file that resolves, written back in levels
  form with its resolved boxes as overrides, gives the same exit code,
  stdout and stderr from decide --json.
- Narrowing.  Shrinking every box of every resolved level toward a
  feasible point inside it, and reading the result back as a levels-form
  file, keeps each act's expected-utility interval inside the old one
  and the maximal set inside the old one, up to the rounding of the
  greedy allocation (NARROWING_ULPS).
"""

import copy
import dataclasses
import io
import json
import math
import random
import tempfile
import types
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from credalbox import (
    NO_MANDATE,
    CredalLevel,
    CredalSequence,
    ProbInterval,
    ToleranceSpec,
    eu_all,
    explore,
    maximal_set,
    parse_document,
)
from credalbox.cli import main
from support import levels_document, seeded_pool
from test_problem_fuzz import SEEDS, mutate
from test_schema_draws import documents

POOLS = ("explore-wide", "refclass-chain")
POOL_DOCS = [(f"{workload}-{k:02d}", doc) for workload in POOLS
             for k, doc in enumerate(seeded_pool(workload))]


@st.composite
def fuzzed_documents(draw):
    raw = copy.deepcopy(draw(st.sampled_from(SEEDS)))
    data = types.SimpleNamespace(draw=draw)
    for _ in range(draw(st.integers(1, 3))):
        mutate(data, raw)
    return raw


DRAWN = st.one_of(documents(), fuzzed_documents())


def decide(raw, spec=None):
    """The report for the raw document, or None when reading, resolving
    or exploring it raises a ValueError."""
    try:
        doc = parse_document(raw)
        return explore(doc.problem, doc.build_sequence(),
                       doc.tolerance if spec is None else spec)
    except ValueError:
        return None


def parses(raw) -> bool:
    try:
        parse_document(raw)
    except ValueError:
        return False
    return True


def eu_reprs(row) -> dict:
    return {name: (repr(iv.lo), repr(iv.hi)) for name, iv in row.eu.items()}


# --------------------------------------------------------------- act order

def permute_acts(raw, order) -> dict:
    out = copy.deepcopy(raw)
    out["acts"] = [out["acts"][i] for i in order]
    return out


def check_act_order(raw, order) -> None:
    before, after = decide(raw), decide(permute_acts(raw, order))
    assert (before is None) == (after is None)
    if before is None:
        return
    assert (after.status, repr(after.tolerance), after.level_used,
            repr(after.error_used), after.ambiguous) == (
        before.status, repr(before.tolerance), before.level_used,
        repr(before.error_used), before.ambiguous)
    if before.status != "risk-problem":
        assert after.act == before.act
    assert len(after.trace) == len(before.trace)
    for was, now in zip(before.trace, after.trace):
        assert (now.index, repr(now.error)) == (was.index, repr(was.error))
        assert eu_reprs(now) == eu_reprs(was)
        assert set(now.maximal) == set(was.maximal)


# ----------------------------------------------------------- outcome order

def permute_outcomes(raw, rng) -> dict:
    """raw with the outcomes of each act whose utilities are distinct
    shuffled; raw must parse, so every utility is a finite number."""
    out = copy.deepcopy(raw)
    for act in out["acts"]:
        utils = [float(o["utility"]) for o in act["outcomes"]]
        if len(set(utils)) == len(utils):
            rng.shuffle(act["outcomes"])
    return out


def check_outcome_order(raw, rng) -> None:
    before = decide(raw)
    after = decide(permute_outcomes(raw, rng))
    assert (before is None) == (after is None)
    if before is not None:
        assert after.to_json() == before.to_json()


# ----------------------------------------------------------------- scaling

# below these, a product of a probability and a utility, or a sum of
# them, stays a normal float after scaling by 2^k for |k| <= 20, and
# above TOP_UTILITY * 2^20 a sum of them could overflow
LEAST_UTILITY = 2.0 ** -500
LEAST_PROB = 2.0 ** -400
TOP_UTILITY = 2.0 ** 990
LEAST_EU = 2.0 ** -960


def scalable(raw) -> bool:
    """Every utility and probability endpoint of the parsed document and
    of every level it resolves to is zero or far from the subnormals,
    and no utility is near overflow."""
    doc = parse_document(raw)
    try:
        seq = doc.build_sequence()
    except ValueError:
        return False
    utils = [abs(o.utility) for act in doc.problem.acts for o in act.outcomes]
    probs = [x for act in doc.problem.acts for o in act.outcomes
             for x in (o.prob.lo, o.prob.hi)]
    probs += [x for level in seq.levels for box in level.assignments.values()
              for iv in box.values() for x in (iv.lo, iv.hi)]
    return (all(u == 0.0 or LEAST_UTILITY <= u <= TOP_UTILITY for u in utils)
            and all(p == 0.0 or p >= LEAST_PROB for p in probs))


def scale_utilities(raw, k: int) -> dict:
    out = copy.deepcopy(raw)
    for act in out["acts"]:
        for o in act["outcomes"]:
            o["utility"] = float(o["utility"]) * 2.0 ** k
    return out


def check_scaling(raw, k: int) -> bool:
    """False when an expected utility of raw lies too near the
    subnormals for the relation to hold."""
    before = decide(raw)
    after = decide(scale_utilities(raw, k))
    assert (before is None) == (after is None)
    if before is None:
        return True
    endpoints = [x for row in before.trace for iv in row.eu.values()
                 for x in (iv.lo, iv.hi)]
    # a sum that cancels to near the subnormals rounds apart once scaled
    if not all(x == 0.0 or abs(x) >= LEAST_EU for x in endpoints):
        return False
    scaled = [dataclasses.replace(row, eu={
        name: type(iv)(iv.lo * 2.0 ** k, iv.hi * 2.0 ** k)
        for name, iv in row.eu.items()}) for row in before.trace]
    assert after.to_json() == dataclasses.replace(before, trace=scaled).to_json()
    return True


# --------------------------------------------------------------- tolerance

def check_tolerance(raw, above) -> None:
    """above(error) gives tolerances in (error, 1] to try."""
    before = decide(raw)
    if before is None or before.status == NO_MANDATE or before.error_used >= 1.0:
        return
    for tolerance in above(before.error_used):
        after = decide(raw, ToleranceSpec.explicit(tolerance))
        assert after.tolerance == tolerance
        assert dataclasses.replace(after, tolerance=before.tolerance).to_json() == \
            before.to_json()


# --------------------------------------------------------------- two paths

def decide_json(raw) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of decide --json on raw as a file."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "problem.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["decide", "--json", str(path)])
    return code, out.getvalue(), err.getvalue()


def check_two_paths(raw) -> bool:
    """False when raw does not resolve, and so has no levels form."""
    try:
        seq = parse_document(raw).build_sequence()
    except ValueError:
        return False
    assert decide_json(levels_document(raw, seq)) == decide_json(raw)
    return True


# --------------------------------------------------------------- narrowing

def feasible_point(act, box, rng) -> dict:
    """A distribution over the act's outcomes inside its bounds under box:
    the lower bounds, with the mass they leave poured up to the upper
    bounds in a random order.  Where the feasibility slack lets the lower
    bounds sum above 1, or the upper bounds below it, it is those bounds."""
    bounds = [box.get(o.label, o.prob) for o in act.outcomes]
    p = [iv.lo for iv in bounds]
    residual = 1.0 - math.fsum(p)
    order = list(range(len(p)))
    rng.shuffle(order)
    for i in order:
        add = min(bounds[i].hi - p[i], max(residual, 0.0))
        p[i] += add
        residual -= add
    return dict(zip(act.labels(), p))


def narrowed(problem, seq, rng) -> CredalSequence:
    """seq with every box shrunk toward a feasible point inside it, by a
    fraction drawn per box; a fraction of 1 leaves the point itself.
    The min and max keep each interval around the point whatever the
    rounding, so the shrunk box stays inside the old one and feasible."""
    def shrink(act, box):
        point = feasible_point(act, box, rng)
        frac = rng.choice([1.0, rng.random()])
        out = {}
        for label, iv in box.items():
            x = point[label]
            out[label] = ProbInterval(min(iv.lo + frac * (x - iv.lo), x),
                                      max(iv.hi - frac * (iv.hi - x), x))
        return out

    return CredalSequence(tuple(
        CredalLevel(level.index, level.error,
                    {name: shrink(problem.act(name), box)
                     for name, box in level.assignments.items()})
        for level in seq.levels))


#: units of 2**-52 times the largest utility, per outcome and one more,
#: by which a narrowed box's expected-utility endpoint may pass the old
#: one's.  One evaluation pours mass outcome by outcome, rounding each
#: probability and the mass left by at most 2**-53, and fsum rounds
#: once more; the relation compares two evaluations
NARROWING_ULPS = 2


def check_narrowing(raw, rng) -> int | None:
    """None when raw does not resolve; else the number of levels compared."""
    doc = parse_document(raw)
    try:
        seq = doc.build_sequence()
    except ValueError:
        return None
    # the shrunk boxes are written as a levels-form file, whichever form
    # raw has, and read back as any file is
    narrow = parse_document(levels_document(raw, narrowed(doc.problem, seq, rng)))
    slack = {act.name: NARROWING_ULPS * (len(act.outcomes) + 1) * 2.0 ** -52
             * max(abs(o.utility) for o in act.outcomes)
             for act in doc.problem.acts}
    levels = list(zip(seq.levels, narrow.build_sequence().levels, strict=True))
    for old, new in levels:
        before = eu_all(doc.problem, old.assignments)
        after = eu_all(narrow.problem, new.assignments)
        for name, was in before.items():
            now = after[name]
            assert now.lo >= was.lo - slack[name] and now.hi <= was.hi + slack[name], \
                (old.index, name, was, now)
        # an act may join the maximal set only if rounding could have
        # put it there: its old upper bound within the slack of the best
        # old lower bound
        best = max(iv.lo for iv in before.values())
        for name in set(maximal_set(after)) - set(maximal_set(before)):
            assert before[name].hi >= best - 2.0 * max(slack.values()), (old.index, name)
    return len(levels)


# ---------------------------------------------------------- the seed pools

def pool_tolerances(error: float) -> list[float]:
    return sorted({math.nextafter(error, 2.0), (error + 1.0) / 2.0, 1.0})


@pytest.mark.parametrize("name, raw", POOL_DOCS, ids=[n for n, _ in POOL_DOCS])
def test_relations_on_the_seed_pools(name, raw):
    rng = random.Random(name)
    order = list(range(len(raw["acts"])))
    rng.shuffle(order)
    check_act_order(raw, order)
    check_act_order(raw, order[::-1])
    check_outcome_order(raw, rng)
    assert scalable(raw)
    for k in (rng.randint(1, 20), -rng.randint(1, 20)):
        assert check_scaling(raw, k)
    check_tolerance(raw, pool_tolerances)


@pytest.mark.parametrize("name, raw", POOL_DOCS, ids=[n for n, _ in POOL_DOCS])
def test_two_paths_on_the_seed_pools(name, raw):
    assert check_two_paths(raw)


def test_narrowing_on_the_seed_pools():
    compared = sum(check_narrowing(raw, random.Random(f"{name}-{k}"))
                   for name, raw in POOL_DOCS for k in range(3))
    assert compared == 2679


def test_the_seed_pools_stop_at_a_level():
    # the tolerance relation has something to check on 30 of the 64
    reports = [decide(raw) for _, raw in POOL_DOCS]
    assert sum(r is not None and r.status != NO_MANDATE for r in reports) == 30


# -------------------------------------------------------- drawn documents

SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)


@SETTINGS
@given(DRAWN, st.data())
def test_act_order(raw, data):
    assume(parses(raw))
    order = data.draw(st.permutations(range(len(raw["acts"]))))
    check_act_order(raw, order)


@SETTINGS
@given(DRAWN, st.randoms(use_true_random=False))
def test_outcome_order(raw, rng):
    assume(parses(raw))
    check_outcome_order(raw, rng)


@SETTINGS
@given(DRAWN, st.integers(-20, 20))
def test_scaling(raw, k):
    assume(parses(raw) and scalable(raw))
    assume(check_scaling(raw, k))


@SETTINGS
@given(DRAWN, st.data())
def test_tolerance(raw, data):
    assume(parses(raw))
    check_tolerance(raw, lambda error: [data.draw(
        st.floats(error, 1.0, exclude_min=True), label="tolerance")])


@SETTINGS
@given(DRAWN)
def test_two_paths(raw):
    assume(parses(raw))
    assume(check_two_paths(raw))


@SETTINGS
@given(DRAWN, st.randoms(use_true_random=False))
def test_narrowing(raw, rng):
    assume(parses(raw))
    assume(check_narrowing(raw, rng) is not None)
