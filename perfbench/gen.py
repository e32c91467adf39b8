"""Seeded input generators for the three benchmark workloads.

Every generator is a pure function of the seed: the same seed gives the
same documents and the same op plan, byte for byte.  Sizes, rules and
decision timings are laid out over fixed strata with little or no jitter, so
that two seeds draw different contents from one distribution instead of
different distributions.  No seed is filtered or re-drawn.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("explore-wide", "refclass-chain", "stats-tools")

# explore-wide: the acts-per-document range and how many documents a run cycles over
WIDE_ACTS = (16, 500)
WIDE_DOCS = 32
WIDE_LEVELS = 10
SHARED_LABELS = tuple(f"s{i}" for i in range(12))

# refclass-chain: the classes-per-document range and pool size
CHAIN_CLASSES = (8, 28)
CHAIN_DOCS = 32

# stats-tools: op pool size and the clopper_pearson trial-count range
STATS_OPS = 96
CP_TRIALS = (10, 30000)
CP_CONFIDENCES = (0.9, 0.95, 0.99)


def _rng(workload: str, seed: int, *tags) -> random.Random:
    return random.Random(":".join(str(part) for part in (workload, seed) + tags))


def _log_strata(rng: random.Random, count: int, lo: float, hi: float,
                jitter: float = 0.1) -> list[float]:
    """count values log-uniform over [lo, hi], one per equal-width stratum
    of log space, each at its stratum's middle give or take jitter of the
    stratum's width."""
    span = math.log(hi / lo)
    return [lo * math.exp(span * (k + 0.5 + rng.uniform(-jitter, jitter)) / count)
            for k in range(count)]


def _floor(x: float) -> float:
    return max(0.0, math.floor(x * 1e4) / 1e4)


def _ceil(x: float) -> float:
    return min(1.0, math.ceil(x * 1e4) / 1e4)


def _point(rng: random.Random, n: int, floor_share: float = 0.0) -> list[float]:
    """A random distribution over n outcomes.  A non-zero floor_share is
    given to the first outcome exactly, and the rest is split at random."""
    raw = [rng.random() + 0.05 for _ in range(n)]
    if floor_share:
        total = math.fsum(raw[1:])
        return [floor_share] + [(1.0 - floor_share) * x / total for x in raw[1:]]
    total = math.fsum(raw)
    return [x / total for x in raw]


def _box_around(rng: random.Random, p: list[float], width: float) -> list[list[float]]:
    """Per-outcome [lo, hi] containing the point p, rounded outwards so the
    box stays feasible."""
    return [[_floor(x - width * rng.random()), _ceil(x + width * rng.random())]
            for x in p]


def _interval(rng: random.Random, min_width: float, top: float = 1.0) -> list[float]:
    lo = rng.uniform(0.0, top - min_width)
    hi = rng.uniform(lo + min_width, top)
    return [_floor(lo), _ceil(hi)]


# ---------------------------------------------------------------- explore-wide

# utilities of the ordinary acts: a floor outcome, then the rest
FLOOR_UTILITY = (-95, -50)
UTILITY = (-95, 85)
# the sure act's utility, above any ordinary act's lower expected utility
SURE = 60


def wide_document(rng: random.Random, name: str, n_acts: int,
                  decide_at: int | None, cut_at: int | None) -> dict:
    """A levels-form document with n_acts acts and WIDE_LEVELS levels.

    Every ordinary act has a floor outcome o0 worth -95 to -50, and every
    box the document gives it lets o0 take at least 0.2 of the mass, so
    its lower expected utility stays below 0.2 * -50 + 0.8 * 85 = 58.  The
    first act is sure: one outcome worth 60.  So at every level the sure
    act sets the best lower bound, and the acts whose upper bound reaches
    60, a share that depends on the mix and not on a few extreme acts,
    stay undominated with it.

    One act, the candidate, holds the extreme utilities +100 and -100 on
    labels no other act uses.  While its box stays vacuous it dominates
    nobody and nobody dominates it, so no level decides.  At level
    decide_at (if any) it is re-boxed onto its best outcome, which lifts
    its lower expected utility to 90, above every other act's upper
    bound.  cut_at (if any) sets an explicit tolerance that stops
    exploration before that level; otherwise the tolerance lies above
    every level's error.
    """
    candidate = rng.randrange(1, n_acts)
    acts = [{"name": "sure", "outcomes": [{"label": "sure", "utility": SURE}]}]
    shared_of: dict[str, str] = {}
    for a in range(1, n_acts):
        act_name = f"a{a}"
        if a == candidate:
            mids = rng.randint(0, 4)
            outcomes = [{"label": "win-hi", "utility": 100},
                        {"label": "win-lo", "utility": -100}]
            outcomes += [{"label": f"win-m{m}",
                          "utility": round(rng.uniform(-99, 99), 2)}
                         for m in range(mids)]
            acts.append({"name": act_name, "outcomes": outcomes})
            continue
        k = rng.randint(2, 6)
        labels = [f"o{j}" for j in range(k)]
        if rng.random() < 0.5:
            shared = rng.choice(SHARED_LABELS)
            labels[rng.randrange(1, k)] = shared
            shared_of[act_name] = shared
        outcomes = [{"label": labels[0],
                     "utility": round(rng.uniform(*FLOOR_UTILITY), 2)}]
        outcomes += [{"label": lab, "utility": round(rng.uniform(*UTILITY), 2)}
                     for lab in labels[1:]]
        if act_name not in shared_of and rng.random() < 0.3:
            p = _point(rng, k, rng.uniform(0.25, 0.6))
            for o, box in zip(outcomes, _box_around(rng, p, 0.6)):
                o["prob"] = box
        acts.append({"name": act_name, "outcomes": outcomes})

    errors = [0.0] + sorted(round(rng.uniform(0.005, 0.45), 4)
                            for _ in range(WIDE_LEVELS - 1))
    win = acts[candidate]
    levels = []
    for j, error in enumerate(errors):
        # how much each level constrains follows a fixed pattern; which
        # labels and acts it touches is drawn
        constrained = set(rng.sample(SHARED_LABELS, j % 4 + 1)) if j else set()
        constraints = [{"kind": "event-interval", "event": lab,
                        # capped at 0.8 so a forced complement on o0 keeps 0.2
                        "interval": _interval(rng, 0.1, 0.8)}
                       for lab in sorted(constrained)]
        share = 0.05 + 0.45 * (j * 0.618034 % 1.0)
        overrides = {}
        for a, act in enumerate(acts):
            if a in (0, candidate) or shared_of.get(act["name"]) in constrained:
                continue
            if rng.random() < share:
                labels = [o["label"] for o in act["outcomes"]]
                p = _point(rng, len(labels), rng.uniform(0.25, 0.6))
                overrides[act["name"]] = dict(zip(labels, _box_around(rng, p, 0.3)))
        if j == decide_at:
            overrides[win["name"]] = {
                o["label"]: ([0.95, 1.0] if o["label"] == "win-hi" else [0.0, 0.05])
                for o in win["outcomes"]
            }
        level = {"error": error, "constraints": constraints}
        if overrides:
            level["overrides"] = overrides
        levels.append(level)

    if cut_at is not None:
        # errors are drawn to 4 decimals, so a gap between two levels is
        # either empty or at least 1e-4 wide
        below, above = errors[cut_at - 1], errors[cut_at]
        tolerance = {"mode": "explicit",
                     "max_error": (below + above) / 2 if above > below else above}
    elif rng.random() < 0.5:
        # the +-100 stakes give odds-derived tolerance 0.5, above every error
        tolerance = {"mode": "odds-derived"}
    else:
        tolerance = {"mode": "explicit",
                     "max_error": round(rng.uniform(0.46, 1.0), 4)}
    return {"problem": name, "acts": acts, "tolerance": tolerance,
            "levels": levels}


def _wide_shape(k: int) -> tuple[int | None, int | None]:
    """(decide_at, cut_at) for stratum k.  Strata rotate through an early
    decision (levels 0-2), a late one (levels 6-9) and no mandate, which
    alternates between walking all levels and a tolerance cut after 4-7
    levels.  The shape is fixed per stratum so that seeds vary contents,
    not how much of each document is explored."""
    turn = k // 3
    if k % 3 == 0:
        return turn % 3, None
    if k % 3 == 1:
        return 6 + turn % 4, None
    if turn % 2:
        return None, None
    return 8, 4 + (turn // 2) % 4


def explore_wide(seed: int) -> list[dict]:
    rng = _rng("explore-wide", seed)
    sizes = _log_strata(rng, WIDE_DOCS, *WIDE_ACTS)
    return [wide_document(rng, f"wide-{k:03d}", round(size), *_wide_shape(k))
            for k, size in enumerate(sizes)]


# -------------------------------------------------------------- refclass-chain

def chain_document(rng: random.Random, name: str, n_classes: int, n_acts: int,
                   rule: str, shape: str, odds: bool) -> dict:
    """A statements + acceptance document over a reference-class order.

    There are n_acts two-outcome acts, act k betting on event E{k}.  The
    classes split into one group per event; every class carries a
    frequency statement for its group's event only, and item x{k} is a
    member of one class per layer of group k, so its accepted classes
    always have a unique most specific one and no two items constrain
    the same event.  Groups are chains (one class per layer) or DAGs
    (two per layer, each more specific than both classes of the layer
    above), and the groups are linked end to end into one order.
    """
    width = 2 if shape == "dag" else 1
    per_group = max(width, n_classes // n_acts)
    statements = []
    specificity = []
    acts = []
    previous_top: list[str] = []
    sid = 0
    for k in range(n_acts):
        event = f"E{k}"
        gain = round(rng.uniform(5, 100), 2)
        loss = round(rng.uniform(-100, -5), 2)
        acts.append({"name": f"bet{k}", "outcomes": [
            {"label": event, "utility": gain},
            {"label": f"not-{event}", "utility": loss}]})
        layers = [[f"g{k}c{layer}x{w}" for w in range(width)]
                  for layer in range(per_group // width)]
        # layer 0 is the most general; frequencies narrow towards the
        # specific end around a hidden rate
        rate = rng.uniform(0.05, 0.95)
        for depth, layer in enumerate(layers):
            half = 0.45 * (1.0 - depth / len(layers)) + 0.01
            for cls in layer:
                centre = min(max(rate + rng.uniform(-0.05, 0.05), 0.0), 1.0)
                statements.append({
                    "id": f"f{sid}", "kind": "class-frequency", "class": cls,
                    "event": event,
                    "interval": [_floor(centre - half), _ceil(centre + half)],
                    "prob": round(rng.uniform(0.9, 1.0), 5)})
                sid += 1
            if depth:
                specificity += [[cls, up] for cls in layer for up in layers[depth - 1]]
        for layer in layers:
            statements.append({
                "id": f"m{sid}", "kind": "membership", "item": f"x{k}",
                "class": rng.choice(layer),
                "prob": round(rng.uniform(0.9, 1.0), 5)})
            sid += 1
        # the previous group's most general layer sits below this group's
        # most specific one, so the groups chain into one order
        specificity += [[low, cls] for low in previous_top for cls in layers[-1]]
        previous_top = layers[0]
    rng.shuffle(statements)
    doc = {"problem": name, "acts": acts}
    if odds:
        doc["tolerance"] = {"mode": "odds-derived"}
    else:
        doc["tolerance"] = {"mode": "explicit",
                            "max_error": round(rng.uniform(0.02, 0.12), 4)}
    doc["statements"] = statements
    acceptance = {"rule": rule}
    if rule == "threshold":
        acceptance["error_levels"] = sorted(
            {round(rng.uniform(0.001, 0.1), 4) for _ in range(10)})
    doc["acceptance"] = acceptance
    doc["reference_classes"] = {"entries": [], "specificity": specificity}
    return doc


def refclass_chain(seed: int) -> list[dict]:
    """Stratum k fixes the class count, the rule, the shape, the number of
    acts (2-4) and the tolerance mode, so seeds vary contents, not how much work the closure
    and the acceptance rule do.  The class count gets no jitter: the
    closure's running time depends on the order it meets its pairs in,
    which changes with the class names and so with the count."""
    rng = _rng("refclass-chain", seed)
    sizes = _log_strata(rng, CHAIN_DOCS, *CHAIN_CLASSES, jitter=0.0)
    rules = ("next-most-probable", "threshold")
    shapes = ("chain", "dag")
    return [chain_document(rng, f"chain-{k:03d}", round(size), 2 + k // 4 % 3,
                           rules[k % 2], shapes[k // 2 % 2], k // 8 % 2 == 0)
            for k, size in enumerate(sizes)]


# ----------------------------------------------------------------- stats-tools

def _family(rng: random.Random, k: int) -> dict:
    """A one-parameter family: act a, outcome i gets weight
    exp(alpha[a][i] + beta[a][i] * theta), normalised over outcomes.
    Stratum k fixes the size, 2-5 acts of 2-4 outcomes."""
    acts = []
    for a in range(2 + k % 4):
        n = 2 + (k + a) % 3
        acts.append({
            "name": f"f{a}",
            "utilities": [round(rng.uniform(-50, 50), 2) for _ in range(n)],
            "alpha": [round(rng.uniform(-2, 2), 3) for _ in range(n)],
            "beta": [round(rng.uniform(-3, 3), 3) for _ in range(n)],
        })
    return {"acts": acts}


def stats_tools(seed: int) -> list[dict]:
    """A fixed mix of op specs in a seeded order: half clopper_pearson, the
    rest split over the ds-threshold path, starr and higher_order_eu.  The
    sizes that set an op's cost (trials, grid resolution, mixture members,
    acts) sit on strata, as the decide workloads' sizes do."""
    rng = _rng("stats-tools", seed)
    n_cp = STATS_OPS // 2
    n_ds = n_starr = STATS_OPS // 6
    n_hoeu = STATS_OPS - n_cp - n_ds - n_starr
    ops = []
    for n in _log_strata(rng, n_cp, *CP_TRIALS):
        n = round(n)
        ops.append({"kind": "cp", "k": rng.randint(0, n), "n": n,
                    "c": rng.choice(CP_CONFIDENCES)})
    for _ in range(n_ds):
        g1 = round(rng.uniform(0.05, 0.95), 4)
        g2 = round(rng.uniform(0.05, 0.95), 4)
        at0 = g1 * g2 / (g1 * g2 + (1 - g1) * (1 - g2))
        lo, hi = sorted((at0, g1))
        ops.append({"kind": "ds", "m1": [g1, round(1 - g1, 4)],
                    "m2": [g2, round(1 - g2, 4)],
                    "target": lo + (hi - lo) * rng.uniform(0.1, 0.9)})
    for k, resolution in enumerate(_log_strata(rng, n_starr, 100, 2000)):
        lo = round(rng.uniform(-2, 0), 3)
        ops.append({"kind": "starr", "family": _family(rng, k), "lo": lo,
                    "hi": round(lo + rng.uniform(0.5, 3), 3),
                    "resolution": round(resolution)})
    for k, members in enumerate(_log_strata(rng, n_hoeu, 5, 200)):
        ops.append({"kind": "hoeu", "family": _family(rng, k),
                    "thetas": [round(rng.uniform(-2, 2), 4)
                               for _ in range(round(members))]})
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------------- output

def plan(workload: str, seed: int) -> list[dict]:
    """The workload's inputs: documents for the decide workloads, op
    specs for stats-tools."""
    if workload == "explore-wide":
        return explore_wide(seed)
    if workload == "refclass-chain":
        return refclass_chain(seed)
    if workload == "stats-tools":
        return stats_tools(seed)
    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def write_inputs(workload: str, seed: int, directory: str) -> tuple[dict, list[dict]]:
    """Write the workload's inputs under directory.  Returns the plan the
    worker reads (for decide workloads the document paths, for stats-tools
    the op specs) and the generated items."""
    os.makedirs(directory, exist_ok=True)
    items = plan(workload, seed)
    if workload == "stats-tools":
        spec = {"workload": workload, "ops": items}
    else:
        paths = []
        for k, doc in enumerate(items):
            path = os.path.join(directory, f"doc-{k:03d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump(doc, handle)
            paths.append(path)
        spec = {"workload": workload, "docs": paths}
    with open(os.path.join(directory, "plan.json"), "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    return spec, items

