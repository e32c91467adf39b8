"""Output checks, run by run.py after the timed loop has ended.

Every check returns a list of problems; an empty list means the output
passed.  The expected values are computed here without calling
credalbox: expected utilities by vertex enumeration over boxes resolved
from the document itself, dominance by the linear max-lower-bound rule,
direct inference over a reachability closure of the specificity pairs,
Clopper-Pearson tails by exact rational sums, and the pooled belief of
a binary ds-threshold pair in closed form.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from fractions import Fraction

EU_TOL = 1e-7
SAMPLED_ACTS = 8
EXACT_CP_TRIALS = 60


def _inline_refs(node, defs):
    if isinstance(node, dict):
        if set(node) == {"$ref"}:
            return _inline_refs(defs[node["$ref"].rsplit("/", 1)[-1]], defs)
        return {k: _inline_refs(v, defs) for k, v in node.items() if k != "$defs"}
    if isinstance(node, list):
        return [_inline_refs(v, defs) for v in node]
    return node


def schema_validator(path: str):
    """A draft 2020-12 validator for a schema file whose local $defs
    references are inlined first; the rules are unchanged, and validation
    runs about twice as fast without reference lookups."""
    import jsonschema

    with open(path, encoding="utf-8") as handle:
        schema = json.load(handle)
    return jsonschema.Draft202012Validator(_inline_refs(schema, schema.get("$defs", {})))


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in report")


def strict_loads(text: str):
    """json.loads that refuses NaN, Infinity and -Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


# ------------------------------------------------------------------ boxes

def _meet(a, b):
    lo, hi = max(a[0], b[0]), min(a[1], b[1])
    return [lo, hi] if lo <= hi else None


def _resolve_box(act: dict, constraints: dict, overrides: dict) -> list[list[float]]:
    """The act's per-outcome box at one level, by the document's rules:
    event bounds apply to every outcome with that label, a bound on one
    outcome of a two-outcome act forces the complement on the other, and
    raw overrides are intersected on top."""
    over = {o["label"]: constraints[o["label"]]
            for o in act["outcomes"] if o["label"] in constraints}
    if len(act["outcomes"]) == 2:
        first, second = (o["label"] for o in act["outcomes"])
        forced = dict(over)
        for mine, other in ((first, second), (second, first)):
            if mine in over:
                comp = [1.0 - over[mine][1], 1.0 - over[mine][0]]
                forced[other] = _meet(forced[other], comp) if other in forced else comp
        over = forced
    for label, iv in overrides.items():
        over[label] = _meet(over[label], iv) if label in over else list(iv)
    return [over.get(o["label"], o.get("prob", [0.0, 1.0])) for o in act["outcomes"]]


def vertex_eu(utils, box) -> tuple[float, float]:
    """Extreme expected utilities over {p : lo <= p <= hi, sum p = 1}.

    Every vertex of that polytope has at most one coordinate strictly
    inside its bounds, so fixing all others at a bound and solving for
    the free one visits every vertex."""
    n = len(utils)
    values = []
    for free in range(n):
        others = [i for i in range(n) if i != free]
        for bits in itertools.product((0, 1), repeat=n - 1):
            p = [0.0] * n
            for idx, bit in zip(others, bits):
                p[idx] = box[idx][bit]
            rest = 1.0 - math.fsum(p[i] for i in others)
            if box[free][0] - 1e-12 <= rest <= box[free][1] + 1e-12:
                p[free] = min(max(rest, box[free][0]), box[free][1])
                values.append(math.fsum(pi * u for pi, u in zip(p, utils)))
    return min(values), max(values)


def _reachable(pairs) -> dict[str, set[str]]:
    """more_specific -> every class it is (transitively) more specific than."""
    up: dict[str, set[str]] = {}
    for low, high in pairs:
        up.setdefault(low, set()).add(high)
    out = {}
    for start in up:
        seen, todo = set(), [start]
        while todo:
            for nxt in up.get(todo.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    todo.append(nxt)
        out[start] = seen
    return out


def _bodies(doc: dict) -> list[tuple[float, list[dict]]]:
    """(error, accepted statements) per body, K_0 first."""
    statements = doc["statements"]
    rule = doc["acceptance"]["rule"]
    bodies = [(0.0, [])]
    if rule == "threshold":
        for eps in doc["acceptance"]["error_levels"]:
            bodies.append((eps, [s for s in statements
                                 if 1.0 - s.get("prob", 1.0) < eps]))
    else:
        ordered = sorted(statements, key=lambda s: -s.get("prob", 1.0))
        error = 0.0
        for j, s in enumerate(ordered, start=1):
            error = max(error, 1.0 - s.get("prob", 1.0))
            bodies.append((error, ordered[:j]))
    return bodies


def _body_constraints(accepted: list[dict], entries, above) -> dict:
    """Event bounds from a body's direct inferences."""
    freq = {(e["class"], e["event"]): e["interval"] for e in entries}
    members: dict[str, set[str]] = {}
    for s in accepted:
        if s["kind"] == "class-frequency":
            freq.setdefault((s["class"], s["event"]), s["interval"])
        elif s["kind"] == "membership":
            members.setdefault(s["item"], set()).add(s["class"])
        else:
            raise ValueError(f"unexpected statement kind {s['kind']!r}")
    constraints: dict[str, list[float]] = {}

    def clamp(event, iv):
        merged = _meet(constraints[event], iv) if event in constraints else list(iv)
        if merged is None:
            raise ValueError(f"constraints on {event!r} conflict")
        constraints[event] = merged

    for item in sorted(members):
        events = sorted({e for c, e in freq if c in members[item]})
        for event in events:
            usable = {c for c in members[item] if (c, event) in freq}
            top = [c for c in usable
                   if not any(c in above.get(d, ()) for d in usable if d != c)]
            answers = {tuple(freq[(c, event)]) for c in top}
            if len(answers) != 1:
                raise ValueError(f"no unique reference class for {item!r}, {event!r}")
            clamp(event, list(answers.pop()))
    return constraints


def level_boxes(doc: dict, names):
    """(error, {act name: box}) for every level the document states, for
    the named acts."""
    acts = [a for a in doc["acts"] if a["name"] in names]
    if "levels" in doc:
        for level in doc["levels"]:
            constraints: dict[str, list[float]] = {}
            for c in level.get("constraints", []):
                if c["kind"] != "event-interval":
                    raise ValueError(f"unexpected level constraint {c['kind']!r}")
                constraints[c["event"]] = (_meet(constraints[c["event"]], c["interval"])
                                           if c["event"] in constraints
                                           else c["interval"])
            overrides = level.get("overrides", {})
            yield level["error"], {
                a["name"]: _resolve_box(a, constraints, overrides.get(a["name"], {}))
                for a in acts}
        return
    refs = doc.get("reference_classes", {})
    above = _reachable(refs.get("specificity", []))
    for error, accepted in _bodies(doc):
        constraints = _body_constraints(accepted, refs.get("entries", []), above)
        yield error, {a["name"]: _resolve_box(a, constraints, {}) for a in acts}


# --------------------------------------------------------------- reports

def _tolerance(doc: dict) -> float:
    tol = doc.get("tolerance", {"mode": "explicit", "max_error": 1.0})
    if tol["mode"] == "explicit":
        return tol["max_error"]
    utils = [o["utility"] for a in doc["acts"] for o in a["outcomes"]]
    gain, loss = max(utils), -min(utils)
    rho = max(gain, loss) / min(gain, loss)
    return 1.0 - rho / (rho + 1.0)


def sampled_acts(names: list[str], seed: int) -> list[str]:
    """The acts whose EU intervals are checked by vertex enumeration."""
    return random.Random(seed).sample(names, min(SAMPLED_ACTS, len(names)))


def check_decide(doc: dict, data: bytes, validator, sample_seed: int) -> list[str]:
    """Check one `decide --json` run: exit code, schema, bounds, dominance,
    the decision itself and, on a sample of acts, the EU intervals."""
    head, _, body = data.partition(b"\n")
    code, stderr = json.loads(head)
    problems = []
    if stderr:
        problems.append(f"stderr: {stderr.strip()[:200]}")
    try:
        report = strict_loads(body.decode("utf-8"))
    except ValueError as exc:
        return problems + [f"report is not strict JSON: {exc}"]
    errors = sorted(validator.iter_errors(report), key=str)
    if errors:
        return problems + [f"schema: {errors[0].message[:200]}"]
    status = report["status"]
    if code != (2 if status == "no-mandate" else 0):
        problems.append(f"exit code {code} with status {status}")
    tolerance = _tolerance(doc)
    if abs(report["tolerance"] - tolerance) > 1e-12:
        problems.append(f"tolerance {report['tolerance']} != {tolerance}")
    ranges = {a["name"]: (min(o["utility"] for o in a["outcomes"]),
                          max(o["utility"] for o in a["outcomes"]))
              for a in doc["acts"]}
    names = list(ranges)
    sample = sampled_acts(names, sample_seed)
    levels = list(level_boxes(doc, set(sample)))
    utils = {a["name"]: [o["utility"] for o in a["outcomes"]] for a in doc["acts"]}
    rows = report["trace"]
    for pos, row in enumerate(rows):
        if row["index"] != pos or row["error"] != levels[pos][0]:
            problems.append(f"trace row {pos} is level {row['index']} "
                            f"at error {row['error']}")
            break
        if row["error"] >= tolerance:
            problems.append(f"level {pos} explored at error {row['error']} "
                            f">= tolerance {tolerance}")
        eu = row["eu"]
        if list(eu) != names:
            problems.append(f"level {pos} reports acts {list(eu)[:3]}...")
            break
        for name, (lo, hi) in eu.items():
            umin, umax = ranges[name]
            if not umin - EU_TOL <= lo <= hi <= umax + EU_TOL:
                problems.append(f"level {pos} act {name}: [{lo}, {hi}] "
                                f"outside [{umin}, {umax}]")
        for name in sample:
            want = vertex_eu(utils[name], levels[pos][1][name])
            got = eu[name]
            if abs(got[0] - want[0]) > EU_TOL or abs(got[1] - want[1]) > EU_TOL:
                problems.append(f"level {pos} act {name}: {got} but vertices "
                                f"give {list(want)}")
        # an act is dominated exactly when some lower bound exceeds its
        # upper bound; its own lower bound never does
        top_lo = max(iv[0] for iv in eu.values())
        maximal = [name for name, iv in eu.items() if not top_lo > iv[1]]
        if row["maximal"] != maximal:
            problems.append(f"level {pos}: maximal {row['maximal'][:5]} "
                            f"but dominance gives {maximal[:5]}")
    if status == "decided":
        if report["level_used"] != len(rows) - 1 or not rows:
            problems.append("decided, but level_used is not the last explored level")
        else:
            row = rows[-1]
            act = report["act"]
            if row["maximal"] != [act]:
                problems.append(f"decided {act} but maximal is {row['maximal'][:5]}")
            others = [iv for name, iv in row["eu"].items() if name != act]
            if act not in row["eu"] or not all(row["eu"][act][0] > iv[1] for iv in others):
                problems.append(f"decided {act} does not dominate every other act")
            if not report["error_used"] < tolerance:
                problems.append(f"error_used {report['error_used']} >= tolerance")
    elif status == "no-mandate":
        if any(len(row["maximal"]) < 2 for row in rows):
            problems.append("no mandate, but some level had a single maximal act")
        if len(rows) < len(levels) and levels[len(rows)][0] < tolerance:
            problems.append("no mandate, but a level within tolerance was skipped")
    return problems


# ----------------------------------------------------------------- stats

def _tail(x: int, n: int, p: Fraction, upper: bool) -> Fraction:
    support = range(x, n + 1) if upper else range(0, x + 1)
    q = 1 - p
    return sum(math.comb(n, i) * p ** i * q ** (n - i) for i in support)


def check_cp(spec: dict, out) -> list[str]:
    lo, hi = out
    x, n, c = spec["k"], spec["n"], spec["c"]
    if not 0.0 <= lo <= x / n <= hi <= 1.0:
        return [f"cp({x}, {n}, {c}) = [{lo}, {hi}] misses x/n"]
    if (x == 0) != (lo == 0.0) or (x == n) != (hi == 1.0):
        return [f"cp({x}, {n}, {c}) = [{lo}, {hi}] pins the wrong endpoint"]
    if n > EXACT_CP_TRIALS:
        return []
    # each endpoint must bracket the (1 - c)/2 tail within 1e-8
    alpha = Fraction((1.0 - c) / 2.0)
    step = Fraction(1, 10 ** 8)
    problems = []
    if x > 0:
        below, above = max(Fraction(lo) - step, 0), min(Fraction(lo) + step, 1)
        if not _tail(x, n, below, True) <= alpha <= _tail(x, n, above, True):
            problems.append(f"cp({x}, {n}, {c}) lower end {lo} misses the tail")
    if x < n:
        below, above = max(Fraction(hi) - step, 0), min(Fraction(hi) + step, 1)
        if not _tail(x, n, below, False) >= alpha >= _tail(x, n, above, False):
            problems.append(f"cp({x}, {n}, {c}) upper end {hi} misses the tail")
    return problems


def pooled_belief(g1: float, g2: float, rate: float) -> float:
    """bel(G) after combining Bayesian (g1, 1-g1) with (g2, 1-g2)
    discounted at rate, in closed form."""
    agree = g1 * (1 - rate) * g2 + g1 * rate
    conflict = (1 - rate) * (g1 * (1 - g2) + (1 - g1) * g2)
    return agree / (1 - conflict)


def check_ds(spec: dict, out) -> list[str]:
    g1, g2 = spec["m1"][0], spec["m2"][0]
    problems = []
    rate = out["rate"]
    if not 0.0 <= rate <= 1.0 or abs(pooled_belief(g1, g2, rate) - spec["target"]) > 1e-6:
        problems.append(f"ds threshold {rate} misses target {spec['target']}")
    for side, pooled, status, act in out["sides"]:
        want = pooled_belief(g1, g2, side)
        if abs(pooled - want) > 1e-9:
            problems.append(f"pooled belief {pooled} at {side}, closed form {want}")
        # example D: a1 pays 10 on G and -30 otherwise, a2 pays 0
        margin = 40 * pooled - 30
        expected = "a1" if margin > 1e-9 else "a2" if margin < -1e-9 else None
        if expected is not None and (status, act) != ("decided", expected):
            problems.append(f"belief {pooled}: got {status} {act}, want {expected}")
    return problems


def _softmax(weights):
    top = max(weights)
    raw = [math.exp(w - top) for w in weights]
    total = math.fsum(raw)
    return [x / total for x in raw]


def _point_eus(family: dict, theta: float) -> dict[str, float]:
    return {a["name"]: math.fsum(p * u for p, u in zip(
        _softmax([al + be * theta for al, be in zip(a["alpha"], a["beta"])]),
        a["utilities"])) for a in family["acts"]}


def check_starr(spec: dict, out) -> list[str]:
    winner, measures = out
    res = spec["resolution"]
    step = (spec["hi"] - spec["lo"]) / res
    want = {a["name"]: 0.0 for a in spec["family"]["acts"]}
    for k in range(res):
        scores = _point_eus(spec["family"], spec["lo"] + (k + 0.5) * step)
        best = max(scores.values())
        tops = [name for name, v in scores.items() if v == best]
        for name in tops:
            want[name] += 1.0 / res / len(tops)
    problems = []
    if any(abs(measures[name] - want[name]) > 1e-9 for name in want):
        problems.append(f"starr shares {measures} but grid gives {want}")
    if measures[winner] != max(measures.values()):
        problems.append(f"starr winner {winner} lacks the largest share")
    return problems


def check_hoeu(spec: dict, out) -> list[str]:
    weight = 1.0 / len(spec["thetas"])
    problems = []
    for a in spec["family"]["acts"]:
        want = math.fsum(weight * _point_eus(spec["family"], t)[a["name"]]
                         for t in spec["thetas"])
        if abs(out[a["name"]] - want) > 1e-9 * max(1.0, abs(want)):
            problems.append(f"mixture EU of {a['name']}: {out[a['name']]} != {want}")
        if not min(a["utilities"]) - EU_TOL <= out[a["name"]] <= max(a["utilities"]) + EU_TOL:
            problems.append(f"mixture EU of {a['name']} leaves its utility range")
    return problems


STATS_CHECKS = {"cp": check_cp, "ds": check_ds, "starr": check_starr,
                "hoeu": check_hoeu}


def check_stats(spec: dict, data: bytes) -> list[str]:
    try:
        out = strict_loads(data.decode("utf-8"))
    except ValueError as exc:
        return [f"output is not strict JSON: {exc}"]
    return STATS_CHECKS[spec["kind"]](spec, out)
