"""One workload's timed loop, run in a fresh interpreter by run.py.

    python3 perfbench/worker.py <plan.json> <out-dir> <seconds> <trace 0|1> [--probe]

The worker imports credalbox and reads the plan.  With --probe it then
prints ``ready``, the CPU time it has used so far, and that time scaled
to the host's speed (see run_loop), and stops: that is how run.py times
set-up.  Otherwise it runs the plan's ops in seeded whole-pool cycles
until the wall-clock time is spent and enough cycles are done.  Each op
is timed alone, in CPU time; keeping its
output, which happens between ops and outside the timed region, writes
the first output of each pool item to <out-dir>/<item>.out and compares
every later one with it by sha256.  With trace 1 the loop runs under the
tracer, and then the same op sequence is replayed untraced to measure
the tracer's overhead.  Results go to <out-dir>/result.json.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time

import credalbox
from credalbox import belief, cli, confidence, engine, knowledge
from credalbox.belief import MassFunction
from credalbox.confidence import SampleCount
from credalbox.engine import ParameterizedCredal, WeightedCredal
from credalbox.expectation import Act, DecisionProblem, Outcome
from credalbox.intervals import ProbInterval
from credalbox.knowledge import BodyOfKnowledge, CredalSequence, Statement

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from tracing import Tracer, layer_times  # noqa: E402

MIN_CYCLES = 4
MIN_OPS = 120
# the CPU time the reference loop is scaled to; it takes about this long
# in the fast phases of the host the benchmark was built on
REFERENCE_NS = 1_000_000


def reference() -> list:
    """A fixed piece of plain Python work of the kinds an op does: dict
    updates, tuple compares, float arithmetic and a JSON round trip.  It
    calls nothing in credalbox, so no change to credalbox moves its time;
    only the host's speed does."""
    table = {}
    for i in range(3000):
        key = i % 101
        pair = (i * 0.5, i * 1.5)
        old = table.get(key)
        table[key] = pair if old is None or old < pair else old
    return json.loads(json.dumps(sorted(table.items())))


def reference_ns() -> int:
    start = time.process_time_ns()
    reference()
    return time.process_time_ns() - start


def decide_op(path: str):
    def op():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["decide", path, "--json"])
        return {"code": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return op


def _softmax(weights: list[float]) -> list[float]:
    top = max(weights)
    raw = [math.exp(w - top) for w in weights]
    total = math.fsum(raw)
    return [x / total for x in raw]


def family_mapping(family: dict):
    """theta -> act-keyed outcome distributions of a generated family."""
    acts = family["acts"]

    def mapping(theta: float) -> dict[str, list[float]]:
        return {a["name"]: _softmax([al + be * theta
                                     for al, be in zip(a["alpha"], a["beta"])])
                for a in acts}
    return mapping


def family_problem(family: dict) -> DecisionProblem:
    return DecisionProblem("family", tuple(
        Act(a["name"], tuple(Outcome(f"o{i}", u) for i, u in enumerate(a["utilities"])))
        for a in family["acts"]))


def stats_op(spec: dict, pooled_doc):
    kind = spec["kind"]
    if kind == "cp":
        def op():
            iv = confidence.clopper_pearson(SampleCount(spec["k"], spec["n"]), spec["c"])
            return [iv.lo, iv.hi]
    elif kind == "ds":
        def op():
            frame = ("G", "not-G")
            m1 = MassFunction(frame, dict(zip(frame, spec["m1"])))
            m2 = MassFunction(frame, dict(zip(frame, spec["m2"])))
            rate = belief.discount_threshold(m1, m2, "G", spec["target"])
            sides = []
            for side in (rate - 1e-3, rate + 1e-3):
                if not 0.0 <= side <= 1.0:
                    continue
                pooled = belief.bel(
                    belief.dempster_combine(m1, belief.discount(m2, side)), "G")
                body = BodyOfKnowledge(0, 0.0, (Statement.event_interval(
                    "pooled", "G", ProbInterval(pooled, pooled)),))
                seq = CredalSequence((knowledge.level_from_body(body, pooled_doc.problem),))
                report = engine.explore(pooled_doc.problem, seq, pooled_doc.tolerance)
                sides.append([side, pooled, report.status, report.act])
            return {"rate": rate, "sides": sides}
    elif kind == "starr":
        def op():
            credal = ParameterizedCredal(spec["lo"], spec["hi"],
                                         family_mapping(spec["family"]),
                                         spec["resolution"])
            winner, measures = engine.starr(family_problem(spec["family"]), credal)
            return [winner, measures]
    elif kind == "hoeu":
        def op():
            mapping = family_mapping(spec["family"])
            weight = 1.0 / len(spec["thetas"])
            credal = WeightedCredal(tuple((mapping(t), weight) for t in spec["thetas"]))
            return engine.higher_order_eu(family_problem(spec["family"]), credal)
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    return op


def build_ops(plan: dict) -> list:
    if "docs" in plan:
        return [decide_op(path) for path in plan["docs"]]
    pooled_doc = credalbox.load_fixture("example_d")
    return [stats_op(spec, pooled_doc) for spec in plan["ops"]]


def op_order(pool: int, seed: int):
    """Endless whole-pool cycles, each a fresh seeded permutation."""
    rng = random.Random(f"order:{seed}")
    while True:
        cycle = list(range(pool))
        rng.shuffle(cycle)
        yield from cycle


def encode(result) -> bytes:
    if isinstance(result, dict) and "stdout" in result:
        return json.dumps([result["code"], result["stderr"]]).encode() + b"\n" \
            + result["stdout"].encode()
    return json.dumps(result).encode()


class Outputs:
    """First output per pool item on disk, later ones checked by digest."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        self.digests: dict[int, str] = {}
        self.mismatched: set[int] = set()

    def keep(self, item: int, data: bytes) -> None:
        digest = hashlib.sha256(data).hexdigest()
        if item not in self.digests:
            self.digests[item] = digest
            with open(os.path.join(self.out_dir, f"{item:03d}.out"), "wb") as handle:
                handle.write(data)
        elif self.digests[item] != digest:
            self.mismatched.add(item)


def run_loop(ops, order, seconds: float, outputs: Outputs,
             tracer: Tracer | None = None, replay: list[int] | None = None):
    """Run whole pool cycles, at least MIN_CYCLES of them and MIN_OPS ops
    and otherwise as many as fit seconds of timed work best, so every pool
    item runs equally often; or run exactly the replay sequence.

    Each op's CPU time is also given scaled to the host's speed at that
    moment: multiplied by REFERENCE_NS over the mean CPU time of the
    reference loop run just before and just after it.

    Returns (sequence, latencies_ns, scaled_ns, timed_ns, raised,
    cycle_counts)."""
    pool = len(ops)
    sequence: list[int] = []
    latencies: list[int] = []
    references: list[int] = []
    raised: dict[int, str] = {}
    cycle_counts: list[dict[str, int]] = []
    timed = 0
    source = iter(replay) if replay is not None else order
    # an op is timed in this process's CPU time: the host takes the CPU
    # away for stretches of tens of milliseconds, which the wall clock
    # would count and CPU time does not; the ops wait on nothing else
    clock = time.process_time_ns
    budget = int(seconds * 1e9)
    begun = time.perf_counter_ns()
    for item in source:
        references.append(reference_ns())
        done = len(sequence) // pool
        elapsed = time.perf_counter_ns() - begun
        # stop at the whole-cycle boundary closest to the wall-clock budget,
        # once each input has run MIN_CYCLES times and ten ops can lie above p90
        if replay is None and done >= MIN_CYCLES and len(sequence) >= MIN_OPS \
                and len(sequence) % pool == 0 and elapsed + elapsed / done / 2 >= budget:
            break
        op = ops[item]
        n = len(sequence)
        error = None
        start = clock()
        try:
            if tracer is None:
                result = op()
            else:
                result = tracer.run_op(n, op)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            result, error = None, f"{type(exc).__name__}: {exc}"
        end = clock()
        timed += end - start
        sequence.append(item)
        latencies.append(end - start)
        # untimed from here: keep the output and snapshot per-cycle counts
        if error is not None:
            raised[n] = error
        else:
            outputs.keep(item, encode(result))
        if tracer is not None and len(sequence) % pool == 0:
            cycle_counts.append(dict(tracer.counts))
    if len(references) == len(sequence):
        references.append(reference_ns())
    scaled = [ns * 2 * REFERENCE_NS / (before + after)
              for ns, before, after in zip(latencies, references, references[1:])]
    return sequence, latencies, scaled, timed, raised, cycle_counts


def per_cycle(snapshots: list[dict[str, int]]) -> list[dict[str, int]]:
    out, previous = [], {}
    for snap in snapshots:
        out.append({k: v - previous.get(k, 0) for k, v in snap.items()
                    if v - previous.get(k, 0)})
        previous = snap
    return out


def traced_summary(tracer: Tracer, sequence: list[int], latencies: list[int],
                   sizes: list[int]) -> dict:
    """Layer times over all ops, over ops on the largest quarter of the
    pool, and over ops at or above the traced p90 latency."""
    arrays = (tracer.names, tracer.name_ids, tracer.starts, tracer.ends,
              tracer.parents, tracer.op_ids)
    cut = sorted(sizes)[len(sizes) * 3 // 4]
    slow = sorted(latencies)[int(0.9 * len(latencies))]
    groups = {
        "all": lambda op: True,
        "large": lambda op: sizes[sequence[op]] >= cut,
        "p90": lambda op: latencies[op] >= slow,
    }
    out = {}
    for group, keep in groups.items():
        t = layer_times(*arrays, keep=keep)
        out[group] = {"inclusive": t.inclusive, "self": t.self_time,
                      "op_time": t.op_time, "ops": t.ops}
    return out


def write_spans(tracer: Tracer, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("name\tstart_ns\tend_ns\tparent\top\n")
        for name, start, end, parent, op in tracer.spans():
            handle.write(f"{name}\t{start}\t{end}\t{parent}\t{op}\n")


def peak_rss_mb() -> float:
    """This process's peak resident memory.  ru_maxrss would also count the
    parent's memory at the fork that started this interpreter, so Linux's
    VmHWM, which starts afresh at exec, is read where it exists."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv: list[str]) -> int:
    plan_path, out_dir, seconds, trace = argv[:4]
    with open(plan_path, encoding="utf-8") as handle:
        plan = json.load(handle)
    ops = build_ops(plan)
    # CPU time since this interpreter started, which is set-up time
    setup_ns = time.process_time_ns()
    if "--probe" in argv:
        # scaled by the host's speed just after set-up
        speed = statistics.median(reference_ns() for _ in range(5))
        print(f"ready {setup_ns} {setup_ns * REFERENCE_NS / speed}", flush=True)
        return 0
    seconds = float(seconds)
    pool = len(ops)
    outputs = Outputs(out_dir)
    tracer = Tracer() if trace == "1" else None
    if tracer is not None:
        tracer.install()
    order = op_order(pool, plan["seed"])
    sequence, latencies, scaled, timed, raised, snapshots = run_loop(
        ops, order, seconds, outputs, tracer)
    result = {
        "pool": pool,
        "sequence": sequence,
        "latencies_ns": latencies,
        "scaled_ns": scaled,
        "timed_ns": timed,
        "raised": raised,
        "digests": outputs.digests,
        "mismatched": sorted(outputs.mismatched),
    }
    if tracer is not None:
        tracer.uninstall()
        sizes = plan.get("sizes") or [1] * pool
        result["layers"] = traced_summary(tracer, sequence, latencies, sizes)
        result["cycle_counts"] = per_cycle(snapshots)
        write_spans(tracer, os.path.join(out_dir, "spans.tsv"))
        _, _, _, replay_ns, replay_raised, _ = run_loop(
            ops, None, 0.0, outputs, replay=sequence)
        result["untraced_timed_ns"] = replay_ns
        result["mismatched"] = sorted(outputs.mismatched)
        result["replay_raised"] = replay_raised
    result["peak_rss_mb"] = peak_rss_mb()
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
