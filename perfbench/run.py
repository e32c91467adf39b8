"""Benchmark of `credalbox decide` and the side tools, one workload a run.

    python3 perfbench/run.py --workload explore-wide --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from the repository root.  The run writes the workload's seeded
inputs under .perfbench/<workload>/, validates each generated document
against schema/problem.schema.json, then starts fresh interpreters with
src/ on the path: several that only import credalbox and report ready
(set-up time), and one worker that runs the timed loop (worker.py).
After the worker exits every output is checked (checks.py), a sha256
digest of all outputs is printed, and the last line of stdout is one
JSON object with the metrics: end-to-end ones with --trace 0, per-layer
ones from a traced loop with --trace 1.  Exit status 0 means the run
finished; whether the outputs were right is the "correct" field.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
from tracing import OP, SPANS  # noqa: E402

SETUP_PROBES = 11
# every run, build included, must end within this many seconds
RUN_LIMIT_S = 170

COUNTS = (
    "knowledge.bodies",
    "knowledge.with_entries.calls",
    "knowledge.direct_inference.calls",
    "knowledge.level_from_body.calls",
    "knowledge.apply_level.calls",
    "expectation.acts_evaluated",
    "ordering.maximal_set.calls",
    "engine.levels_explored",
    "engine.status.decided",
    "engine.status.risk-problem",
    "engine.status.no-mandate",
    "confidence.tail_evals",
    "confidence.terms_summed",
    "belief.dempster_combine.calls",
    "engine.starr.grid_points",
)

# layers whose time is reported as self time: their children are other layers
SELF_TIMED = ("cli.decide", "problem_io.load_path", "problem_io.loads",
              "problem_io.build_sequence", "engine.explore")


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _env(root: str) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = os.path.join(root, "src")
    # set iteration order, and with it float summation order, stays fixed
    env["PYTHONHASHSEED"] = "0"
    return env


def _worker_cmd(plan_path: str, out_dir: str, seconds: float, trace: int) -> list[str]:
    return [sys.executable, os.path.join(HERE, "worker.py"), plan_path, out_dir,
            str(seconds), str(trace)]


@contextlib.contextmanager
def _child(cmd: list[str], env: dict, deadline: float, stdout):
    """Start cmd and, on leaving the block, wait for it until the deadline.
    It is killed if it runs past the deadline or anything interrupts."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        yield proc
        proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError("worker ran past the run's time limit") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")


def time_setup(cmd: list[str], env: dict, deadline: float) -> tuple[float, float]:
    """Median CPU seconds a fresh interpreter spends up to its `ready`
    line, scaled to the host's speed and as measured, after one untimed
    start that fills the bytecode cache."""
    scaled, raw = [], []
    for probe in range(SETUP_PROBES + 1):
        with _child(cmd + ["--probe"], env, deadline, subprocess.PIPE) as proc:
            fields = proc.stdout.readline().decode().split()
        try:
            word, cpu_ns, scaled_ns = fields[0], int(fields[1]), float(fields[2])
        except (IndexError, ValueError):
            word = None
        if word != "ready":
            raise BenchError("set-up probe never reported ready")
        if probe:
            scaled.append(scaled_ns / 1e9)
            raw.append(cpu_ns / 1e9)
    return statistics.median(scaled), statistics.median(raw)


def prepare(workload: str, seed: int, work: str) -> tuple[str, dict, list]:
    """Write the inputs and the worker's plan; return (plan path, plan,
    inputs).  Each generated document is validated once, here."""
    shutil.rmtree(work, ignore_errors=True)
    inputs_dir = os.path.join(work, "inputs")
    os.makedirs(os.path.join(work, "outputs"))
    plan, items = gen.write_inputs(workload, seed, inputs_dir)
    if workload == "stats-tools":
        sizes = [spec.get("n", 0) for spec in items]
    else:
        validator = checks.schema_validator(os.path.join("schema", "problem.schema.json"))
        for k, doc in enumerate(items):
            for error in validator.iter_errors(doc):
                raise BenchError(f"generated document {k} breaks the problem "
                                 f"schema: {error.message}")
        sizes = [len(doc["acts"]) if "levels" in doc else len(doc["statements"])
                 for doc in items]
    plan["seed"] = seed
    plan["sizes"] = sizes
    plan_path = os.path.join(work, "plan.json")
    with open(plan_path, "w", encoding="utf-8") as handle:
        json.dump(plan, handle)
    return plan_path, plan, items


def check_outputs(workload: str, seed: int, items: list, out_dir: str,
                  digests: dict) -> tuple[dict[int, list[str]], str]:
    """Check the first output of every pool item; return the problems per
    item and the sha256 over all outputs in pool order."""
    validator = None
    if workload != "stats-tools":
        validator = checks.schema_validator(os.path.join("schema", "report.schema.json"))
    problems: dict[int, list[str]] = {}
    total = hashlib.sha256()
    for item in range(len(items)):
        if str(item) not in digests:
            continue  # the op raised every time; counted through `raised`
        with open(os.path.join(out_dir, f"{item:03d}.out"), "rb") as handle:
            data = handle.read()
        total.update(data)
        try:
            if validator is not None:
                found = checks.check_decide(items[item], data, validator,
                                            sample_seed=seed * 1000 + item)
            else:
                found = checks.check_stats(items[item], data)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            found = [f"output has an unexpected shape: {type(exc).__name__}: {exc}"]
        if found:
            problems[item] = found
    return problems, total.hexdigest()


def count_failed(sequence: list[int], raised: dict[int, str], bad: set[int]) -> int:
    """Ops that raised, plus every op on a pool item whose output failed a
    check or changed between runs."""
    return sum(1 for n, item in enumerate(sequence) if n in raised or item in bad)


def input_latencies_ms(result: dict, key: str = "scaled_ns") -> list[float]:
    """Each op's latency (scaled to the host's speed, or as measured with
    key="latencies_ns") replaced by the median over all runs of the same
    input in this run.  Scaling takes out most of the host's changes of
    speed, which reach a factor of two for seconds to minutes at a time;
    the median takes out what is left of the single run's noise.  Latency
    percentiles and ops_per_s (the inverse of the mean) are all taken
    over these."""
    runs: dict[int, list[float]] = {}
    for item, ns in zip(result["sequence"], result[key]):
        runs.setdefault(item, []).append(ns)
    typical = {item: statistics.median(values) for item, values in runs.items()}
    return [typical[item] / 1e6 for item in result["sequence"]]


def end_to_end(result: dict, setup_s: float, failed: int) -> dict:
    ms = input_latencies_ms(result)
    return {
        "setup_s": _metric(setup_s, "s"),
        "op_ms_p50": _metric(statistics.median(ms), "ms"),
        "op_ms_p90": _metric(statistics.quantiles(ms, n=10)[-1], "ms"),
        "ops_per_s": _metric(len(ms) / (math.fsum(ms) / 1e3), "1/s"),
        "ok_frac": _metric(1.0 - failed / len(ms), "ratio"),
        "peak_rss_mb": _metric(result["peak_rss_mb"], "MB"),
    }


def per_layer(result: dict) -> tuple[dict, list[str]]:
    """Per-layer metrics from a traced run, and any count that failed to
    repeat across the run's whole cycles."""
    layers = result["layers"]["all"]
    ops = layers["ops"]
    op_time = layers["op_time"]
    metrics = {}
    for name in SPANS:
        if name in SELF_TIMED:
            metrics[f"{name}.self_ms"] = _metric(layers["self"][name] / ops / 1e6, "ms")
        else:
            metrics[f"{name}.ms"] = _metric(layers["inclusive"][name] / ops / 1e6, "ms")
    for name in list(SPANS) + [OP]:
        key = "share.uncovered" if name == OP else f"share.{name}"
        metrics[key] = _metric(layers["self"][name] / op_time, "ratio")
    cycles = result["cycle_counts"]
    counts = cycles[0]
    unstable = sorted({k for c in cycles[1:] for k in set(c) | set(counts)
                       if c.get(k, 0) != counts.get(k, 0)})
    for name in COUNTS:
        metrics[name] = _metric(counts.get(name, 0), "count")
    built = counts.get("knowledge.level_from_body.calls", 0)
    explored = counts.get("engine.levels_explored", 0)
    metrics["knowledge.levels_used_ratio"] = _metric(
        explored / built if built else 0.0, "ratio")
    n = len(result["latencies_ns"])
    traced = n / (result["timed_ns"] / 1e9)
    untraced = n / (result["untraced_timed_ns"] / 1e9)
    metrics["trace.ops_per_s"] = _metric(traced, "1/s")
    metrics["trace.untraced_ops_per_s"] = _metric(untraced, "1/s")
    metrics["trace.slowdown"] = _metric(untraced / traced, "ratio")
    return metrics, unstable


def layer_table(result: dict) -> list[str]:
    """Self-time shares per layer for all ops, the largest quarter of
    the pool and the ops at or above the traced p90 latency."""
    lines = []
    for group, label in (("all", "all ops"), ("large", "largest quarter of inputs"),
                         ("p90", "ops at or above p90")):
        layers = result["layers"][group]
        total = layers["op_time"] or 1
        ranked = sorted(layers["self"].items(), key=lambda kv: -kv[1])
        lines.append(f"self-time share, {label} ({layers['ops']} ops):")
        for name, ns in [kv for kv in ranked if kv[1] > 0][:6]:
            shown = "(uncovered)" if name == OP else name
            lines.append(f"  {shown:32s} {ns / total:7.1%}")
    return lines


def run(args, workload: str) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "credalbox", "__init__.py")) \
            or not os.path.isdir(os.path.join(root, "schema")):
        raise BenchError("run from the repository root: src/credalbox and "
                         "schema/ are missing here")
    phases = [time.monotonic()]
    work = os.path.join(root, ".perfbench", workload)
    plan_path, plan, items = prepare(workload, args.seed, work)
    env = _env(root)
    out_dir = os.path.join(work, "outputs")
    cmd = _worker_cmd(plan_path, out_dir, args.seconds, args.trace)
    phases.append(time.monotonic())
    setup_s, setup_raw_s = (None, None) if args.trace else time_setup(cmd, env, deadline)
    phases.append(time.monotonic())
    with _child(cmd, env, deadline, subprocess.DEVNULL):
        pass
    phases.append(time.monotonic())
    with open(os.path.join(out_dir, "result.json"), encoding="utf-8") as handle:
        result = json.load(handle)

    problems, digest = check_outputs(workload, args.seed, items, out_dir,
                                     result["digests"])
    phases.append(time.monotonic())
    print("wall seconds: " + ", ".join(
        f"{name} {b - a:.1f}" for name, a, b in
        zip(("inputs", "set-up probes", "worker", "checks"), phases, phases[1:])))
    bad = set(problems) | set(result["mismatched"])
    sequence = result["sequence"]
    raised = {int(k): v for k, v in result["raised"].items()}
    failed = count_failed(sequence, raised, bad)
    for item in sorted(bad):
        detail = problems.get(item, ["output differs between runs of the same input"])
        print(f"FAIL item {item}: {detail[0]}", file=sys.stderr)
    for n in sorted(raised)[:5]:
        print(f"FAIL op {n} (item {sequence[n]}): {raised[n]}", file=sys.stderr)

    correct = failed == 0
    if args.trace:
        metrics, unstable = per_layer(result)
        if unstable or result.get("replay_raised"):
            correct = False
            print(f"FAIL counts differ between cycles: {unstable}", file=sys.stderr)
        for line in layer_table(result):
            print(line)
    else:
        metrics = end_to_end(result, setup_s, failed)
        ms = input_latencies_ms(result)
        above = sum(1 for v in ms if v > metrics["op_ms_p90"]["value"])
        print(f"{len(ms)} ops in {len(ms) // result['pool']} whole cycles of "
              f"{result['pool']} inputs, {result['timed_ns'] / 1e9:.1f} s of op CPU time; "
              f"{above} ops above p90")
        raw = input_latencies_ms(result, "latencies_ns")
        print(f"unscaled CPU time: setup_s {setup_raw_s:.4f}, op_ms_p50 "
              f"{statistics.median(raw):.3f}, op_ms_p90 "
              f"{statistics.quantiles(raw, n=10)[-1]:.3f}, ops_per_s "
              f"{len(raw) / (math.fsum(raw) / 1e3):.3f}")
    for name, metric in metrics.items():
        print(f"{workload:15s} {name:36s} {metric['value']:14.6g} {metric['unit']}")
    print(f"outputs sha256 {workload} seed {args.seed}: {digest}")
    return {"correct": correct, "attempted": len(sequence), "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=gen.WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run unwinds, so the interpreter it started is killed too
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    workloads = gen.WORKLOADS if args.workload == "all" else (args.workload,)
    outs = {}
    try:
        for workload in workloads:
            outs[workload] = run(args, workload)
    except (BenchError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    if len(outs) == 1:
        print(json.dumps(outs[args.workload]))
        return 0
    print(json.dumps({
        "correct": all(out["correct"] for out in outs.values()),
        "attempted": sum(out["attempted"] for out in outs.values()),
        "failed": sum(out["failed"] for out in outs.values()),
        "metrics": {f"{workload}.{name}": metric for workload, out in outs.items()
                    for name, metric in out["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
