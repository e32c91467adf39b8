"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py -q

Run from the repository root, so that src/ and schema/ resolve.
"""

from __future__ import annotations

import contextlib
import filecmp
import io
import json
import os
import subprocess
import sys
from array import array

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import gen  # noqa: E402
import run  # noqa: E402
from tracing import OP, layer_times, self_times  # noqa: E402


def _schema(name):
    return checks.schema_validator(os.path.join(ROOT, "schema", name))


# ------------------------------------------------------------- generators

def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for workload in gen.WORKLOADS:
        first, second = tmp_path / f"{workload}-a", tmp_path / f"{workload}-b"
        gen.write_inputs(workload, 11, str(first))
        gen.write_inputs(workload, 11, str(second))
        names = sorted(os.listdir(first))
        assert names == sorted(os.listdir(second))
        # plan.json names its own directory, so compare it after the rename
        for name in names:
            if name != "plan.json":
                assert filecmp.cmp(first / name, second / name, shallow=False)
        plans = [json.loads((d / "plan.json").read_text()) for d in (first, second)]
        for plan in plans:
            plan["docs"] = [os.path.basename(p) for p in plan.get("docs", [])]
        assert plans[0] == plans[1]


def test_other_seed_gives_other_inputs():
    for workload in gen.WORKLOADS:
        assert json.dumps(gen.plan(workload, 1)) != json.dumps(gen.plan(workload, 2))


def test_generated_documents_validate():
    validator = _schema("problem.schema.json")
    for seed in (1, 2):
        for doc in gen.plan("refclass-chain", seed):
            assert validator.is_valid(doc)
        # the smallest third of the explore-wide pool keeps this quick
        for doc in gen.plan("explore-wide", seed)[:7]:
            assert validator.is_valid(doc)


def test_stats_targets_lie_inside_the_reachable_range():
    for spec in gen.plan("stats-tools", 5):
        if spec["kind"] == "ds":
            g1, g2 = spec["m1"][0], spec["m2"][0]
            ends = sorted((checks.pooled_belief(g1, g2, 0.0), g1))
            assert ends[0] - 1e-12 <= spec["target"] <= ends[1] + 1e-12


# -------------------------------------------------------------- self time

def test_self_time_on_a_synthetic_span_tree():
    #   0 root      [0, 100]
    #   1  a        [10, 40]
    #   2   a1      [15, 20]
    #   3  b        [30, 60]   overlaps a: [30, 40] is covered once
    #   4  c        [90, 120]  runs past root: clipped to [90, 100]
    starts = [0, 10, 15, 30, 90]
    ends = [100, 40, 20, 60, 120]
    parents = [-1, 0, 1, 0, 0]
    assert self_times(starts, ends, parents) == [100 - 50 - 10, 30 - 5, 5, 30, 30]


def test_layer_times_count_nested_same_name_once():
    names = [OP, "x", "y"]
    name_ids = array("i", [0, 1, 1, 2, 0, 2])
    starts = array("q", [0, 10, 20, 30, 100, 110])
    ends = array("q", [50, 40, 30, 35, 150, 150])
    parents = array("i", [-1, 0, 1, 1, -1, 4])
    op_ids = array("i", [0, 0, 0, 0, 1, 1])
    t = layer_times(names, name_ids, starts, ends, parents, op_ids)
    assert t.ops == 2 and t.op_time == 100
    assert t.inclusive == {OP: 100, "x": 30, "y": 45}
    assert t.self_time == {OP: 20 + 10, "x": 30 - 5, "y": 5 + 40}
    only_second = layer_times(names, name_ids, starts, ends, parents, op_ids,
                              keep=lambda op: op == 1)
    assert only_second.ops == 1 and only_second.inclusive["x"] == 0


# ---------------------------------------------------------------- checks

def _decide_output(doc: dict, tmp_path) -> bytes:
    from credalbox import cli

    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["decide", str(path), "--json"])
    return json.dumps([code, err.getvalue()]).encode() + b"\n" + out.getvalue().encode()


def _small_docs():
    return gen.plan("explore-wide", 3)[:4] + gen.plan("refclass-chain", 3)[:4]


def test_real_reports_pass_the_checks(tmp_path):
    validator = _schema("report.schema.json")
    for k, doc in enumerate(_small_docs()):
        assert checks.check_decide(doc, _decide_output(doc, tmp_path), validator, k) == []


def _corrupt(data: bytes, edit) -> bytes:
    head, _, body = data.partition(b"\n")
    report = json.loads(body)
    edit(report)
    return head + b"\n" + json.dumps(report, indent=2).encode()


def test_corrupted_reports_fail_the_checks(tmp_path):
    validator = _schema("report.schema.json")
    doc = gen.plan("explore-wide", 3)[1]
    data = _decide_output(doc, tmp_path)
    sample = checks.sampled_acts([a["name"] for a in doc["acts"]], 0)
    act = next(name for name in sample if name != "sure")

    def widen(report):
        report["trace"][0]["eu"][act][1] = 1e6

    def shrink(report):
        lo, hi = report["trace"][-1]["eu"][act]
        report["trace"][-1]["eu"][act] = [lo + (hi - lo) / 3, hi - (hi - lo) / 3]

    def misname(report):
        report["act"] = "nobody"
        report["status"] = "decided"

    def drop_key(report):
        del report["tolerance"]

    for edit in (widen, shrink, misname, drop_key):
        assert checks.check_decide(doc, _corrupt(data, edit), validator, 0)
    head, _, body = data.partition(b"\n")
    nan = head + b"\n" + body.replace(b'"tolerance": ', b'"tolerance": NaN, "x": ', 1)
    assert "not strict JSON" in checks.check_decide(doc, nan, validator, 0)[0]


def test_a_corrupted_output_is_counted_as_a_failed_op(tmp_path):
    docs = _small_docs()[:3]
    out_dir = tmp_path / "outputs"
    out_dir.mkdir()
    digests = {}
    for k, doc in enumerate(docs):
        data = _decide_output(doc, tmp_path)
        if k == 1:
            data = _corrupt(data, lambda r: r["trace"][0].update(maximal=[]))
        (out_dir / f"{k:03d}.out").write_bytes(data)
        digests[str(k)] = "-"
    old = os.getcwd()
    os.chdir(ROOT)
    try:
        problems, _ = run.check_outputs("explore-wide", 3, docs, str(out_dir), digests)
    finally:
        os.chdir(old)
    assert set(problems) == {1}
    sequence = [0, 1, 2, 1, 0, 2]
    assert run.count_failed(sequence, {}, set(problems)) == 2
    assert run.count_failed(sequence, {4: "ValueError"}, set(problems)) == 3


def test_stats_checks_catch_wrong_answers():
    cp = {"kind": "cp", "k": 3, "n": 14, "c": 0.99}
    from credalbox import SampleCount, clopper_pearson

    iv = clopper_pearson(SampleCount(3, 14), 0.99)
    assert checks.check_cp(cp, [iv.lo, iv.hi]) == []
    assert checks.check_cp(cp, [iv.lo, iv.hi + 1e-4])
    assert checks.check_cp(cp, [iv.lo * 0.99, iv.hi])
    ds = {"kind": "ds", "m1": [0.8, 0.2], "m2": [0.3, 0.7], "target": 0.7}
    assert checks.check_ds(ds, {"rate": 0.5, "sides": []})


# ---------------------------------------------------------------- counts

def _traced_counts(tmp_path, tag: str) -> list[dict]:
    """Run the worker traced over the six smallest refclass-chain and
    stats-tools inputs of one seed and return its per-cycle counts."""
    cycles = []
    for workload in ("refclass-chain", "stats-tools"):
        work = tmp_path / f"{workload}-{tag}"
        plan, items = gen.write_inputs(workload, 4, str(work))
        if workload == "stats-tools":
            plan["ops"] = [s for s in items if s.get("n", 0) < 2000][:6]
        else:
            plan["docs"] = plan["docs"][:6]
        plan["seed"] = 4
        (work / "outputs").mkdir()
        (work / "plan.json").write_text(json.dumps(plan))
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), PYTHONHASHSEED="0")
        subprocess.run([sys.executable, os.path.join(HERE, "worker.py"),
                        str(work / "plan.json"), str(work / "outputs"), "0.3", "1"],
                       env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
        result = json.loads((work / "outputs" / "result.json").read_text())
        assert len(result["cycle_counts"]) >= 1
        cycles.append(result["cycle_counts"])
    return cycles


def test_counts_repeat_exactly_across_runs_of_one_seed(tmp_path):
    first = _traced_counts(tmp_path, "a")
    second = _traced_counts(tmp_path, "b")
    assert [c[0] for c in first] == [c[0] for c in second]
    refclass, stats = first
    assert refclass[0]["knowledge.with_entries.calls"] > 0
    assert stats[0]["confidence.tail_evals"] > 0
    for cycles in first + second:
        assert all(c == cycles[0] for c in cycles)


# ---------------------------------------------------------------- timing

def test_op_times_are_scaled_by_the_reference_around_them(tmp_path, monkeypatch):
    import worker
    # the reference reads 1 ms and 3 ms in turn, so every op sits between
    # one of each and is scaled by 1 ms / 2 ms
    readings = iter([1_000_000, 3_000_000] * 1000)
    monkeypatch.setattr(worker, "reference_ns", lambda: next(readings))
    sequence, latencies, scaled, *_ = worker.run_loop(
        [lambda: 1, lambda: 2], worker.op_order(2, 0), 0.0, worker.Outputs(str(tmp_path)))
    assert len(sequence) == worker.MIN_OPS
    assert scaled == [ns / 2 for ns in latencies]


def test_each_op_counts_at_the_median_of_its_inputs_runs():
    result = {"sequence": [0, 1, 0, 1, 0, 1],
              "scaled_ns": [1e6, 5e6, 3e6, 7e6, 2e6, 6e6]}
    assert run.input_latencies_ms(result) == [2.0, 6.0] * 3


# ------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_names_every_printed_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        bench = json.load(handle)
    assert [w["name"] for w in bench["workloads"]] == list(gen.WORKLOADS)
    result = {"pool": 10, "sequence": list(range(10)) * 2,
              "latencies_ns": [1e6 * (k + 1) for k in range(20)], "timed_ns": 2.1e8,
              "scaled_ns": [1e6 * (k + 1) for k in range(20)],
              "peak_rss_mb": 30.0}
    e2e = run.end_to_end(result, 0.1, 0)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == \
        {k: v["unit"] for k, v in e2e.items()}
    zero = {name: 0 for name in ["op"] + list(run.SPANS)}
    layers = {"inclusive": zero, "self": zero, "op_time": 1, "ops": 1}
    traced = {"layers": {"all": layers}, "cycle_counts": [{}], "latencies_ns": [1],
              "timed_ns": 1, "untraced_timed_ns": 1}
    metrics, _ = run.per_layer(traced)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == \
        {k: v["unit"] for k, v in metrics.items()}
