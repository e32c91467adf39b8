"""Spans and counts taken from outside credalbox by rebinding.

Each layer function is replaced, on the module attribute its caller
looks up (or on its class), by a wrapper that records a span: name,
start, end, parent span and op id.  ``from .x import y`` binds a
separate name in every importing module, so a function is rebound on
each module that calls it: explore reaches ``credalbox.engine.maximal_set``,
not ``credalbox.ordering.maximal_set``.  Some functions are only
counted, because they run too often for a span each; a count hook may
read the call's arguments or result.  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import importlib
import time
from array import array
from dataclasses import dataclass
from typing import Callable

# span name -> places it is bound: (module, attribute) or (module, class, method)
SPANS = {
    "cli.decide": [("credalbox.cli", "main")],
    "problem_io.load_path": [("credalbox.cli", "load_path")],
    "problem_io.loads": [("credalbox.problem_io", "loads")],
    "problem_io.parse_document": [("credalbox.problem_io", "parse_document")],
    "problem_io.build_sequence": [("credalbox.problem_io", "ProblemDocument",
                                   "build_sequence")],
    "knowledge.accept": [("credalbox.problem_io", "accept_threshold"),
                         ("credalbox.problem_io", "accept_next_most_probable")],
    "knowledge.level_from_body": [("credalbox.problem_io", "level_from_body"),
                                  ("credalbox.knowledge", "level_from_body")],
    "knowledge.with_entries": [("credalbox.knowledge", "ReferenceClassTable",
                                "with_entries")],
    "knowledge.direct_inference": [("credalbox.knowledge", "direct_inference")],
    "engine.explore": [("credalbox.cli", "explore"), ("credalbox.engine", "explore")],
    "knowledge.apply_level": [("credalbox.engine", "apply_level")],
    "expectation.eu_all": [("credalbox.engine", "eu_all")],
    "ordering.maximal_set": [("credalbox.engine", "maximal_set")],
    "engine.to_dict": [("credalbox.engine", "DecisionReport", "to_dict")],
    "confidence.clopper_pearson": [("credalbox.confidence", "clopper_pearson")],
    "belief.discount_threshold": [("credalbox.belief", "discount_threshold")],
    "engine.starr": [("credalbox.engine", "starr")],
    "engine.higher_order_eu": [("credalbox.engine", "higher_order_eu")],
}

# function name -> places it is bound; these are counted, never spanned
COUNTED = {
    "confidence.binomial_sf": [("credalbox.confidence", "binomial_sf")],
    "confidence.binomial_cdf": [("credalbox.confidence", "binomial_cdf")],
    "belief.dempster_combine": [("credalbox.belief", "dempster_combine")],
}

# the root span every op opens; its self time is what no layer covers
OP = "op"


def _tail_terms(name: str, args) -> int:
    """Binomial terms the tail sum adds for these (k, n, p) arguments."""
    k, n, p = args
    if not 0.0 < p < 1.0:
        return 0
    if name == "confidence.binomial_sf":
        return n - k + 1 if 0 < k <= n else 0
    return k + 1 if 0 <= k < n else 0


def _count_hooks() -> dict[str, Callable]:
    """Per-call counters keyed by span or counted name.  Each hook takes
    (counts, args, result) and adds to counts."""

    def add(counts, key, value=1):
        counts[key] = counts.get(key, 0) + value

    def tail(name):
        def hook(counts, args, result):
            add(counts, "confidence.tail_evals")
            add(counts, "confidence.terms_summed", _tail_terms(name, args))
        return hook

    return {
        "problem_io.build_sequence":
            lambda c, a, r: add(c, "knowledge.levels_built", len(r.levels)),
        "knowledge.accept": lambda c, a, r: add(c, "knowledge.bodies", len(r)),
        "knowledge.level_from_body":
            lambda c, a, r: add(c, "knowledge.level_from_body.calls"),
        "knowledge.with_entries":
            lambda c, a, r: add(c, "knowledge.with_entries.calls"),
        "knowledge.direct_inference":
            lambda c, a, r: add(c, "knowledge.direct_inference.calls"),
        "knowledge.apply_level":
            lambda c, a, r: add(c, "knowledge.apply_level.calls"),
        "expectation.eu_all":
            lambda c, a, r: add(c, "expectation.acts_evaluated", len(r)),
        "ordering.maximal_set":
            lambda c, a, r: add(c, "ordering.maximal_set.calls"),
        "engine.explore": lambda c, a, r: (
            add(c, "engine.levels_explored", len(r.trace)),
            add(c, f"engine.status.{r.status}")),
        "engine.starr":
            lambda c, a, r: add(c, "engine.starr.grid_points", a[1].resolution),
        "confidence.binomial_sf": tail("confidence.binomial_sf"),
        "confidence.binomial_cdf": tail("confidence.binomial_cdf"),
        "belief.dempster_combine":
            lambda c, a, r: add(c, "belief.dempster_combine.calls"),
    }


class Tracer:
    """Records spans and counts while installed.

    Spans live in parallel arrays; parents[i] is the index of span i's
    parent, or -1 for a root.
    """

    def __init__(self):
        self.names: list[str] = [OP] + list(SPANS)
        self._ids = {name: i for i, name in enumerate(self.names)}
        self.name_ids = array("i")
        self.starts = array("q")
        self.ends = array("q")
        self.parents = array("i")
        self.op_ids = array("i")
        self.counts: dict[str, int] = {}
        self.op = -1
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self._hooks = _count_hooks()

    def _open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.op_ids.append(self.op)
        self.ends.append(0)
        self._stack.append(idx)
        self.starts.append(time.perf_counter_ns())
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    def run_op(self, op: int, fn: Callable[[], object]):
        """Call fn as op number op, under a root span."""
        self.op = op
        idx = self._open(0)
        try:
            return fn()
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn: Callable, spanned: bool) -> Callable:
        hook = self._hooks.get(name)
        counts = self.counts
        if not spanned:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                hook(counts, args, result)
                return result
            return counted
        name_id = self._ids[name]
        tracer = self

        def spanned_call(*args, **kwargs):
            idx = tracer._open(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if hook is not None:
                hook(counts, args, result)
            return result
        return spanned_call

    def install(self) -> None:
        for table, spanned in ((SPANS, True), (COUNTED, False)):
            for name, places in table.items():
                for place in places:
                    owner = importlib.import_module(place[0])
                    if len(place) == 3:
                        owner = getattr(owner, place[1])
                    attr = place[-1]
                    original = owner.__dict__[attr]
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, self._wrap(name, original, spanned))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def spans(self) -> list[tuple[str, int, int, int, int]]:
        """(name, start_ns, end_ns, parent, op) per span."""
        return [(self.names[n], s, e, p, o) for n, s, e, p, o in zip(
            self.name_ids, self.starts, self.ends, self.parents, self.op_ids)]


def self_times(starts, ends, parents) -> list[int]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to their parent's interval and overlapping
    children are counted once, so the result never goes negative.
    """
    children: dict[int, list[int]] = {}
    for idx, parent in enumerate(parents):
        if parent >= 0:
            children.setdefault(parent, []).append(idx)
    out = []
    for idx in range(len(starts)):
        lo, hi = starts[idx], ends[idx]
        covered = 0
        reach = lo
        for child in sorted(children.get(idx, ()), key=lambda c: starts[c]):
            begin = max(starts[child], reach)
            end = min(ends[child], hi)
            if end > begin:
                covered += end - begin
                reach = end
        out.append(hi - lo - covered)
    return out


@dataclass
class LayerTimes:
    """Per-layer totals over a set of ops, in nanoseconds."""

    inclusive: dict[str, int]
    self_time: dict[str, int]
    op_time: int
    ops: int


def layer_times(names, name_ids, starts, ends, parents, op_ids,
                keep: Callable[[int], bool] = lambda op: True) -> LayerTimes:
    """Sum each span name's inclusive and self time over the ops keep
    accepts.  Inclusive time counts a span only when no ancestor has the
    same name, so a layer that calls itself is not counted twice."""
    own = self_times(starts, ends, parents)
    inclusive = {name: 0 for name in names}
    self_time = {name: 0 for name in names}
    op_time = 0
    ops = set()
    for idx, name_id in enumerate(name_ids):
        if not keep(op_ids[idx]):
            continue
        name = names[name_id]
        self_time[name] += own[idx]
        parent = parents[idx]
        while parent >= 0 and name_ids[parent] != name_id:
            parent = parents[parent]
        if parent < 0:
            inclusive[name] += ends[idx] - starts[idx]
        if name == OP:
            op_time += ends[idx] - starts[idx]
            ops.add(op_ids[idx])
    return LayerTimes(inclusive, self_time, op_time, len(ops))
