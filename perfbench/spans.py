"""Outside-in span tracer for hkmulti, and the per-layer metrics it yields.

The tracer never edits the package.  It replaces, from the outside, every
binding of a chosen function in any ``hkmulti`` module namespace (and the
entries of ``properties.ALL_CHECKS``) by a wrapper that records one span per
call: name, parent, thread, start, end and thread CPU time.  Spans are kept
in memory and written out by the caller when the operation ends.

Self time is attributed by a sweep over the span boundaries.  At every
instant each thread that is running traced code contributes its innermost
span; the instant's wall time is split evenly among those spans.  A thread
whose innermost span is waiting on child spans running in other threads
(``sim.batch_run`` waiting on its pool) does not count.  The self times of
all spans therefore add up to the wall time of the root span exactly, also
for the threaded batch path.
"""

from __future__ import annotations

import itertools
import os
import statistics
import sys
import threading
import time
from fractions import Fraction

# Functions traced per module.  Helpers called once per matrix entry
# (is_finite, scalar_token, csv_token, ...) are left out: wrapping them would
# cost more than the work they do, so their time stays in their caller's
# self time.  ``_neighbors_from_averages`` is the ave neighbor rule that
# ``ave_step`` calls; no public function covers it alone.
TRACED = {
    "core": (
        "row_average",
        "disagreement_seminorm",
        "induced_disagreement_seminorm",
        "row_normalize",
        "topic_range",
        "global_range",
        "neighbor_means",
        "matrix_apply",
        "matrices_close",
        "values_close",
    ),
    "avemodel": (
        "ave_neighbors",
        "_neighbors_from_averages",
        "ave_step",
        "max_average_gap",
        "is_epsilon_chain",
    ),
    "uniform": (
        "linf_neighbors",
        "uniform_step",
        "one_step_preservation_hypothesis",
        "globally_ordered",
    ),
    "sim": ("run", "sample_initial", "normalize_box", "batch_run"),
    "analysis": (
        "refines",
        "opinion_partition",
        "per_topic_partition",
        "cluster_means",
        "classify_outcome",
    ),
    "oracle": ("induced_seminorm_bruteforce", "scalar_hk_step", "naive_model_step"),
    "serialize": (
        "write_matrix_csv",
        "read_matrix_csv",
        "trajectory_lines",
        "write_trajectory_jsonl",
        "read_trajectory_jsonl",
        "outcome_to_dict",
        "write_json",
        "read_json",
        "partition_lists",
    ),
    "properties": ("check_trajectory",),
}

LAYERS = ("cli", "core", "avemodel", "uniform", "sim", "analysis", "serialize", "properties", "oracle")

# the 12 registered property checks, one metric each
CHECK_NAMES = (
    "influence",
    "averaging-matrix",
    "states-chain",
    "contraction",
    "range-monotone",
    "box-confinement",
    "average-order",
    "average-reduction",
    "max-gap-stationary",
    "epsilon-chain-link",
    "terminal-classification",
    "per-topic-refinement",
)

ROOT = "cli.main"
AVE_RULE = "avemodel._neighbors_from_averages"
UNIFORM_RULE = "uniform.linf_neighbors"
STEPS = ("avemodel.ave_step", "uniform.uniform_step")
# the parts of a step that have a metric of their own; the rest of run()
# (report building, orderings, ranges) is sim.step_other_s
STEP_PARTS = (
    AVE_RULE,
    UNIFORM_RULE,
    "core.neighbor_means",
    "core.row_normalize",
    "core.induced_disagreement_seminorm",
    "core.matrices_close",
)
WRITERS = ("serialize.write_matrix_csv", "serialize.write_trajectory_jsonl", "serialize.write_json")
READERS = ("serialize.read_matrix_csv", "serialize.read_trajectory_jsonl", "serialize.read_json")
# calls whose arguments or results feed the count metrics
CAPTURED = (AVE_RULE, UNIFORM_RULE, "sim.run", "properties.check_trajectory") + WRITERS + READERS

# every per-layer metric, in report order; units are in BENCHMARK.json
LAYER_METRICS = (
    "trace.wall_s",
    "trace.untraced_wall_s",
    "trace.overhead_s",
    "trace.overhead_share",
    "trace.spans",
    "cli.self_s",
    "core.self_s",
    "core.gamma_s",
    "core.gamma_share",
    "core.averaging_s",
    "core.averaging_matrix_s",
    "core.fixed_point_test_s",
    "core.max_denominator_bits",
    "avemodel.self_s",
    "avemodel.neighbors_s",
    "avemodel.step_s",
    "avemodel.edges",
    "uniform.self_s",
    "uniform.neighbors_s",
    "uniform.step_s",
    "uniform.edges",
    "uniform.edge_density",
    "sim.self_s",
    "sim.run_s",
    "sim.steps",
    "sim.step_ms_p50",
    "sim.step_other_s",
    "sim.sample_initial_s",
    "sim.batch_run_s",
    "sim.batch_efficiency",
    "sim.retained_mb",
    "analysis.self_s",
    "analysis.classify_s",
    "analysis.classify_calls",
    "serialize.self_s",
    "serialize.write_s",
    "serialize.bytes_written",
    "serialize.read_s",
    "serialize.bytes_read",
    "properties.self_s",
    "properties.checks_s",
    *(f"properties.check.{name}_s" for name in CHECK_NAMES),
    "properties.violations",
    "oracle.self_s",
)

COUNT_KEYS = (
    "avemodel.edges",
    "uniform.edges",
    "uniform.pairs",
    "sim.steps",
    "core.max_denominator_bits",
    "serialize.bytes_written",
    "serialize.bytes_read",
    "properties.violations",
)


class Tracer:
    """Records spans for wrapped calls; one instance per traced operation."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.captures: list[tuple] = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._stacks: dict[int, list[int]] = {}

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
            self._stacks[threading.get_ident()] = stack
        return stack

    def wrap(self, name: str, fn):
        spans = self.spans
        captures = self.captures
        ids = self._ids
        perf = time.perf_counter
        cpu = time.thread_time
        capture = name in CAPTURED

        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                # first span of a pool thread: the caller is whatever the
                # main thread is inside (sim.batch_run)
                main = self._stacks.get(self._main)
                parent = main[-1] if main else None
            sid = next(ids)
            stack.append(sid)
            c0 = cpu()
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                c1 = cpu()
                stack.pop()
                spans.append((sid, parent, name, threading.get_ident(), t0, t1, c1 - c0))
            if capture:
                captures.append((name, args, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Swap every binding of each traced function for its wrapper."""
        modules = [
            m for key, m in list(sys.modules.items()) if key == "hkmulti" or key.startswith("hkmulti.")
        ]
        for layer, names in TRACED.items():
            module = sys.modules.get(f"hkmulti.{layer}")
            for name in names:
                fn = getattr(module, name, None)
                if not callable(fn):
                    continue
                wrapper = self.wrap(f"{layer}.{name}", fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            setattr(m, attr, wrapper)
        checks = getattr(sys.modules.get("hkmulti.properties"), "ALL_CHECKS", {})
        for key, fn in list(checks.items()):
            checks[key] = self.wrap(f"properties.check.{key}", fn)

    def span_records(self, op: int) -> list[dict]:
        """Spans as dicts, times relative to the root span's start."""
        if not self.spans:
            return []
        origin = min(s[4] for s in self.spans)
        threads: dict[int, int] = {}
        out = []
        for sid, parent, name, thread, t0, t1, c in sorted(self.spans):
            out.append(
                {
                    "op": op,
                    "id": sid,
                    "parent": parent,
                    "name": name,
                    "thread": threads.setdefault(thread, len(threads)),
                    "start": t0 - origin,
                    "end": t1 - origin,
                    "cpu": c,
                }
            )
        return out

    def counts(self) -> dict:
        """Work counts from captured calls; computed after the operation."""
        out = dict.fromkeys(COUNT_KEYS, 0)
        for name, args, result in self.captures:
            if name in (AVE_RULE, UNIFORM_RULE):
                layer = name.split(".")[0]
                rows = result.entries
                out[f"{layer}.edges"] += sum(sum(row) for row in rows)
                if layer == "uniform":
                    out["uniform.pairs"] += len(rows) * len(rows)
            elif name == "sim.run":
                out["sim.steps"] += result.n_steps
                out["core.max_denominator_bits"] = max(
                    out["core.max_denominator_bits"], max_denominator_bits(result.states)
                )
            elif name == "properties.check_trajectory":
                out["properties.violations"] += len(result)
            elif name in WRITERS:
                out["serialize.bytes_written"] += os.path.getsize(args[0])
            elif name in READERS:
                out["serialize.bytes_read"] += os.path.getsize(args[0])
        return out


def max_denominator_bits(states) -> int:
    best = 0
    for state in states:
        for row in state.entries:
            for v in row:
                if isinstance(v, Fraction):
                    best = max(best, v.denominator.bit_length())
    return best


def attribute(spans: list[dict]) -> tuple[dict, dict]:
    """Self and inclusive wall time per span id, split across threads.

    Returns (self_time, inclusive_time).  Inclusive time of a span is the
    time attributed to it or to any descendant, in any thread.
    """
    by_id = {s["id"]: s for s in spans}
    events = []
    for s in spans:
        if s["end"] <= s["start"]:
            continue
        events.append((s["start"], 1, s["id"]))
        events.append((s["end"], 0, s["id"]))
    events.sort()
    stacks: dict[int, list[int]] = {}
    waiting: dict[int, int] = {}  # span id -> live children in other threads
    self_time = dict.fromkeys(by_id, 0.0)
    incl_time = dict.fromkeys(by_id, 0.0)
    prev = events[0][0] if events else 0.0
    for t, is_start, sid in events:
        dt = t - prev
        if dt > 0:
            tops = [st[-1] for st in stacks.values() if st and not waiting.get(st[-1])]
            if tops:
                share = dt / len(tops)
                for top in tops:
                    self_time[top] += share
                    node = top
                    while node in by_id:
                        incl_time[node] += share
                        node = by_id[node]["parent"]
        prev = t
        span = by_id[sid]
        stack = stacks.setdefault(span["thread"], [])
        parent = span["parent"]
        cross = parent in by_id and by_id[parent]["thread"] != span["thread"]
        if is_start:
            stack.append(sid)
            if cross:
                waiting[parent] = waiting.get(parent, 0) + 1
        else:
            if sid in stack:
                stack.remove(sid)
            if cross:
                waiting[parent] -= 1
    return self_time, incl_time


def op_metrics(spans: list[dict], counts: dict) -> dict:
    """Per-layer figures of one traced operation (times in seconds)."""
    self_time, incl = attribute(spans)
    by_id = {s["id"]: s for s in spans}

    def total(*names):
        return sum(incl[s["id"]] for s in spans if s["name"] in names)

    out = {name: 0.0 for name in LAYER_METRICS if name.endswith("_s")}
    for s in spans:
        out[f"{s['name'].split('.')[0]}.self_s"] += self_time[s["id"]]
    root = [s for s in spans if s["name"] == ROOT]
    out["trace.wall_s"] = sum(s["end"] - s["start"] for s in root)
    out["trace.spans"] = len(spans)
    out["core.gamma_s"] = total("core.induced_disagreement_seminorm")
    out["core.averaging_s"] = total("core.neighbor_means")
    out["core.averaging_matrix_s"] = total("core.row_normalize")
    out["core.fixed_point_test_s"] = total("core.matrices_close")
    out["avemodel.neighbors_s"] = total(AVE_RULE)
    out["avemodel.step_s"] = total("avemodel.ave_step")
    out["uniform.neighbors_s"] = total(UNIFORM_RULE)
    out["uniform.step_s"] = total("uniform.uniform_step")
    out["sim.run_s"] = total("sim.run")
    out["sim.sample_initial_s"] = total("sim.sample_initial")
    out["sim.batch_run_s"] = total("sim.batch_run")
    out["analysis.classify_s"] = total("analysis.classify_outcome")
    out["analysis.classify_calls"] = sum(1 for s in spans if s["name"] == "analysis.classify_outcome")
    out["serialize.write_s"] = total(*WRITERS)
    out["serialize.read_s"] = total(*READERS)
    out["properties.checks_s"] = total("properties.check_trajectory")
    for name in CHECK_NAMES:
        out[f"properties.check.{name}_s"] = total(f"properties.check.{name}")

    # run() time outside the step parts, and the steps that run() made
    run_parts = sum(incl[s["id"]] for s in spans if s["name"] in STEP_PARTS and inside(s, "sim.run", by_id))
    out["sim.step_other_s"] = out["sim.run_s"] - run_parts
    out["step_times"] = [
        incl[s["id"]] for s in spans if s["name"] in STEPS and by_id.get(s["parent"], {}).get("name") == "sim.run"
    ]
    pooled = [s for s in spans if s["name"] == "sim.run" and inside(s, "sim.batch_run", by_id)]
    batch_wall = sum(s["end"] - s["start"] for s in spans if s["name"] == "sim.batch_run")
    out["batch_run_cpu"] = sum(s["cpu"] for s in pooled)
    out["batch_capacity"] = batch_wall * len({s["thread"] for s in pooled})
    out.update(counts)
    return out


def inside(span: dict, name: str, by_id: dict) -> bool:
    """True when some ancestor of ``span`` is a span called ``name``."""
    node = span["parent"]
    while node in by_id:
        if by_id[node]["name"] == name:
            return True
        node = by_id[node]["parent"]
    return False


# what one verify must run, outside in: the replay, the read of the recorded
# trajectory, and every registered property check once; the checks that
# compare against the classifier must call it
VERIFY_ONCE = ("sim.run", "serialize.read_trajectory_jsonl", "properties.check_trajectory")
VERIFY_CLASSIFIES = ("epsilon-chain-link", "terminal-classification")


def verify_structure(spans: list[dict]) -> list[str]:
    """Parts of the verification that one traced verify left out."""
    by_id = {s["id"]: s for s in spans}
    errors = []

    def calls(name, within=None):
        return sum(1 for s in spans if s["name"] == name and (within is None or inside(s, within, by_id)))

    for name in VERIFY_ONCE:
        if calls(name, ROOT) != 1:
            errors.append(f"verify made {calls(name, ROOT)} {name} calls, expected 1")
    for check in CHECK_NAMES:
        n = calls(f"properties.check.{check}", "properties.check_trajectory")
        if n != 1:
            errors.append(f"verify ran property check {check} {n} times, expected once")
    for check in VERIFY_CLASSIFIES:
        if not calls("analysis.classify_outcome", f"properties.check.{check}"):
            errors.append(f"property check {check} did not call classify_outcome")
    return errors


def cycle_metrics(ops: list[dict], untraced_wall: float, retained_bytes: float) -> dict:
    """Per-layer metrics for one pass over the traced inputs (sums over ops)."""
    summed: dict = {}
    steps: list[float] = []
    for op in ops:
        steps.extend(op["step_times"])
        for key, value in op.items():
            if key == "step_times":
                continue
            if key == "core.max_denominator_bits":
                summed[key] = max(summed.get(key, 0), value)
            else:
                summed[key] = summed.get(key, 0) + value
    out = {name: summed.get(name, 0) for name in LAYER_METRICS}
    out["trace.untraced_wall_s"] = untraced_wall
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced_wall
    out["trace.overhead_share"] = out["trace.overhead_s"] / untraced_wall if untraced_wall else 0.0
    step = out["avemodel.step_s"]
    out["core.gamma_share"] = out["core.gamma_s"] / step if step else 0.0
    pairs = summed.get("uniform.pairs", 0)
    out["uniform.edge_density"] = out["uniform.edges"] / pairs if pairs else 0.0
    out["sim.step_ms_p50"] = 1000 * statistics.median(steps) if steps else 0.0
    # Σ run() CPU time over (batch wall x pool width); 1.0 is perfect scaling
    capacity = summed.get("batch_capacity", 0)
    out["sim.batch_efficiency"] = summed["batch_run_cpu"] / capacity if capacity else 0.0
    out["sim.retained_mb"] = retained_bytes / 2**20
    return out
