"""On-disk formats: CSV matrices, JSONL trajectories, summary dicts.

Exact scalars travel as "p/q" strings, floats as shortest round-trip
decimals, so both regimes survive a write/read cycle unchanged.  JSON
objects are written with sorted keys and fixed separators; a rerun of
the same configuration therefore reproduces files byte for byte.
Agents and topics are 1-based in every external format; the class
numbers and order positions of a trajectory record's ``classes``,
``orders`` and ``windows`` count from 0.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from operator import le
from pathlib import Path
from typing import Optional, Sequence, Union

from .analysis import OutcomeReport, Partition, classify_run
from .core import (
    MODEL_AVE,
    NumericPolicy,
    OpinionMatrix,
    Scalar,
)
from .sim import Trajectory

PathLike = Union[str, Path]


def scalar_token(value: Scalar, exact: bool) -> Union[str, float]:
    """JSON-ready form of one scalar: "p/q" string when exact, else float."""
    if exact:
        return str(Fraction(value))
    return float(value)


def csv_token(value: Scalar, exact: bool) -> str:
    if exact:
        return str(Fraction(value))
    return repr(float(value))


def matrix_tokens(x: OpinionMatrix, exact: bool) -> list[list[Union[str, float]]]:
    return [[scalar_token(v, exact) for v in row] for row in x.entries]


def write_matrix_csv(path: PathLike, x: OpinionMatrix, exact: bool) -> None:
    """Headerless CSV, one agent per row, one topic per column."""
    lines = [",".join(csv_token(v, exact) for v in row) for row in x.entries]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_matrix_csv(path: PathLike, policy: NumericPolicy) -> OpinionMatrix:
    rows = []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        rows.append(tuple(policy.coerce(tok.strip()) for tok in line.split(",")))
    if not rows:
        raise ValueError(f"no rows in {path}")
    return OpinionMatrix(tuple(rows))


def _dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _load(text: str, what: str):
    """``json.loads``, with input nested past the recursion limit a ValueError."""
    try:
        return json.loads(text)
    except RecursionError:
        raise ValueError(f"{what} is nested too deeply") from None


def _row_text(row: Sequence[Scalar], exact: bool) -> str:
    """``_dump`` of one row's tokens: JSON writes a finite float as its
    ``repr``, its :func:`csv_token`, and quotes a "p/q" string, which has
    nothing to escape."""
    quote = '"' if exact else ""
    return "[" + ",".join([f"{quote}{csv_token(v, exact)}{quote}" for v in row]) + "]"


def _state_text(x: OpinionMatrix, exact: bool) -> str:
    """``_dump(matrix_tokens(x, exact))``, rendering each row object once.

    Agents of one class share one row tuple.  The cache is keyed on the
    tuple's identity, not on ``==``, which would merge ``0.0`` and ``-0.0``.
    """
    rendered: dict[int, str] = {}
    for row in x.entries:
        if id(row) not in rendered:
            rendered[id(row)] = _row_text(row, exact)
    return "[" + ",".join([rendered[id(row)] for row in x.entries]) + "]"


def _record(fields: dict, state: str) -> str:
    """``_dump`` of ``fields`` with a ``state`` key whose JSON text is ``state``."""
    texts = {key: _dump(value) for key, value in fields.items()}
    texts["state"] = state
    return "{" + ",".join(f"{_dump(key)}:{texts[key]}" for key in sorted(texts)) + "}"


def trajectory_lines(traj: Trajectory) -> list[str]:
    """JSONL records: one per step with diagnostics, then the final state.

    Step records carry the pre-step state, the step's influence matrix as
    ``classes`` (each agent's class, numbered from 0), ``orders`` (the
    class at each position of every order after the first, which is the
    identity) and ``windows`` (per order, each position's ``[lo, hi]``
    window of positions), the per-topic ranges
    of that state, and (average-based model only) the contraction factor
    of the step's averaging matrix.
    """
    exact = traj.config.policy.is_exact
    lines = []
    for t, report in enumerate(traj.reports):
        fields = {
            "step": t,
            "classes": report.influence.labels,
            "orders": report.influence.orders,
            "windows": report.influence.windows,
            "topic_ranges": [scalar_token(hi - lo, exact) for lo, hi in traj.hulls[t]],
        }
        if traj.config.model == MODEL_AVE:
            fields["gamma"] = scalar_token(traj.gammas[t], exact)
        lines.append(_record(fields, _state_text(traj.states[t], exact)))
    lines.append(_record({"step": traj.n_steps}, _state_text(traj.final_state, exact)))
    return lines


def write_trajectory_jsonl(path: PathLike, traj: Trajectory) -> None:
    Path(path).write_text("\n".join(trajectory_lines(traj)) + "\n", encoding="utf-8")


@dataclass(frozen=True)
class StepRecord:
    """One deserialized JSONL record: its step number and pre-step state."""

    step: int
    state: OpinionMatrix


def json_int(value, what: str) -> int:
    """``value`` if it is a JSON integer, else a ValueError naming ``what``."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return value


def json_rows(value, what: str) -> list:
    """``value`` if it is a JSON list of lists, else a ValueError naming ``what``."""
    if not isinstance(value, list) or not all(isinstance(row, list) for row in value):
        raise ValueError(f"{what} must be a list of rows")
    return value


def _are_classes(values: list) -> bool:
    """True when every value is a JSON integer >= 0.

    A JSON true parses to a bool, which is an int but no class number.
    The tests map builtins over the list, as a file holds many windows.
    """
    return set(map(type, values)) <= {int} and (not values or min(values) >= 0)


def _are_windows(windows: list) -> bool:
    """True when each order's windows are [lo, hi] position pairs with lo <= hi."""
    pairs = list(chain.from_iterable(windows))
    if not (set(map(type, pairs)) <= {list} and set(map(len, pairs)) <= {2}):
        return False
    los, his = (list(ends) for ends in zip(*pairs)) if pairs else ([], [])
    return _are_classes(los) and _are_classes(his) and all(map(le, los, his))


def read_trajectory_jsonl(
    path: PathLike, policy: NumericPolicy, text: Optional[str] = None
) -> list[StepRecord]:
    """Parse a trajectory file into its steps and states.

    Every record needs ``step`` and ``state``, and every state must have
    record 0's agents and topics.  The diagnostic keys are type-checked
    and not kept: the replay recomputes them.  ``text``, when given, is
    the file's content already read by the caller.
    """
    if text is None:
        text = Path(path).read_text(encoding="utf-8")
    records = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        where = f"trajectory record {len(records)}"
        raw = _load(line, where)
        if not isinstance(raw, dict):
            raise ValueError(f"{where} must be a JSON object")
        for key in ("step", "state"):
            if key not in raw:
                raise ValueError(f"{where} has no {key!r} key")
        if "classes" in raw:
            labels = raw["classes"]
            if not isinstance(labels, list) or not _are_classes(labels):
                raise ValueError(f"{where} 'classes' must be a list of class numbers")
        if "orders" in raw:
            orders = json_rows(raw["orders"], f"{where} 'orders'")
            if not all(map(_are_classes, orders)):
                raise ValueError(f"{where} 'orders' must be lists of class numbers")
        if "windows" in raw:
            windows = json_rows(raw["windows"], f"{where} 'windows'")
            if not _are_windows(windows):
                raise ValueError(f"{where} 'windows' must hold [lo, hi] position pairs, lo <= hi")
        if "topic_ranges" in raw:
            if not isinstance(raw["topic_ranges"], list):
                raise ValueError(f"{where} 'topic_ranges' must be a list")
            for value in raw["topic_ranges"]:
                policy.coerce(value)
        if "gamma" in raw:
            policy.coerce(raw["gamma"])
        step = json_int(raw["step"], f"{where} 'step'")
        rows = policy.coerce_rows(json_rows(raw["state"], f"{where} 'state'"))
        state = OpinionMatrix(rows)
        if "classes" in raw and len(raw["classes"]) != state.n_agents:
            raise ValueError(
                f"{where} 'classes' has {len(raw['classes'])} entries for"
                f" {state.n_agents} agents"
            )
        if not records:
            shape = (state.n_agents, state.n_topics)
        elif (state.n_agents, state.n_topics) != shape:
            raise ValueError(
                f"{where} 'state' is {state.n_agents} agents x {state.n_topics} topics,"
                f" record 0 is {shape[0]} x {shape[1]}"
            )
        records.append(StepRecord(step, state))
    if not records:
        raise ValueError(f"no records in {path}")
    return records


def partition_lists(partition: Partition) -> list[list[int]]:
    """A partition's agent groups as 1-based lists."""
    return [[i + 1 for i in block] for block in partition.blocks]


def outcome_to_dict(report: OutcomeReport, exact: bool) -> dict:
    """Summary dict for an outcome report (agents 1-based, scalars tokenized)."""
    out = {
        "model": report.model,
        "outcome": report.outcome,
        "terminated": report.terminated,
        "termination_step": report.termination_step,
        "n_clusters": None,
        "partition": None,
        "cluster_matrix": None,
        "cluster_averages": None,
        "average_partition": None,
        "partitions_agree": report.partitions_agree,
        "min_average_separation": None,
    }
    if report.partition is not None:
        out["n_clusters"] = report.partition.n_blocks
        out["partition"] = partition_lists(report.partition)
    if report.cluster_matrix is not None:
        out["cluster_matrix"] = matrix_tokens(report.cluster_matrix, exact)
    if report.cluster_averages is not None:
        out["cluster_averages"] = [scalar_token(v, exact) for v in report.cluster_averages]
    if report.average_partition is not None:
        out["average_partition"] = partition_lists(report.average_partition)
    if report.min_average_separation is not None:
        out["min_average_separation"] = scalar_token(report.min_average_separation, exact)
    return out


# the fields of run_row, in the order a sweep's CSV writes them
RUN_ROW_FIELDS = ("terminated", "termination_step", "n_steps", "outcome", "n_clusters")


def run_row(traj: Trajectory) -> dict:
    """A sweep's row for one run: how and when it ended, and its clusters."""
    report = classify_run(traj)
    return {
        "terminated": traj.terminated,
        "termination_step": traj.termination_step,
        "n_steps": traj.n_steps,
        "outcome": report.outcome,
        "n_clusters": None if report.partition is None else report.partition.n_blocks,
    }


def write_json(path: PathLike, obj) -> None:
    Path(path).write_text(_dump(obj) + "\n", encoding="utf-8")


def read_json(path: PathLike):
    return _load(Path(path).read_text(encoding="utf-8"), str(path))
