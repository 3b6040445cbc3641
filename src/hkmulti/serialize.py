"""On-disk formats: CSV matrices, JSONL trajectories, summary dicts.

Exact scalars travel as "p/q" strings, floats as shortest round-trip
decimals, so both regimes survive a write/read cycle unchanged.  JSON
objects are written with sorted keys and fixed separators; a rerun of
the same configuration therefore reproduces files byte for byte.
Agents and topics are 1-based in every external format.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional, Union

from .analysis import OutcomeReport
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


def trajectory_lines(traj: Trajectory) -> list[str]:
    """JSONL records: one per step with diagnostics, then the final state.

    Step records carry the pre-step state, 1-based neighbor lists, the
    per-topic ranges of that state, and (average-based model only) the
    contraction factor of the step's averaging matrix.
    """
    exact = traj.config.policy.is_exact
    lines = []
    for t, report in enumerate(traj.reports):
        record = {
            "step": t,
            "state": matrix_tokens(traj.states[t], exact),
            "influence": report.influence.neighbor_lists(first=1),
            "topic_ranges": [scalar_token(hi - lo, exact) for lo, hi in traj.hulls[t]],
        }
        if traj.config.model == MODEL_AVE:
            record["gamma"] = scalar_token(traj.gammas[t], exact)
        lines.append(_dump(record))
    lines.append(
        _dump(
            {
                "step": traj.n_steps,
                "state": matrix_tokens(traj.final_state, exact),
            }
        )
    )
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
        if "influence" in raw:
            lists = json_rows(raw["influence"], f"{where} 'influence'")
            # a JSON true parses to a bool, which is an int but no agent number
            if not all(type(k) is int for nbrs in lists for k in nbrs):
                raise ValueError(f"{where} 'influence' must hold agent numbers")
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


def partition_lists(partition) -> list[list[int]]:
    """Agent groups as 1-based lists; accepts a Partition or raw blocks."""
    blocks = getattr(partition, "blocks", partition)
    return [[i + 1 for i in block] for block in blocks]


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
        out["partition"] = partition_lists(report.partition.blocks)
    if report.cluster_matrix is not None:
        out["cluster_matrix"] = matrix_tokens(report.cluster_matrix, exact)
    if report.cluster_averages is not None:
        out["cluster_averages"] = [scalar_token(v, exact) for v in report.cluster_averages]
    if report.average_partition is not None:
        out["average_partition"] = partition_lists(report.average_partition.blocks)
    if report.min_average_separation is not None:
        out["min_average_separation"] = scalar_token(report.min_average_separation, exact)
    return out


def write_json(path: PathLike, obj) -> None:
    Path(path).write_text(_dump(obj) + "\n", encoding="utf-8")


def read_json(path: PathLike):
    return _load(Path(path).read_text(encoding="utf-8"), str(path))
