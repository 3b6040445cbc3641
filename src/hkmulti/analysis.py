"""Steady-state classification of terminal opinion states.

A terminal state is a fixed point of the chosen dynamics.  Agents are
grouped into clusters of (tolerance-)equal opinion rows; one cluster is
consensus, several are a clustering.  Clusters found by full rows are
compared against clusters found by mean opinions alone, and against the
per-topic groupings, because the three need not coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_
from typing import Iterable, Optional, Sequence

from .core import (
    MODEL_AVE,
    InfluenceMatrix,
    NumericPolicy,
    OpinionMatrix,
    PropertyViolation,
    Scalar,
    _divide,
    check_epsilon,
    left_sum,
    mask_members,
    matrices_close,
    row_average,
    topic_windows,
)
from .sim import Trajectory, model_step

OUTCOME_CONSENSUS = "consensus"
OUTCOME_CLUSTERING = "clustering"
OUTCOME_NOT_TERMINATED = "not-terminated"


@dataclass(frozen=True)
class Partition:
    """Disjoint blocks of 0-based agent indices covering 0..n-1.

    Blocks are sorted internally and ordered by their smallest member,
    so equal partitions compare equal.
    """

    blocks: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        blocks = tuple(tuple(sorted(b)) for b in self.blocks)
        blocks = tuple(sorted(blocks, key=lambda b: b[0] if b else -1))
        object.__setattr__(self, "blocks", blocks)
        seen: list[int] = []
        for block in blocks:
            if not block:
                raise ValueError("empty block")
            seen.extend(block)
        n = len(seen)
        if sorted(seen) != list(range(n)):
            raise ValueError("blocks must partition 0..n-1")

    @property
    def n_items(self) -> int:
        return sum(len(b) for b in self.blocks)

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def refines(finer: Partition, coarser: Partition) -> bool:
    """True when every block of ``finer`` sits inside one block of ``coarser``."""
    if finer.n_items != coarser.n_items:
        raise ValueError("partitions cover different item counts")
    block_of = {i: b for b, block in enumerate(coarser.blocks) for i in block}
    return all(len({block_of[i] for i in block}) == 1 for block in finer.blocks)


def _group(rows: Iterable[Sequence[Scalar]], tol: Scalar) -> Partition:
    """Agents grouped by the transitive closure of rows within ``tol`` on every topic.

    A union-find over the distinct rows, joining each to the AND of its
    per-topic windows (:func:`hkmulti.core.topic_windows`, the ``uniform``
    rule's search) and testing no other pair; so float tolerance
    closeness (not transitive) still yields a genuine partition.
    """
    close = InfluenceMatrix(*topic_windows(rows, tol))
    windows = close.window_sets([1 << c for c in range(close.n_classes)])
    parent = list(range(len(windows)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for c, w in enumerate(windows):
        # the other classes close to c; usually none, when clusters are apart
        for d in mask_members(reduce(and_, w) ^ (1 << c)):
            rc, rd = find(c), find(d)
            if rc != rd:
                parent[rd] = rc
    groups: dict[int, list[int]] = {}
    for agent, label in enumerate(close.labels):
        groups.setdefault(find(label), []).append(agent)
    return Partition(tuple(tuple(g) for g in groups.values()))


def opinion_partition(x: OpinionMatrix, policy: NumericPolicy) -> Partition:
    """Group agents whose full opinion rows agree within tau_cluster."""
    return _group(x.entries, policy.tau_cluster)


def per_topic_partition(x: OpinionMatrix, topic: int, policy: NumericPolicy) -> Partition:
    """Group agents whose opinions agree within tau_cluster on one topic.

    The full-row grouping always refines each of these, and can be
    strictly finer when clusters share a coordinate.
    """
    return _group(zip(x.column(topic)), policy.tau_cluster)


def cluster_means(x: OpinionMatrix, partition: Partition) -> OpinionMatrix:
    """d x m matrix whose row b is the mean opinion row of block b."""
    if partition.n_items != x.n_agents:
        raise ValueError("partition does not cover the agents")
    rows = []
    for block in partition.blocks:
        rows.append(
            tuple(
                _divide(left_sum(x.entries[i][j] for i in block), len(block))
                for j in range(x.n_topics)
            )
        )
    return OpinionMatrix(tuple(rows))


@dataclass(frozen=True)
class OutcomeReport:
    """Classification of a (candidate) terminal state.

    ``partition`` groups full opinion rows, ``average_partition`` groups
    mean opinions; the two can disagree for the uniform-affinity model,
    so ``partitions_agree`` flags it.  ``min_average_separation`` is the
    smallest gap between distinct sorted cluster means (None below two
    clusters).  All fields after ``termination_step`` are None when the
    state is not a fixed point.
    """

    model: str
    outcome: str
    terminated: bool
    termination_step: Optional[int] = None
    partition: Optional[Partition] = None
    cluster_matrix: Optional[OpinionMatrix] = None
    cluster_averages: Optional[tuple[Scalar, ...]] = None
    average_partition: Optional[Partition] = None
    partitions_agree: Optional[bool] = None
    min_average_separation: Optional[Scalar] = None


def classify_outcome(
    x: OpinionMatrix,
    epsilon: Scalar,
    policy: NumericPolicy,
    model: str = MODEL_AVE,
    termination_step: Optional[int] = None,
) -> OutcomeReport:
    """Classify a state as consensus, clustering, or not yet terminal.

    ``termination_step`` given means the caller has observed ``x`` as a
    fixed point at that step (as ``sim.run`` does), so ``x`` is not
    stepped again.  When it is None, one step of the model tests the
    fixed point; that covers a bare state file and the last state of a
    budget-limited run.  For the average-based model a
    clustered terminal state must keep adjacent cluster means more than
    epsilon apart; a violation is raised rather than reported because it
    can only come from broken arithmetic or tolerances.  No such check
    applies to the uniform-affinity model, where distinct clusters may
    even share a mean; the separation is only reported.
    """
    check_epsilon(epsilon)
    step = model_step(model)
    if termination_step is None and not matrices_close(
        step(x, epsilon).next_state, x, policy.tau_fix
    ):
        return OutcomeReport(model=model, outcome=OUTCOME_NOT_TERMINATED, terminated=False)

    partition = opinion_partition(x, policy)
    matrix = cluster_means(x, partition)
    averages = row_average(matrix).values

    average_partition = _group(zip(row_average(x).values), policy.tau_cluster)
    agree = partition == average_partition

    separation: Optional[Scalar] = None
    if len(averages) > 1:
        ordered = sorted(averages)
        separation = min(b - a for a, b in zip(ordered, ordered[1:]))
        if model == MODEL_AVE and separation <= epsilon:
            raise PropertyViolation(
                "terminal clusters of the average-based model must keep mean "
                f"gaps above {epsilon}, found {separation}"
            )

    return OutcomeReport(
        model=model,
        outcome=OUTCOME_CONSENSUS if partition.n_blocks == 1 else OUTCOME_CLUSTERING,
        terminated=True,
        termination_step=termination_step,
        partition=partition,
        cluster_matrix=matrix,
        cluster_averages=tuple(averages),
        average_partition=average_partition,
        partitions_agree=agree,
        min_average_separation=separation,
    )


def classify_run(traj: Trajectory) -> OutcomeReport:
    """Classify a run's final state under the run's own configuration.

    A terminated run hands over its termination step, so the fixed point
    ``sim.run`` observed is not stepped again; the last state of a
    budget-limited run is stepped once to test it.
    """
    config = traj.config
    return classify_outcome(
        traj.final_state, config.epsilon, config.policy, config.model, traj.termination_step
    )
