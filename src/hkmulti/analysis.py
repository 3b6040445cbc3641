"""Steady-state classification of terminal opinion states.

A terminal state is a fixed point of the chosen dynamics.  Agents are
grouped into clusters of (tolerance-)equal opinion rows; one cluster is
consensus, several are a clustering.  Clusters found by full rows are
compared against clusters found by mean opinions alone, and against the
per-topic groupings, because the three need not coincide.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .core import (
    K,
    MODEL_AVE,
    NumericPolicy,
    OpinionMatrix,
    PropertyViolation,
    Scalar,
    check_epsilon,
    distinct,
    left_sum,
    matrices_close,
    row_average,
)
from .sim import model_step

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

    def block_of(self, i: int) -> int:
        for b, block in enumerate(self.blocks):
            if i in block:
                return b
        raise KeyError(i)


def refines(finer: Partition, coarser: Partition) -> bool:
    """True when every block of ``finer`` sits inside one block of ``coarser``."""
    if finer.n_items != coarser.n_items:
        raise ValueError("partitions cover different item counts")
    coarse = [set(b) for b in coarser.blocks]
    return all(any(set(b) <= c for c in coarse) for b in finer.blocks)


def _group(keys: Sequence[K], close: Callable[[K, K], bool]) -> Partition:
    """Agents grouped by the transitive closure of ``close`` on their keys.

    A union-find, so float tolerance closeness (not transitive) still
    yields a genuine partition.  It runs over the distinct keys only:
    every tolerance is nonnegative, so equal keys are always close.
    """
    values, labels = distinct(keys)
    parent = list(range(len(values)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i, a in enumerate(values):
        for k in range(i + 1, len(values)):
            if close(a, values[k]):
                ri, rk = find(i), find(k)
                if ri != rk:
                    parent[rk] = ri
    groups: dict[int, list[int]] = {}
    for agent, label in enumerate(labels):
        groups.setdefault(find(label), []).append(agent)
    return Partition(tuple(tuple(g) for g in groups.values()))


def opinion_partition(x: OpinionMatrix, policy: NumericPolicy) -> Partition:
    """Group agents whose full opinion rows agree within tau_cluster."""
    tol = policy.tau_cluster
    return _group(
        x.entries, lambda a, b: all(abs(p - q) <= tol for p, q in zip(a, b))
    )


def per_topic_partition(x: OpinionMatrix, topic: int, policy: NumericPolicy) -> Partition:
    """Group agents whose opinions agree within tau_cluster on one topic.

    The full-row grouping always refines each of these, and can be
    strictly finer when clusters share a coordinate.
    """
    tol = policy.tau_cluster
    return _group(x.column(topic), lambda a, b: abs(a - b) <= tol)


def cluster_means(x: OpinionMatrix, partition: Partition) -> OpinionMatrix:
    """d x m matrix whose row b is the mean opinion row of block b."""
    if partition.n_items != x.n_agents:
        raise ValueError("partition does not cover the agents")
    rows = []
    for block in partition.blocks:
        size = Fraction(len(block))
        rows.append(
            tuple(
                left_sum(x.entries[i][j] for i in block) / size
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
    termination_step: Optional[int]
    partition: Optional[Partition]
    cluster_matrix: Optional[OpinionMatrix]
    cluster_averages: Optional[tuple[Scalar, ...]]
    average_partition: Optional[Partition]
    partitions_agree: Optional[bool]
    min_average_separation: Optional[Scalar]


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
        return OutcomeReport(
            model=model,
            outcome=OUTCOME_NOT_TERMINATED,
            terminated=False,
            termination_step=None,
            partition=None,
            cluster_matrix=None,
            cluster_averages=None,
            average_partition=None,
            partitions_agree=None,
            min_average_separation=None,
        )

    partition = opinion_partition(x, policy)
    matrix = cluster_means(x, partition)
    averages = row_average(matrix).values

    tol = policy.tau_cluster
    average_partition = _group(row_average(x).values, lambda a, b: abs(a - b) <= tol)
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
