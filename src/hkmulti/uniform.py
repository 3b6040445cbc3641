"""Uniform-affinity bounded-confidence dynamics.

Agents compare full opinion rows: i listens to k only when they are
within the confidence bound on EVERY topic (max-distance between rows
at most epsilon).  The update is the same neighbor averaging as the
average-based model; only the neighbor test differs.
"""

from __future__ import annotations

from functools import reduce
from operator import and_, or_
from typing import Optional

from .core import (
    InfluenceMatrix,
    OpinionMatrix,
    Scalar,
    StepReport,
    check_epsilon,
    neighbor_means,
    topic_windows,
)

def linf_neighbors(x: OpinionMatrix, epsilon: Scalar) -> InfluenceMatrix:
    """Influence matrix: neighbors iff within epsilon on every topic.

    Agents with equal rows have equal neighbors, so only the distinct
    rows are tested.  ``max(|a_j - b_j|) <= epsilon`` holds exactly when
    every ``|a_j - b_j| <= epsilon`` does, so a class's neighbors are the
    intersection of its per-topic windows, each found over the classes
    sorted on that topic with the unchanged predicate.
    """
    check_epsilon(epsilon)
    return InfluenceMatrix(*topic_windows(x.entries, epsilon))


def uniform_step(x: OpinionMatrix, epsilon: Scalar) -> StepReport:
    """One synchronous step of the uniform-affinity model."""
    influence = linf_neighbors(x, epsilon)
    return StepReport(neighbor_means(x, influence), influence)


def one_step_preservation_hypothesis(x: OpinionMatrix, epsilon: Scalar) -> bool:
    """True when every non-neighbor pair disagrees by more than epsilon on ALL topics.

    Under this condition a single step cannot swap the relative order of
    any two agents on any topic.  Pairs that are far on one topic but
    close on another (non-neighbors all the same) are exactly the ones
    that can swap.  Equal rows are neighbors, so the test runs over the
    distinct rows: it holds iff, for every class, the classes close on
    every topic (the AND of its windows) are those close on some topic
    (their OR).
    """
    check_epsilon(epsilon)
    phi = InfluenceMatrix(*topic_windows(x.entries, epsilon))
    classes = [1 << c for c in range(phi.n_classes)]
    return all(reduce(and_, w) == reduce(or_, w) for w in phi.window_sets(classes))


def globally_ordered(x: OpinionMatrix) -> Optional[tuple[int, ...]]:
    """Permutation sorting every topic column at once, or None.

    Such a permutation exists iff the rows form a chain under the
    entrywise order, in which case sorting rows lexicographically
    (ties by index) realizes it.  When one exists the dynamics keep
    every column sorted under the same permutation forever.
    """
    order = sorted(range(x.n_agents), key=lambda i: (x.entries[i], i))
    for j in range(x.n_topics):
        col = [x.entries[i][j] for i in order]
        if any(a > b for a, b in zip(col, col[1:])):
            return None
    return tuple(order)
