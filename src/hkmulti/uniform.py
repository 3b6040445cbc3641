"""Uniform-affinity bounded-confidence dynamics.

Agents compare full opinion rows: i listens to k only when they are
within the confidence bound on EVERY topic (max-distance between rows
at most epsilon).  The update is the same neighbor averaging as the
average-based model; only the neighbor test differs.
"""

from __future__ import annotations

from operator import sub
from typing import Optional

from .core import (
    InfluenceMatrix,
    OpinionMatrix,
    Scalar,
    StepReport,
    check_epsilon,
    distinct,
    neighbor_means,
)


def linf_neighbors(x: OpinionMatrix, epsilon: Scalar) -> InfluenceMatrix:
    """Influence matrix: neighbors iff within epsilon on every topic.

    Agents with equal rows have equal neighbors, so only the distinct
    rows are tested.  The sweep visits them in order of topic 0 and
    tests each row only against the later ones within epsilon on that
    topic.  Subtraction is monotone and ``abs(a - b) == b - a`` exactly
    when ``b >= a``, so the first later row beyond epsilon on topic 0
    ends the scan without dropping a neighbor; each pair is tested once,
    both ways at once.
    """
    check_epsilon(epsilon)
    rows, labels = distinct(x.entries)
    nbrs = [[c] for c in range(len(rows))]
    order = sorted(range(len(rows)), key=lambda c: rows[c][0])
    for start, i in enumerate(order, 1):
        row_i = rows[i]
        for k in order[start:]:
            row_k = rows[k]
            if row_k[0] - row_i[0] > epsilon:
                break
            if max(map(abs, map(sub, row_i, row_k))) <= epsilon:
                nbrs[i].append(k)
                nbrs[k].append(i)
    return InfluenceMatrix(labels, list(map(sorted, nbrs)))


def uniform_step(x: OpinionMatrix, epsilon: Scalar) -> StepReport:
    """One synchronous step of the uniform-affinity model."""
    influence = linf_neighbors(x, epsilon)
    return StepReport(neighbor_means(x, influence), influence)


def one_step_preservation_hypothesis(x: OpinionMatrix, epsilon: Scalar) -> bool:
    """True when every non-neighbor pair disagrees by more than epsilon on ALL topics.

    Under this condition a single step cannot swap the relative order of
    any two agents on any topic.  Pairs that are far on one topic but
    close on another (non-neighbors all the same) are exactly the ones
    that can swap.
    """
    check_epsilon(epsilon)
    rows = x.entries
    n = x.n_agents
    for i in range(n):
        for k in range(i + 1, n):
            if max(map(abs, map(sub, rows[i], rows[k]))) <= epsilon:
                continue
            if any(abs(p - q) <= epsilon for p, q in zip(rows[i], rows[k])):
                return False
    return True


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
