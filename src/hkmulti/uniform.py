"""Uniform-affinity bounded-confidence dynamics.

Agents compare full opinion rows: i listens to k only when they are
within the confidence bound on EVERY topic (max-distance between rows
at most epsilon).  The update is the same neighbor averaging as the
average-based model; only the neighbor test differs.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, count
from operator import and_, or_
from typing import Optional

from .core import (
    InfluenceMatrix,
    OpinionMatrix,
    Scalar,
    StepReport,
    check_epsilon,
    distinct,
    neighbor_means,
    sorted_windows,
)

# maps the digits of bin() to the bytes 0 and 1, for itertools.compress
_BITS = bytes.maketrans(b"01", b"\x00\x01")


def _topic_windows(x: OpinionMatrix, epsilon: Scalar) -> tuple[list[int], list[tuple[int, ...]]]:
    """Each agent's class, and each class's per-topic windows as bitsets of classes.

    Classes are the distinct rows in first-seen order.  On each topic the
    classes sorted by value have one window each (:func:`sorted_windows`),
    and a window is a run of that order, so its bitset is the difference
    of two prefix bitsets.
    """
    check_epsilon(epsilon)
    rows, labels = distinct(x.entries)
    per_topic = []
    for column in zip(*rows):
        order = sorted(range(len(rows)), key=column.__getitem__)
        prefix = [0]
        for c in order:
            prefix.append(prefix[-1] | 1 << c)
        masks = [0] * len(rows)
        for c, w in zip(order, sorted_windows([column[c] for c in order], epsilon)):
            masks[c] = prefix[w.stop] ^ prefix[w.start]
        per_topic.append(masks)
    return labels, list(zip(*per_topic))


def _members(mask: int) -> list[int]:
    """The set bits of ``mask``, lowest first."""
    return list(compress(count(), bin(mask)[:1:-1].encode().translate(_BITS)))


def linf_neighbors(x: OpinionMatrix, epsilon: Scalar) -> InfluenceMatrix:
    """Influence matrix: neighbors iff within epsilon on every topic.

    Agents with equal rows have equal neighbors, so only the distinct
    rows are tested.  ``max(|a_j - b_j|) <= epsilon`` holds exactly when
    every ``|a_j - b_j| <= epsilon`` does, so a class's neighbors are the
    intersection of its per-topic windows, each found over the classes
    sorted on that topic with the unchanged predicate.
    """
    labels, windows = _topic_windows(x, epsilon)
    return InfluenceMatrix(labels, [_members(reduce(and_, w)) for w in windows])


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
    _, windows = _topic_windows(x, epsilon)
    return all(reduce(and_, w) == reduce(or_, w) for w in windows)


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
