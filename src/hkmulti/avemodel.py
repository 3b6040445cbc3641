"""Average-based bounded-confidence dynamics.

Agents compare mean opinions: i listens to k when their per-agent means
differ by at most the confidence bound.  One step replaces each opinion
row with the mean of the neighbors' rows, so the whole multi-topic
process projects onto a one-dimensional process on the means.
"""

from __future__ import annotations

from .core import (
    AverageVector,
    InfluenceMatrix,
    OpinionMatrix,
    Scalar,
    StepReport,
    check_epsilon,
    disagreement_seminorm,
    distinct,
    neighbor_means,
    row_average,
)


def _neighbors_from_averages(values: tuple[Scalar, ...], epsilon: Scalar) -> InfluenceMatrix:
    # agents with equal means have equal neighbors: test each pair of
    # distinct means once; the lists share one int per class to keep reports small
    means, labels = distinct(values)
    classes = list(range(len(means)))
    near = [[d for d, b in zip(classes, means) if abs(a - b) <= epsilon] for a in means]
    return InfluenceMatrix(labels, near)


def ave_neighbors(x: OpinionMatrix, epsilon: Scalar) -> InfluenceMatrix:
    """Influence matrix: agents are neighbors when their means are within epsilon."""
    check_epsilon(epsilon)
    return _neighbors_from_averages(row_average(x).values, epsilon)


def ave_step(x: OpinionMatrix, epsilon: Scalar) -> StepReport:
    """One synchronous step of the average-based model."""
    influence = ave_neighbors(x, epsilon)
    return StepReport(neighbor_means(x, influence), influence)


def max_average_gap(averages: AverageVector) -> Scalar:
    """Largest pairwise gap between agent means; 0 for a single agent.

    Same as the disagreement seminorm of the mean vector.  Once this
    quantity repeats across two consecutive steps it stays fixed forever
    (both extremes freeze), so a repeated positive value rules out
    consensus.
    """
    return disagreement_seminorm(averages.values)


def is_epsilon_chain(averages: AverageVector, epsilon: Scalar) -> bool:
    """True when consecutive sorted means never jump by more than epsilon.

    Equivalent to the interaction graph on means being connected.
    """
    check_epsilon(epsilon)
    vals = sorted(averages.values)
    return all(b - a <= epsilon for a, b in zip(vals, vals[1:]))
