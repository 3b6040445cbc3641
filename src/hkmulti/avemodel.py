"""Average-based bounded-confidence dynamics.

Agents compare mean opinions: i listens to k when their per-agent means
differ by at most the confidence bound.  One step replaces each opinion
row with the mean of the neighbors' rows, so the whole multi-topic
process projects onto a one-dimensional process on the means.

A step's neighbor sets are therefore windows over the sorted means, the
interval structure of one-dimensional Hegselmann-Krause dynamics
(Blondel, Hendrickx & Tsitsiklis, IEEE TAC 2009).  That holds for the
float predicate too: rounding is monotone, so for b <= a the rounded
``a - b`` does not decrease as b decreases or as a increases (likewise
for b >= a).  Each window is one interval, and both its ends are
nondecreasing along the sorted means.  Equal values sit side by side
and get equal windows, so the same holds over any sorted column with
repeats, which is how the ``uniform`` rule finds its per-topic windows.
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
    neighbor_means,
    row_average,
    sorted_windows,
)


def _neighbors_from_averages(values: tuple[Scalar, ...], epsilon: Scalar) -> InfluenceMatrix:
    # classes are the distinct means in ascending order (0.0 and -0.0 are
    # one), so each window of means is one run of classes
    means = sorted(set(values))
    rank = {a: c for c, a in enumerate(means)}
    runs = [((w.start, w.stop - 1),) for w in sorted_windows(means, epsilon)]
    return InfluenceMatrix(list(map(rank.__getitem__, values)), runs)


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
