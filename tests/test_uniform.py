from fractions import Fraction

import pytest

from hkmulti import (
    OpinionMatrix,
    StepReport,
    global_range,
    globally_ordered,
    linf_neighbors,
    one_step_preservation_hypothesis,
    row_normalize,
    uniform_step,
)


def test_linf_neighbors_example():
    x = OpinionMatrix(((0.0, 1.0), (0.5, 0.5), (2.0, 0.0)))
    phi = linf_neighbors(x, 1)
    assert phi.entries == ((1, 1, 0), (1, 1, 0), (0, 0, 1))


def test_linf_requires_closeness_on_every_topic():
    # close means, far on each single topic
    x = OpinionMatrix(((0, 2), (2, 0)))
    assert linf_neighbors(x, 1).entries == ((1, 0), (0, 1))
    assert linf_neighbors(x, 2).entries == ((1, 1), (1, 1))


def test_uniform_step_example():
    x = OpinionMatrix(((0.0, 1.0), (0.5, 0.5), (2.0, 0.0)))
    report = uniform_step(x, 1)
    assert report.next_state.entries == ((0.25, 0.75), (0.25, 0.75), (2.0, 0.0))
    assert isinstance(report, StepReport)
    assert global_range(x) == 2.0
    assert global_range(report.next_state) == 1.75
    orderings = tuple(
        tuple(sorted(range(x.n_agents), key=lambda i: (x.entries[i][j], i)))
        for j in range(x.n_topics)
    )
    assert orderings == ((0, 1, 2), (2, 1, 0))


def test_uniform_step_single_topic():
    x = OpinionMatrix(((0,), (Fraction(1, 2),), (1,)))
    report = uniform_step(x, Fraction(1, 2))
    assert report.next_state.entries == (
        (Fraction(1, 4),),
        (Fraction(1, 2),),
        (Fraction(3, 4),),
    )


def test_epsilon_validation():
    x = OpinionMatrix(((0,), (1,)))
    for bad in (0, -2, float("nan")):
        with pytest.raises(ValueError):
            uniform_step(x, bad)
        with pytest.raises(ValueError):
            linf_neighbors(x, bad)
        with pytest.raises(ValueError):
            one_step_preservation_hypothesis(x, bad)


def test_one_step_preservation_hypothesis_examples():
    good = OpinionMatrix(((0.0, 0.0), (0.2, 0.2), (5.0, 5.0)))
    assert one_step_preservation_hypothesis(good, 1)
    # non-neighbors that still agree on one topic break the hypothesis
    bad = OpinionMatrix(((0.0, 0.0), (0.2, 5.0)))
    assert not one_step_preservation_hypothesis(bad, 1)
    # all agents neighbors: hypothesis holds vacuously
    assert one_step_preservation_hypothesis(OpinionMatrix(((0, 0), (1, 1))), 2)


def test_globally_ordered_examples():
    assert globally_ordered(OpinionMatrix(((0, 0), (1, 2), (3, 5)))) == (0, 1, 2)
    assert globally_ordered(OpinionMatrix(((0, 2), (1, 0)))) is None
    assert globally_ordered(OpinionMatrix(((4, 4),))) == (0,)


def test_globally_ordered_needs_reordering():
    perm = globally_ordered(OpinionMatrix(((3, 5), (0, 0), (1, 2))))
    assert perm == (1, 2, 0)


def test_globally_ordered_with_first_topic_ties():
    # agents tie on topic 1; only the (1, 0) order sorts topic 2
    x = OpinionMatrix(((0, 1), (0, 0)))
    assert globally_ordered(x) == (1, 0)


def test_globally_ordered_identical_rows():
    assert globally_ordered(OpinionMatrix(((1, 1), (1, 1)))) == (0, 1)


def test_report_matrices_are_consistent():
    x = OpinionMatrix(((0, 1), (Fraction(1, 2), Fraction(1, 2)), (2, 0)))
    report = uniform_step(x, 1)
    assert report.influence.entries == ((1, 1, 0), (1, 1, 0), (0, 0, 1))
    assert row_normalize(report.influence).entries[0] == (
        Fraction(1, 2),
        Fraction(1, 2),
        0,
    )
