from fractions import Fraction

import pytest

from hkmulti import (
    AverageVector,
    OpinionMatrix,
    StepReport,
    ave_neighbors,
    ave_step,
    contraction_factor,
    is_epsilon_chain,
    max_average_gap,
    row_average,
    topic_range,
)
from hkmulti.oracle import row_normalize


def test_ave_neighbors_example():
    x = OpinionMatrix(((0, 0), (1, 1), (3, 3)))
    phi = ave_neighbors(x, 1)
    assert phi.entries == ((1, 1, 0), (1, 1, 0), (0, 0, 1))


def test_ave_neighbors_uses_means_not_rows():
    # rows are far apart in every entry, but the means coincide
    x = OpinionMatrix(((0, 2), (2, 0)))
    phi = ave_neighbors(x, Fraction(1, 2))
    assert phi.entries == ((1, 1), (1, 1))


def test_ave_step_example():
    x = OpinionMatrix(((0, 0), (1, 1), (3, 3)))
    report = ave_step(x, 1)
    assert report.next_state.entries == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
        (3, 3),
    )
    assert isinstance(report, StepReport)
    assert row_average(x).values == (0, 1, 3)
    assert (topic_range(x, 0), topic_range(x, 1)) == (3, 3)
    assert contraction_factor(report.influence, exact=True) == 1
    assert row_normalize(report.influence).entries[2] == (0, 0, 1)


def test_ave_step_merges_equal_means():
    report = ave_step(OpinionMatrix(((0, 2), (2, 0))), Fraction(1, 2))
    assert report.next_state.entries == ((1, 1), (1, 1))
    assert contraction_factor(report.influence, exact=True) == 0


def test_ave_step_gamma_bounds():
    # fully connected state contracts strictly, split state does not
    full = ave_step(OpinionMatrix(((0,), (1,))), 2)
    assert contraction_factor(full.influence, exact=True) == 0
    split = ave_step(OpinionMatrix(((0,), (10,))), 1)
    assert contraction_factor(split.influence, exact=True) == 1


def test_ave_step_pre_step_metadata():
    x = OpinionMatrix(((0, 4), (1, 1)))
    report = ave_step(x, 10)
    # the report carries only the post-step state and the pre-step neighbors
    assert report == StepReport(report.next_state, ave_neighbors(x, 10))
    assert report.influence.entries == ((1, 1), (1, 1))
    assert row_average(x).values == (2, 1)
    assert (topic_range(x, 0), topic_range(x, 1)) == (1, 3)


def test_epsilon_validation():
    x = OpinionMatrix(((0,), (1,)))
    for bad in (0, -1, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            ave_step(x, bad)
        with pytest.raises(ValueError):
            ave_neighbors(x, bad)


def test_max_average_gap():
    assert max_average_gap(AverageVector((0, 1, 3))) == 3
    assert max_average_gap(AverageVector((3, 0, 1))) == 3
    assert max_average_gap(AverageVector((0, 10))) == 10
    assert max_average_gap(AverageVector((5,))) == 0
    assert max_average_gap(AverageVector((2, 2, 2))) == 0


def test_is_epsilon_chain():
    assert is_epsilon_chain(AverageVector((0, 1, 2)), 1)
    assert not is_epsilon_chain(AverageVector((0, 1, 3)), 1)
    assert is_epsilon_chain(AverageVector((4,)), 1)
    # order of the values must not matter
    assert is_epsilon_chain(AverageVector((2, 0, 1)), 1)
    # connectivity depends on consecutive gaps, not the overall spread
    assert is_epsilon_chain(AverageVector((0, 0.5, 1.2)), 0.8)
    assert not is_epsilon_chain(AverageVector((0, 0.5, 1.2)), 0.6)


def test_float_inputs_stay_float():
    report = ave_step(OpinionMatrix(((0.0, 0.5), (1.0, 0.5))), 2.0)
    assert all(isinstance(v, float) for row in report.next_state.entries for v in row)
    assert isinstance(row_normalize(report.influence, exact=False).entries[0][0], float)
    assert isinstance(contraction_factor(report.influence, exact=False), float)
