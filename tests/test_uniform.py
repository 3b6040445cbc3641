from fractions import Fraction
from operator import sub

import pytest
from hypothesis import example, given, settings, strategies as st

from hkmulti import (
    OpinionMatrix,
    StepReport,
    global_range,
    globally_ordered,
    linf_neighbors,
    one_step_preservation_hypothesis,
    uniform_step,
)
from hkmulti.oracle import row_normalize


def test_linf_neighbors_example():
    x = OpinionMatrix(((0.0, 1.0), (0.5, 0.5), (2.0, 0.0)))
    phi = linf_neighbors(x, 1)
    assert phi.entries == ((1, 1, 0), (1, 1, 0), (0, 0, 1))


def test_linf_requires_closeness_on_every_topic():
    # close means, far on each single topic
    x = OpinionMatrix(((0, 2), (2, 0)))
    assert linf_neighbors(x, 1).entries == ((1, 0), (0, 1))
    assert linf_neighbors(x, 2).entries == ((1, 1), (1, 1))


def _all_pairs_neighbors(x, epsilon):
    rows = x.entries
    return tuple(
        tuple(
            1 if max(abs(p - q) for p, q in zip(a, b)) <= epsilon else 0 for b in rows
        )
        for a in rows
    )


# quarters make exact ties at epsilon and repeated topic-0 values common;
# the box is [-2, 2], so the largest epsilons link every pair
quarters = st.integers(-8, 8).map(lambda k: k / 4)
float_opinions = st.one_of(quarters, st.just(-0.0), st.floats(-2, 2))
exact_opinions = st.integers(-20, 20).map(lambda k: Fraction(k, 10))


@st.composite
def sweep_cases(draw):
    exact = draw(st.booleans())
    n = draw(st.integers(1, 30))
    m = draw(st.integers(1, 4))
    opinions = exact_opinions if exact else float_opinions
    rows = draw(
        st.lists(st.lists(opinions, min_size=m, max_size=m), min_size=n, max_size=n)
    )
    if exact:
        epsilon = draw(st.integers(1, 50).map(lambda k: Fraction(k, 10)))
    else:
        epsilon = draw(st.one_of(quarters.filter(lambda v: v > 0), st.floats(1e-3, 5)))
    return OpinionMatrix(tuple(map(tuple, rows))), epsilon


# a gap of exactly epsilon on topic 0, repeated topic-0 values, -0.0 and 0.0
# sorted together, and an epsilon that links every pair
EDGES = OpinionMatrix(((0.5, 0.0), (-0.0, 1.0), (0.0, 0.25), (0.5, 0.5), (0.75, 0.0)))


# gaps of exactly epsilon on topics 1 and 2, and distinct rows that share
# a value on every topic
TIES = OpinionMatrix(
    ((0.0, 0.0, 0.25), (0.25, 0.5, 0.25), (0.0, 0.5, 0.75), (0.5, 0.0, -0.25))
)
# 0.0 and -0.0 on topics 1 and 2: the first two rows are one class
SIGNED_ZEROS = OpinionMatrix(
    ((1.0, 0.0, -0.0), (1.0, -0.0, 0.0), (0.5, -0.0, 0.5), (0.75, 0.5, -0.0))
)


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
@example((EDGES, 0.5))
@example((EDGES, 1.0))
@example((TIES, 0.5))
@example((TIES, 0.25))
@example((SIGNED_ZEROS, 0.5))
@example((OpinionMatrix(((0, 0, Fraction(3, 10)), (0, Fraction(1, 10), 0))), Fraction(3, 10)))
@example((OpinionMatrix(((0.3, -0.7),)), 0.1))
@example((OpinionMatrix(((Fraction(1, 3),),)), Fraction(1, 10)))
def test_linf_sweep_equals_all_pairs(case):
    x, epsilon = case
    assert linf_neighbors(x, epsilon).entries == _all_pairs_neighbors(x, epsilon)


def _all_pairs_hypothesis(x, epsilon):
    rows = x.entries
    n = x.n_agents
    for i in range(n):
        for k in range(i + 1, n):
            if max(map(abs, map(sub, rows[i], rows[k]))) <= epsilon:
                continue
            if any(abs(p - q) <= epsilon for p, q in zip(rows[i], rows[k])):
                return False
    return True


@settings(max_examples=300, deadline=None)
@given(sweep_cases())
@example((EDGES, 0.5))
@example((TIES, 0.5))
@example((SIGNED_ZEROS, 0.5))
@example((OpinionMatrix(((0.0, 0.0), (0.2, 0.2), (5.0, 5.0))), 1.0))
@example((OpinionMatrix(((0.3, -0.7),)), 0.1))
def test_preservation_hypothesis_equals_all_pairs(case):
    x, epsilon = case
    assert one_step_preservation_hypothesis(x, epsilon) == _all_pairs_hypothesis(x, epsilon)


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
