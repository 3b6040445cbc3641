from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hkmulti import (
    OUTCOME_CLUSTERING,
    OUTCOME_CONSENSUS,
    OUTCOME_NOT_TERMINATED,
    NumericPolicy,
    OpinionMatrix,
    Partition,
    PropertyViolation,
    SimulationConfig,
    classify_outcome,
    classify_run,
    cluster_means,
    opinion_partition,
    per_topic_partition,
    refines,
    row_average,
    run,
)

EXACT = NumericPolicy.exact()
FLOAT = NumericPolicy.floating()


def test_partition_normalization_and_equality():
    p = Partition(((2, 0), (3, 1)))
    assert p.blocks == ((0, 2), (1, 3))
    assert p == Partition(((1, 3), (0, 2)))
    assert p.n_items == 4 and p.n_blocks == 2


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition(((0, 1), (1, 2)))
    with pytest.raises(ValueError):
        Partition(((0, 2),))
    with pytest.raises(ValueError):
        Partition(((0,), ()))


def test_refines():
    fine = Partition(((0,), (1,), (2, 3)))
    coarse = Partition(((0, 1), (2, 3)))
    assert refines(fine, coarse)
    assert not refines(coarse, fine)
    assert refines(fine, fine)
    with pytest.raises(ValueError):
        refines(fine, Partition(((0,),)))


def test_opinion_partition_exact():
    x = OpinionMatrix(((1, 1), (1, 1), (3, 0), (3, 0)))
    assert opinion_partition(x, EXACT).blocks == ((0, 1), (2, 3))


def test_opinion_partition_float_tolerance_chain():
    # pairwise-close values merge transitively under the tolerance
    base = 0.0
    x = OpinionMatrix(((base,), (base + 0.9e-9,), (base + 1.8e-9,), (1.0,)))
    assert opinion_partition(x, FLOAT).blocks == ((0, 1, 2), (3,))


def test_per_topic_partition():
    x = OpinionMatrix(((1, 1), (1, 1), (3, 1), (3, 0)))
    assert per_topic_partition(x, 0, EXACT).blocks == ((0, 1), (2, 3))
    assert per_topic_partition(x, 1, EXACT).blocks == ((0, 1, 2), (3,))
    full = opinion_partition(x, EXACT)
    for topic in range(2):
        assert refines(full, per_topic_partition(x, topic, EXACT))


def test_cluster_means():
    x = OpinionMatrix(((0, 2), (2, 4), (10, 10)))
    means = cluster_means(x, Partition(((0, 1), (2,))))
    assert means.entries == ((1, 3), (10, 10))
    with pytest.raises(ValueError):
        cluster_means(x, Partition(((0, 1),)))


@st.composite
def states_and_partitions(draw):
    n = draw(st.integers(1, 12))
    m = draw(st.integers(1, 3))
    value = st.floats(-1e6, 1e6, allow_nan=False) | st.sampled_from([0.0, -0.0, 0.1, 1 / 3])
    rows = draw(st.lists(st.tuples(*[value] * m), min_size=n, max_size=n))
    block_of = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    blocks = {}
    for agent, b in enumerate(block_of):
        blocks.setdefault(b, []).append(agent)
    return OpinionMatrix(tuple(rows)), Partition(tuple(map(tuple, blocks.values())))


@settings(max_examples=200, deadline=None)
@given(states_and_partitions())
def test_float_cluster_means_divide_as_by_a_fraction(case):
    # the float division by the block size rounds as the division by
    # Fraction(size) that cluster_means once made
    x, partition = case
    got = cluster_means(x, partition)
    for row, block in zip(got.entries, partition.blocks):
        total = [0] * x.n_topics
        for i in block:
            total = [t + v for t, v in zip(total, x.entries[i])]
        assert list(map(repr, row)) == [repr(t / Fraction(len(block))) for t in total]


def test_classify_clustering_example():
    x = OpinionMatrix(((1, 1), (1, 1), (3, 0), (3, 0)))
    report = classify_outcome(x, Fraction(3, 10), EXACT, "ave")
    assert report.outcome == OUTCOME_CLUSTERING
    assert report.terminated
    assert report.partition.blocks == ((0, 1), (2, 3))
    assert report.cluster_matrix.entries == ((1, 1), (3, 0))
    assert report.cluster_averages == (1, Fraction(3, 2))
    assert report.min_average_separation == Fraction(1, 2)
    assert report.partitions_agree is True
    assert report.average_partition.blocks == ((0, 1), (2, 3))


def test_classify_consensus():
    x = OpinionMatrix(((2, 2), (2, 2)))
    report = classify_outcome(x, 1, EXACT, "ave", termination_step=4)
    assert report.outcome == OUTCOME_CONSENSUS
    assert report.termination_step == 4
    assert report.partition.n_blocks == 1
    assert report.min_average_separation is None


@pytest.mark.parametrize("model", ["ave", "uniform"])
def test_classify_run_resteps_only_a_budget_limited_run(model_steps, model):
    x = OpinionMatrix(((0, 0), (1, 1), (3, 3)))
    done = run(SimulationConfig(model, 1, 50, EXACT), x)
    cut = run(SimulationConfig(model, 1, 1, EXACT), x)
    assert done.terminated and not cut.terminated
    model_steps.clear()
    report = classify_run(done)
    assert model_steps == []
    assert report.outcome == OUTCOME_CLUSTERING
    assert report.termination_step == done.termination_step
    # the budget ran out on the fixed point, which one more step confirms
    assert classify_run(cut).outcome == OUTCOME_CLUSTERING
    assert len(model_steps) == 1


def test_classify_not_terminated():
    x = OpinionMatrix(((0.0, 0.0), (0.1, 0.1)))
    report = classify_outcome(x, 1, FLOAT, "ave")
    assert report.outcome == OUTCOME_NOT_TERMINATED
    assert not report.terminated
    assert report.partition is None
    assert report.cluster_matrix is None


def test_classify_depends_on_model():
    # far on each topic, equal means: terminal for the uniform rule,
    # not terminal for the average rule
    x = OpinionMatrix(((0, 2), (2, 0)))
    uni = classify_outcome(x, 1, EXACT, "uniform")
    assert uni.outcome == OUTCOME_CLUSTERING
    ave = classify_outcome(x, 1, EXACT, "ave")
    assert ave.outcome == OUTCOME_NOT_TERMINATED


def test_uniform_clusters_may_share_means():
    x = OpinionMatrix(((0, 2), (2, 0)))
    report = classify_outcome(x, 1, EXACT, "uniform")
    assert report.cluster_averages == (1, 1)
    assert report.min_average_separation == 0
    assert report.partitions_agree is False
    assert report.average_partition.n_blocks == 1


def test_ave_separation_guard_fires_on_bad_tolerances():
    # an oversized fixed-point tolerance accepts a non-terminal state,
    # which then violates the separation guarantee of the average model
    sloppy = NumericPolicy("float", tau_fix=0.5, tau_cluster=1e-9)
    x = OpinionMatrix(((0.0,), (0.4,)))
    with pytest.raises(PropertyViolation):
        classify_outcome(x, 0.45, sloppy, "ave")


def test_classify_rejects_unknown_model():
    with pytest.raises(ValueError):
        classify_outcome(OpinionMatrix(((1,),)), 1, EXACT, "median")


def test_single_agent_is_consensus():
    report = classify_outcome(OpinionMatrix(((5, 7),)), 1, EXACT, "uniform")
    assert report.outcome == OUTCOME_CONSENSUS
    assert report.cluster_averages == (6,)


TAU = 1e-9
CHAINED = NumericPolicy.floating(tau_cluster=TAU)
# float states grouped by equality alone
EQUAL = NumericPolicy.floating(tau_cluster=0.0)


def _all_pairs_partition(n, close):
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(n):
        for k in range(i + 1, n):
            if close(i, k):
                parent[find(k)] = find(i)
    blocks = {}
    for i in range(n):
        blocks.setdefault(find(i), []).append(i)
    return Partition(tuple(map(tuple, blocks.values())))


def _float_value(center, offset):
    # 0.0 + -0.0 is 0.0, so a zero center keeps the offset's sign
    return center + offset if center else offset


@st.composite
def grouping_cases(draw):
    """A policy and a state of clusters 10 apart, some sharing a coordinate.

    Float offsets 0, 0.6 tau and 1.2 tau on a topic join in one group
    under tau, although the two ends are not within tau; a zero center
    also draws -0.0, and 0 against tau is a gap of exactly tau.  Exact
    states sit on a quarter grid.  Rows repeat across agents.
    """
    m = draw(st.integers(1, 3))
    exact = draw(st.booleans())
    if exact:
        policy, value = EXACT, lambda c, o: Fraction(10 * c) + o
        offset = st.sampled_from((Fraction(0), Fraction(1, 4), Fraction(1, 2)))
    else:
        policy, value = draw(st.sampled_from((CHAINED, EQUAL))), _float_value
        offset = st.sampled_from((0.0, -0.0, 0.6 * TAU, TAU, 1.2 * TAU))
    center = st.integers(0, 3).map(lambda c: c if exact else 10.0 * c)
    rows = st.lists(st.builds(value, center, offset), min_size=m, max_size=m).map(tuple)
    pool = draw(st.lists(rows, min_size=1, max_size=8))
    x = OpinionMatrix(tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=30))))
    return x, policy


@settings(max_examples=150, deadline=None)
@given(grouping_cases())
@example((OpinionMatrix(((0.0,), (0.6 * TAU,), (1.2 * TAU,), (0.6 * TAU,), (0.0,))), CHAINED))
@example(
    (OpinionMatrix(((0.0, 10.0), (1.2 * TAU, 10.0), (10.0, 10.0), (0.6 * TAU, 10.0))), CHAINED)
)
@example((OpinionMatrix(((0.0, -0.0), (TAU, 0.0), (2 * TAU, 1.0), (-0.0, TAU))), CHAINED))
@example((OpinionMatrix(((0.0, -0.0), (-0.0, 0.0), (TAU, 0.0), (0.0, TAU))), EQUAL))
@example(
    (OpinionMatrix(((Fraction(0),), (Fraction(1, 4),), (Fraction(0),), (Fraction(10),))), EXACT)
)
def test_groupings_equal_all_pairs_union_find(case):
    x, policy = case
    tol = policy.tau_cluster
    rows = x.entries
    n = x.n_agents
    full = _all_pairs_partition(
        n, lambda i, k: all(abs(p - q) <= tol for p, q in zip(rows[i], rows[k]))
    )
    assert opinion_partition(x, policy) == full
    for topic in range(x.n_topics):
        col = x.column(topic)
        want = _all_pairs_partition(n, lambda i, k: abs(col[i] - col[k]) <= tol)
        assert per_topic_partition(x, topic, policy) == want
    means = row_average(x).values
    # the state is passed as an observed fixed point, so it is not stepped
    report = classify_outcome(x, policy.coerce(1), policy, "uniform", termination_step=0)
    assert report.partition == full
    assert report.average_partition == _all_pairs_partition(
        n, lambda i, k: abs(means[i] - means[k]) <= tol
    )


def _set_refines(finer, coarser):
    coarse = [set(b) for b in coarser.blocks]
    return all(any(set(b) <= c for c in coarse) for b in finer.blocks)


def _partition_of(labels):
    blocks = {}
    for i, label in enumerate(labels):
        blocks.setdefault(label, []).append(i)
    return Partition(tuple(map(tuple, blocks.values())))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 12).flatmap(
        lambda n: st.tuples(*[st.lists(st.integers(0, 3), min_size=n, max_size=n)] * 2)
    )
)
def test_refines_equals_the_set_form(labels):
    finer, coarser = map(_partition_of, labels)
    assert refines(finer, coarser) == _set_refines(finer, coarser)
    assert refines(finer, finer)
