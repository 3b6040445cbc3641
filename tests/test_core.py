import dataclasses
import math
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hkmulti import (
    AverageVector,
    InfluenceMatrix,
    NumericPolicy,
    OpinionMatrix,
    SimulationConfig,
    StepReport,
    ave_neighbors,
    ave_step,
    contraction_factor,
    disagreement_seminorm,
    global_range,
    linf_neighbors,
    row_average,
    run,
    sample_initial,
    topic_range,
    uniform_step,
)
from hkmulti.avemodel import _neighbors_from_averages
from hkmulti.core import (
    mask_members,
    mask_runs,
    matrices_close,
    neighbor_means,
    sorted_windows,
)
from hkmulti.oracle import (
    RowStochasticMatrix,
    induced_disagreement_seminorm,
    row_normalize,
    rows_use_floats,
)


def test_row_average_examples():
    x = OpinionMatrix(((0, 0), (1, 1), (3, 3)))
    assert row_average(x).values == (0, 1, 3)
    assert row_average(OpinionMatrix(((2, 4),))).values == (3,)
    assert row_average(OpinionMatrix(((1, 2, 4),))).values == (Fraction(7, 3),)


def test_row_average_stays_exact_on_fractions():
    x = OpinionMatrix(((Fraction(1, 3), Fraction(1, 2)),))
    (value,) = row_average(x).values
    assert isinstance(value, Fraction) and value == Fraction(5, 12)


def test_row_average_stays_float_on_floats():
    x = OpinionMatrix(((0.1, 0.3, 0.7),))
    (value,) = row_average(x).values
    assert isinstance(value, float)
    assert value == (0.1 + 0.3 + 0.7) / 3


def test_disagreement_seminorm_examples():
    assert disagreement_seminorm((1, 4, 2)) == 3
    assert disagreement_seminorm((-1, 1)) == 2
    assert disagreement_seminorm((7,)) == 0
    with pytest.raises(ValueError):
        disagreement_seminorm(())


def test_induced_seminorm_examples():
    n = 4
    uniform = [[Fraction(1, n)] * n for _ in range(n)]
    assert induced_disagreement_seminorm(uniform) == 0
    identity = [[1 if i == k else 0 for k in range(3)] for i in range(3)]
    assert induced_disagreement_seminorm(identity) == 1
    half = Fraction(1, 2)
    block = [[half, half, 0], [half, half, 0], [0, 0, 1]]
    assert induced_disagreement_seminorm(block) == 1
    assert induced_disagreement_seminorm([[1]]) == 0


def test_induced_seminorm_rejects_bad_rows():
    with pytest.raises(ValueError):
        induced_disagreement_seminorm([[Fraction(1, 2), Fraction(1, 4)]] * 2)


def test_row_normalize_exact_and_float():
    phi = InfluenceMatrix((0, 0, 1), (((0, 0),), ((1, 1),)))
    a = row_normalize(phi)
    assert a.entries[0] == (Fraction(1, 2), Fraction(1, 2), 0)
    assert a.entries[2] == (0, 0, 1)
    b = row_normalize(phi, exact=False)
    assert b.entries[0] == (0.5, 0.5, 0.0)
    assert isinstance(b.entries[0][0], float)


def test_contraction_factor_examples():
    single = InfluenceMatrix((0,), (((0, 0),),))
    assert repr(contraction_factor(single, exact=True)) == "0"
    assert repr(contraction_factor(single, exact=False)) == "0"
    full = InfluenceMatrix((0, 0), (((0, 0),),))
    assert contraction_factor(full, exact=True) == 0
    assert contraction_factor(full, exact=False) == 0.0
    block = InfluenceMatrix((0, 0, 1), (((0, 0),), ((1, 1),)))
    assert contraction_factor(block, exact=True) == 1
    # the end agents share only the middle one, with weight 1/2
    chain = InfluenceMatrix((0, 1, 2), (((0, 1),), ((0, 2),), ((1, 2),)))
    assert contraction_factor(chain, exact=True) == Fraction(1, 2)
    assert isinstance(contraction_factor(chain, exact=False), float)


@pytest.mark.parametrize("n_agents", [1, 2, 20, 60])
def test_contraction_factor_equals_dense_form(n_agents):
    # the dense induced seminorm of the averaging matrix is the reference:
    # same value and same repr, so float gammas on disk do not move.  Small
    # runs go to their fixed point; the exact dense form costs about half a
    # second per step at 60 agents, so those runs stop after 3 steps
    max_steps = 30 if n_agents <= 20 else 3
    for model in ("ave", "uniform"):
        for policy in (NumericPolicy.exact(), NumericPolicy.floating()):
            initial = sample_initial(n_agents, 2, (-1.0, 1.0), n_agents, policy)
            config = SimulationConfig(model, policy.coerce("0.4"), max_steps, policy)
            for report in run(config, initial).reports:
                exact = policy.is_exact
                averaging = row_normalize(report.influence, exact)
                dense = induced_disagreement_seminorm(averaging)
                fast = contraction_factor(report.influence, exact)
                assert fast == dense
                assert repr(fast) == repr(dense)


def test_steps_report_state_and_neighbors_only():
    names = [f.name for f in dataclasses.fields(StepReport)]
    assert names == ["next_state", "influence"]
    x = OpinionMatrix(((0, 0), (1, 1), (3, 3)))
    for step in (ave_step, uniform_step):
        assert type(step(x, 1)) is StepReport


def test_topic_and_global_range():
    x = OpinionMatrix(((0, 5), (2, 5), (1, 9)))
    assert topic_range(x, 0) == 2
    assert topic_range(x, 1) == 4
    assert global_range(x) == 4
    with pytest.raises(IndexError):
        topic_range(x, 2)
    with pytest.raises(IndexError):
        topic_range(x, -1)


def test_opinion_matrix_validation():
    with pytest.raises(ValueError):
        OpinionMatrix(())
    with pytest.raises(ValueError):
        OpinionMatrix(((),))
    with pytest.raises(ValueError):
        OpinionMatrix(((1, 2), (3,)))
    with pytest.raises(ValueError):
        OpinionMatrix(((float("nan"),),))
    with pytest.raises(ValueError):
        OpinionMatrix(((float("inf"), 0.0),))
    with pytest.raises(ValueError, match="mix floats with exact values"):
        OpinionMatrix(((Fraction(1, 2),), (0.5,)))
    with pytest.raises(ValueError, match="mix floats with exact values"):
        OpinionMatrix(((1, 0.5),))
    x = OpinionMatrix(((1, 2), (3, 4)))
    assert x.n_agents == 2 and x.n_topics == 2
    assert x.column(1) == (2, 4)


def test_average_vector_validation():
    with pytest.raises(ValueError):
        AverageVector(())
    with pytest.raises(ValueError):
        AverageVector((float("nan"),))


def test_influence_matrix_validation():
    with pytest.raises(ValueError, match="empty"):
        InfluenceMatrix((), ())
    with pytest.raises(ValueError, match="own neighbor"):
        InfluenceMatrix((0, 1), (((1, 1),), ((0, 0),)))
    with pytest.raises(ValueError, match="own neighbor"):
        InfluenceMatrix((0,), ((),))
    with pytest.raises(ValueError, match="symmetric"):
        InfluenceMatrix((0, 1), (((0, 1),), ((1, 1),)))
    with pytest.raises(ValueError, match="in range"):
        InfluenceMatrix((0,), (((0, 1),),))
    with pytest.raises(ValueError, match="in range"):
        InfluenceMatrix((0, 1), (((-1, 0),), ((0, 1),)))
    # runs out of order, runs that touch, and a run with lo > hi
    for runs in (((2, 2), (0, 0)), ((0, 0), (1, 2)), ((0, 0), (2, 1))):
        with pytest.raises(ValueError, match="sorted, disjoint and maximal"):
            InfluenceMatrix((0, 1, 2), (runs, ((0, 2),), ((0, 2),)))
    with pytest.raises(ValueError, match="each with an agent"):
        InfluenceMatrix((0, 0), (((0, 0),), ((1, 1),)))
    with pytest.raises(ValueError, match="each with an agent"):
        InfluenceMatrix((0, 2), (((0, 0),), ((1, 1),)))
    phi = InfluenceMatrix((0, 0, 1), (((0, 0),), ((1, 1),)))
    assert phi.n_agents == 3
    assert phi.entries == ((1, 1, 0), (1, 1, 0), (0, 0, 1))
    assert phi.class_neighbors == ((0,), (1,))
    assert list(map(mask_members, phi.neighbor_sets())) == [[0, 1], [2]]
    # runs as a JSON record holds them, in lists, are stored as tuples
    assert InfluenceMatrix([0, 0, 1], [[[0, 0]], [[1, 1]]]) == phi
    # two runs: classes 0 and 2 listen to each other, class 1 to itself
    split = InfluenceMatrix((0, 1, 2, 0), (((0, 0), (2, 2)), ((1, 1),), ((0, 0), (2, 2))))
    assert split.class_neighbors == ((0, 2), (1,), (0, 2))
    assert list(map(mask_members, split.neighbor_sets())) == [[0, 2, 3], [1], [0, 2, 3]]
    # one run each, ends in order, and class 1's run reversed
    with pytest.raises(ValueError, match="sorted, disjoint and maximal"):
        InfluenceMatrix((0, 1), (((0, 0),), ((2, 0),)))
    # one run per class, reflexive, but class 1 does not listen back to 0
    with pytest.raises(ValueError, match="symmetric"):
        InfluenceMatrix((0, 1, 2), (((0, 2),), ((1, 1),), ((0, 2),)))


@st.composite
def class_graphs(draw):
    # a 0/1 matrix on up to 7 classes, often symmetric, sometimes reflexive
    n = draw(st.integers(1, 7))
    links = [[draw(st.booleans()) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        links = [[links[min(c, d)][max(c, d)] for d in range(n)] for c in range(n)]
    if draw(st.booleans()):
        for c in range(n):
            links[c][c] = True
    labels = list(range(n)) + draw(st.lists(st.integers(0, n - 1), max_size=5))
    return labels, links


@settings(max_examples=300, deadline=None)
@given(class_graphs())
@example((range(3), [[True, True, False], [True, True, True], [False, True, True]]))
@example((range(3), [[True, False, True], [False, True, False], [True, False, True]]))
@example((range(3), [[True, True, True], [True, True, False], [False, False, True]]))
@example((range(3), [[True, True, False], [False, True, True], [False, True, True]]))
def test_influence_matrix_accepts_exactly_the_reflexive_symmetric_runs(case):
    labels, links = case
    n = len(links)
    runs = [mask_runs(sum(1 << d for d in range(n) if row[d])) for row in links]
    valid = all(links[c][c] for c in range(n)) and all(
        links[c][d] == links[d][c] for c in range(n) for d in range(n)
    )
    if not valid:
        with pytest.raises(ValueError):
            InfluenceMatrix(labels, runs)
        return
    phi = InfluenceMatrix(labels, runs)
    assert phi.class_neighbors == tuple(
        tuple(d for d in range(n) if row[d]) for row in links
    )


# the last two are longer than the prebuilt bit numbers of mask_members
@pytest.mark.parametrize(
    "mask", [0, 1, 0b110, 0b1011, 0b1110011, (1 << 200) - 1, 5 << 99, (1 << 1100) - 1, 5 << 1500]
)
def test_mask_runs_are_the_maximal_runs_of_set_bits(mask):
    runs = mask_runs(mask)
    assert [k for lo, hi in runs for k in range(lo, hi + 1)] == mask_members(mask)
    assert mask_members(mask) == [k for k in range(mask.bit_length()) if mask >> k & 1]
    assert all(a[1] + 1 < b[0] for a, b in zip(runs, runs[1:]))


def test_row_stochastic_validation():
    RowStochasticMatrix(((Fraction(1, 3), Fraction(2, 3)), (0, 1)))
    with pytest.raises(ValueError):
        RowStochasticMatrix(((Fraction(1, 3), Fraction(1, 3)), (0, 1)))
    with pytest.raises(ValueError):
        RowStochasticMatrix(((Fraction(3, 2), Fraction(-1, 2)), (0, 1)))
    with pytest.raises(ValueError):
        RowStochasticMatrix(((1, 0), (0,)))
    # float rows get a fixed tolerance
    RowStochasticMatrix(((0.5 + 1e-12, 0.5), (0.0, 1.0)))


def test_numeric_policy_modes():
    exact = NumericPolicy.exact()
    assert exact.is_exact and exact.tau_fix == 0
    with pytest.raises(ValueError):
        NumericPolicy("exact", tau_fix=1e-9)
    with pytest.raises(ValueError):
        NumericPolicy("decimal")
    with pytest.raises(ValueError):
        NumericPolicy("float", tau_fix=-1.0)
    floating = NumericPolicy.floating()
    assert floating.tau_fix == 1e-12
    assert floating.tau_cluster == 1e-9


def test_policy_coercion():
    exact = NumericPolicy.exact()
    assert exact.coerce("0.8") == Fraction(4, 5)
    assert exact.coerce("3/7") == Fraction(3, 7)
    assert exact.coerce(0.5) == Fraction(1, 2)
    floating = NumericPolicy.floating()
    assert floating.coerce("3/4") == 0.75
    assert isinstance(floating.coerce(1), float)
    rows = exact.coerce_rows([[0.25, "1/3"]])
    assert rows == ((Fraction(1, 4), Fraction(1, 3)),)
    # exponents up to the bound keep their exact value, leading zeros too,
    # while the digits still fit the int-string limit
    assert exact.coerce("1e-4299") == Fraction(1, 10**4299)
    assert exact.coerce("2.5E+4299") == 25 * 10**4298
    assert exact.coerce("1e-0000000005") == Fraction(1, 10**5)
    assert floating.coerce("1e-4300") == 0.0


@pytest.mark.parametrize(
    "policy, value",
    [
        (NumericPolicy.floating(), "1e400"),
        (NumericPolicy.floating(), 10**400),
        (NumericPolicy.floating(), "1/0"),
        (NumericPolicy.floating(), None),
        (NumericPolicy.exact(), "1/0"),
        (NumericPolicy.exact(), float("inf")),
        (NumericPolicy.exact(), None),
        (NumericPolicy.floating(), "1e-30000000"),
        (NumericPolicy.exact(), "1e-30000000"),
        (NumericPolicy.exact(), "1E+30000000"),
        # exact values with more digits than str() prints
        (NumericPolicy.exact(), "1e4300"),
        (NumericPolicy.exact(), "1e-4300"),
        (NumericPolicy.exact(), "12e4299"),
        (NumericPolicy.exact(), "2.5E+4300"),
        # JSON true/false: bool is an int, but no number
        (NumericPolicy.exact(), True),
        (NumericPolicy.floating(), False),
    ],
)
def test_policy_coercion_rejects_unrepresentable_numbers(policy, value):
    start = time.perf_counter()
    with pytest.raises(ValueError) as caught:
        policy.coerce(value)
    assert time.perf_counter() - start < 1
    # the message quotes the input, not its converted value, and stays short
    message = str(caught.value)
    assert repr(value)[:12] in message
    assert len(message) < 100


def test_matrix_helpers():
    x = OpinionMatrix(((0, 0), (1, 1), (3, 3)))
    phi = InfluenceMatrix((0, 0, 1), (((0, 0),), ((1, 1),)))
    stepped = neighbor_means(x, phi)
    assert stepped.entries == (
        (Fraction(1, 2), Fraction(1, 2)),
        (Fraction(1, 2), Fraction(1, 2)),
        (3, 3),
    )
    assert matrices_close(stepped, stepped, 0)
    assert not matrices_close(stepped, x, 0)
    with pytest.raises(ValueError):
        matrices_close(x, OpinionMatrix(((1,),)), 0)
    assert rows_use_floats(((1, 0.5),))
    assert not rows_use_floats(((Fraction(1, 2), 1),))


def test_neighbor_means_rejects_size_mismatch():
    x = OpinionMatrix(((0, 0), (1, 1)))
    phi = InfluenceMatrix((0,), (((0, 0),),))
    with pytest.raises(ValueError):
        neighbor_means(x, phi)


def test_is_finite_helper():
    from hkmulti.core import is_finite

    assert is_finite(Fraction(10**9, 7))
    assert is_finite(10**30)
    assert not is_finite(float("inf"))
    assert not is_finite(float("nan"))
    assert math.isfinite(float(Fraction(1, 3)))


# the neighbor structure against an all-pairs adjacency written from the
# oracle's predicates: quarters tie at epsilon, -0.0 meets 0.0, and rows
# drawn from a small pool repeat
quarters = st.integers(-8, 8).map(lambda k: k / 4)
float_opinions = st.one_of(quarters, st.sampled_from([0.0, -0.0]), st.floats(-2, 2))
exact_opinions = st.integers(-8, 8).map(lambda k: Fraction(k, 4))


@st.composite
def neighbor_cases(draw):
    exact = draw(st.booleans())
    m = draw(st.integers(1, 3))
    opinions = exact_opinions if exact else float_opinions
    row = st.tuples(*[opinions] * m)
    pool = draw(st.lists(row, min_size=1, max_size=40))
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    epsilon = draw(st.integers(1, 16)) / 4
    return OpinionMatrix(tuple(rows)), Fraction(epsilon) if exact else epsilon


def _oracle_adjacency(x, epsilon, model):
    rows = x.entries
    if model == "ave":
        means = []
        for row in rows:
            total = 0
            for v in row:
                total += v
            means.append(total / Fraction(len(row)))
        return [[int(abs(a - b) <= epsilon) for b in means] for a in means]
    return [[int(max(abs(p - q) for p, q in zip(a, b)) <= epsilon) for b in rows] for a in rows]


# at epsilon 0.5 the rows 1, 2 and 5 differ, the means 0.125 and 0.375
# differ, and yet they share the neighbors {1, 2, 4, 5} under both rules;
# row 5 is exactly epsilon from row 1, row 4 is row 1 with -0.0
TWINS = OpinionMatrix(
    ((0.0, 0.25), (0.25, 0.0), (0.75, 2.0), (-0.0, 0.25), (0.5, 0.25))
)


def test_distinct_classes_can_share_neighbors():
    for rule in (ave_neighbors, linf_neighbors):
        phi = rule(TWINS, 0.5)
        assert phi.labels[0] == phi.labels[3] != phi.labels[4]
        sets = phi.neighbor_sets()
        assert mask_members(sets[phi.labels[0]]) == mask_members(sets[phi.labels[4]])
        assert mask_members(sets[phi.labels[0]]) == [0, 1, 3, 4]


@settings(max_examples=200, deadline=None)
@given(neighbor_cases())
@example((TWINS, 0.5))
@example((TWINS, 2.0))
def test_neighbor_classes_equal_all_pairs(case):
    x, epsilon = case
    for model, rule in (("ave", ave_neighbors), ("uniform", linf_neighbors)):
        adjacency = _oracle_adjacency(x, epsilon, model)
        phi = rule(x, epsilon)
        assert phi.entries == tuple(map(tuple, adjacency))
        sets = phi.neighbor_sets()
        assert [mask_members(sets[c]) for c in phi.labels] == [
            [k for k, linked in enumerate(row) if linked] for row in adjacency
        ]


# means on the quarter grid tie at epsilon, 0.0 and -0.0 are one mean, and
# means drawn from a small pool repeat; arbitrary floats probe the rounding
@st.composite
def mean_cases(draw):
    exact = draw(st.booleans())
    if exact:
        pool = draw(st.lists(exact_opinions, min_size=1, max_size=30))
        epsilon = Fraction(draw(st.integers(1, 16)), 4)
    else:
        pool = draw(st.lists(float_opinions, min_size=1, max_size=30))
        epsilon = draw(st.one_of(st.integers(1, 16).map(lambda k: k / 4), st.floats(1e-3, 4)))
    n = draw(st.integers(1, 40))
    return tuple(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))), epsilon


@settings(max_examples=300, deadline=None)
@given(mean_cases())
@example(((0.0, -0.0, 0.5, 0.25, 0.5, -0.5), 0.5))
@example(((Fraction(-1), Fraction(0), Fraction(1)), Fraction(1, 4)))
def test_ave_neighbors_are_windows_over_the_sorted_means(case):
    values, epsilon = case
    phi = _neighbors_from_averages(values, epsilon)
    means = sorted(set(values))
    assert [means[c] for c in phi.labels] == list(values)
    assert all(len(runs) == 1 for runs in phi.runs)
    ends = [runs[0] for runs in phi.runs]
    assert all(a <= c and b <= d for (a, b), (c, d) in zip(ends, ends[1:]))
    assert phi.class_neighbors == tuple(
        tuple(d for d, b in enumerate(means) if abs(a - b) <= epsilon) for a in means
    )


@settings(max_examples=300, deadline=None)
@given(mean_cases())
@example(((0.0, -0.0, 0.0, 0.5, 0.5, 1.0, 1.0), 0.5))
@example(((Fraction(1, 4),), Fraction(1, 4)))
def test_sorted_windows_equal_brute_force_with_repeats(case):
    values, epsilon = case
    ordered = sorted(values)
    positions = range(len(ordered))
    for a, window in zip(ordered, sorted_windows(ordered, epsilon)):
        assert [q for q in positions if abs(a - ordered[q]) <= epsilon] == list(positions[window])


@pytest.mark.parametrize("exact", [True, False])
def test_contraction_factor_takes_both_paths_on_ave_matrices(exact):
    # disjoint extreme windows return at once, meeting ones pair the
    # neighbor sets; both must give the dense form's value and repr
    policy = NumericPolicy.exact() if exact else NumericPolicy.floating()
    disjoint = set()
    for seed, eps in ((1, "1/10"), (2, "1/5"), (3, "3/5"), (4, "6/5"), (5, "2")):
        initial = sample_initial(24, 2, (-1.0, 1.0), seed, policy)
        config = SimulationConfig("ave", policy.coerce(eps), 6, policy)
        for report in run(config, initial).reports:
            phi = report.influence
            disjoint.add(phi.runs[0][0][1] < phi.runs[-1][0][0])
            dense = induced_disagreement_seminorm(row_normalize(phi, exact))
            assert repr(contraction_factor(phi, exact)) == repr(dense)
    assert disjoint == {True, False}
