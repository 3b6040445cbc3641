import dataclasses
import math
from fractions import Fraction

import pytest

from hkmulti import (
    AverageVector,
    InfluenceMatrix,
    NumericPolicy,
    OpinionMatrix,
    RowStochasticMatrix,
    SimulationConfig,
    StepReport,
    ave_step,
    contraction_factor,
    disagreement_seminorm,
    global_range,
    induced_disagreement_seminorm,
    row_average,
    row_normalize,
    run,
    sample_initial,
    topic_range,
    uniform_step,
)
from hkmulti.core import matrices_close, neighbor_means, rows_use_floats


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
    phi = InfluenceMatrix(((1, 1, 0), (1, 1, 0), (0, 0, 1)))
    a = row_normalize(phi)
    assert a.entries[0] == (Fraction(1, 2), Fraction(1, 2), 0)
    assert a.entries[2] == (0, 0, 1)
    b = row_normalize(phi, exact=False)
    assert b.entries[0] == (0.5, 0.5, 0.0)
    assert isinstance(b.entries[0][0], float)


def test_contraction_factor_examples():
    single = InfluenceMatrix(((1,),))
    assert repr(contraction_factor(single, exact=True)) == "0"
    assert repr(contraction_factor(single, exact=False)) == "0"
    full = InfluenceMatrix(((1, 1), (1, 1)))
    assert contraction_factor(full, exact=True) == 0
    assert contraction_factor(full, exact=False) == 0.0
    block = InfluenceMatrix(((1, 1, 0), (1, 1, 0), (0, 0, 1)))
    assert contraction_factor(block, exact=True) == 1
    # the end agents share only the middle one, with weight 1/2
    chain = InfluenceMatrix(((1, 1, 0), (1, 1, 1), (0, 1, 1)))
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
    assert len(AverageVector((1, 2))) == 2


def test_influence_matrix_validation():
    with pytest.raises(ValueError):
        InfluenceMatrix(((0,),))
    with pytest.raises(ValueError):
        InfluenceMatrix(((1, 1), (0, 1)))
    with pytest.raises(ValueError):
        InfluenceMatrix(((1, 2), (2, 1)))
    with pytest.raises(ValueError):
        InfluenceMatrix(((1, 0, 1),))
    phi = InfluenceMatrix(((1, 1, 0), (1, 1, 0), (0, 0, 1)))
    assert phi.neighbors(0) == (0, 1)
    assert phi.degree(2) == 1


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
    ],
)
def test_policy_coercion_rejects_unrepresentable_numbers(policy, value):
    with pytest.raises(ValueError):
        policy.coerce(value)


def test_matrix_helpers():
    x = OpinionMatrix(((0, 0), (1, 1), (3, 3)))
    phi = InfluenceMatrix(((1, 1, 0), (1, 1, 0), (0, 0, 1)))
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
    phi = InfluenceMatrix(((1,),))
    with pytest.raises(ValueError):
        neighbor_means(x, phi)


def test_is_finite_helper():
    from hkmulti.core import is_finite

    assert is_finite(Fraction(10**9, 7))
    assert is_finite(10**30)
    assert not is_finite(float("inf"))
    assert not is_finite(float("nan"))
    assert math.isfinite(float(Fraction(1, 3)))
