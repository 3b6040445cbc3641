import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from hkmulti import (
    OpinionMatrix,
    ave_step,
    contraction_factor,
    induced_seminorm_bruteforce,
    naive_model_step,
    scalar_hk_step,
    uniform_step,
)
from hkmulti.oracle import induced_disagreement_seminorm, row_normalize
from conftest import rand_exact_matrix, rand_stochastic_rows, to_float_matrix


def test_bruteforce_examples():
    half = Fraction(1, 2)
    assert induced_seminorm_bruteforce([[half, half], [half, half]]) == 0
    assert induced_seminorm_bruteforce([[1, 0], [0, 1]]) == 1
    assert induced_seminorm_bruteforce([[1]]) == 0
    rows = [[half, half, 0], [0, half, half]]
    assert induced_seminorm_bruteforce(rows) == half


def test_bruteforce_matches_closed_form_on_random_matrices():
    rng = random.Random(42)
    for _ in range(50):
        rows = rand_stochastic_rows(rng, rng.randint(1, 8))
        assert induced_seminorm_bruteforce(rows) == induced_disagreement_seminorm(rows)


def test_scalar_step_examples():
    assert scalar_hk_step((0, 1, 3), 1) == (Fraction(1, 2), Fraction(1, 2), 3)
    assert scalar_hk_step(
        (0, Fraction(1, 2), 1), Fraction(1, 2)
    ) == (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
    assert scalar_hk_step((5,), 1) == (5,)
    with pytest.raises(ValueError):
        scalar_hk_step((0, 1), 0)


def test_scalar_step_float_inputs_stay_float():
    out = scalar_hk_step((0.0, 0.5, 1.0), 0.5)
    assert out == (0.25, 0.5, 0.75)
    assert all(isinstance(v, float) for v in out)


def test_naive_step_examples():
    x = OpinionMatrix(((0, 0), (1, 1), (3, 3)))
    assert naive_model_step(x, 1, "ave").entries == ave_step(x, 1).next_state.entries
    y = OpinionMatrix(((0.0, 1.0), (0.5, 0.5), (2.0, 0.0)))
    assert naive_model_step(y, 1, "uniform").entries == (
        (0.25, 0.75),
        (0.25, 0.75),
        (2.0, 0.0),
    )
    with pytest.raises(ValueError):
        naive_model_step(x, 1, "other")


def test_naive_step_matches_production_bitwise():
    rng = random.Random(9)
    for _ in range(60):
        x = rand_exact_matrix(rng, rng.randint(1, 9), rng.randint(1, 3))
        eps = Fraction(rng.randint(2, 12), 10)
        for model, step in (("ave", ave_step), ("uniform", uniform_step)):
            expected = step(x, eps).next_state.entries
            assert naive_model_step(x, eps, model).entries == expected
            xf = to_float_matrix(x)
            expected_f = step(xf, float(eps)).next_state.entries
            got_f = naive_model_step(xf, float(eps), model).entries
            assert got_f == expected_f
            assert all(isinstance(v, float) for row in got_f for v in row)


# quarter-grid values make exact ties at epsilon common; 0.0 and -0.0 are
# equal rows to the production step, so both must land in one column
float_quarters = st.integers(-8, 8).map(lambda k: k / 4)
float_values = st.one_of(float_quarters, st.sampled_from((0.0, -0.0)), st.floats(-2, 2))
exact_values = st.integers(-8, 8).map(lambda k: Fraction(k, 4))


@st.composite
def repeated_row_states(draw):
    """A few distinct rows, each held by several agents, as after clusters merge."""
    exact = draw(st.booleans())
    m = draw(st.integers(1, 3))
    values = exact_values if exact else float_values
    pool = draw(st.lists(st.tuples(*[values] * m), min_size=1, max_size=5))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    if exact:
        epsilon = draw(st.integers(1, 16).map(lambda k: Fraction(k, 4)))
    else:
        epsilon = draw(st.one_of(float_quarters.filter(lambda v: v > 0), st.floats(1e-3, 4)))
    return exact, OpinionMatrix(tuple(rows)), epsilon


SIGNED_ZEROS = OpinionMatrix(
    ((0.0, 0.25), (-0.0, 0.25), (0.5, -0.0), (0.0, 0.25), (0.5, 0.0), (-0.0, 0.25), (0.75, 0.5))
)


@settings(max_examples=150, deadline=None)
@given(repeated_row_states())
@example((False, SIGNED_ZEROS, 0.25))
@example((False, SIGNED_ZEROS, 0.5))
def test_repeated_rows_match_the_oracle(case):
    exact, x, epsilon = case
    for model, step in (("ave", ave_step), ("uniform", uniform_step)):
        report = step(x, epsilon)
        want = naive_model_step(x, epsilon, model)
        assert repr(report.next_state.entries) == repr(want.entries)
        dense = induced_disagreement_seminorm(row_normalize(report.influence, exact))
        assert repr(contraction_factor(report.influence, exact)) == repr(dense)
