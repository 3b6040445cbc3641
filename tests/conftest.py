import random
from fractions import Fraction

import pytest

from hkmulti import NumericPolicy, OpinionMatrix

EXACT = NumericPolicy.exact()
FLOAT = NumericPolicy.floating()


def rand_exact_matrix(rng: random.Random, n: int, m: int, span: int = 60, denom: int = 10):
    # small denominators keep Fraction arithmetic fast over long trajectories
    return OpinionMatrix(
        tuple(
            tuple(Fraction(rng.randint(0, span), denom) for _ in range(m))
            for _ in range(n)
        )
    )


def to_float_matrix(x: OpinionMatrix) -> OpinionMatrix:
    return OpinionMatrix(tuple(tuple(float(v) for v in row) for row in x.entries))


def rand_exact_epsilon(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(3, 12), 10)


def rand_stochastic_rows(rng: random.Random, n: int):
    # positive integer weights with random zeros, normalized exactly
    rows = []
    for _ in range(n):
        weights = [rng.randint(0, 5) for _ in range(n)]
        if sum(weights) == 0:
            weights[rng.randrange(n)] = 1
        total = sum(weights)
        rows.append(tuple(Fraction(w, total) for w in weights))
    return tuple(rows)


def column_sorted_matrix(rng: random.Random, n: int, m: int) -> OpinionMatrix:
    # sorting every column independently yields a globally ordered state
    cols = [
        sorted(Fraction(rng.randint(0, 60), 10) for _ in range(n)) for _ in range(m)
    ]
    return OpinionMatrix(tuple(tuple(cols[j][i] for j in range(m)) for i in range(n)))


@pytest.fixture(scope="session")
def exact_policy():
    return EXACT


@pytest.fixture(scope="session")
def float_policy():
    return FLOAT


@pytest.fixture
def model_steps(monkeypatch):
    """Count the model steps taken through ``hkmulti.sim``; the value is the call list."""
    from hkmulti import sim

    calls = []
    for name in ("ave_step", "uniform_step"):
        step = getattr(sim, name)

        def counted(x, epsilon, step=step, name=name):
            calls.append(name)
            return step(x, epsilon)

        monkeypatch.setattr(sim, name, counted)
    return calls
