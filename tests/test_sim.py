import random
import weakref
from fractions import Fraction

import pytest

from hkmulti import (
    NumericPolicy,
    OpinionMatrix,
    SimulationConfig,
    batch_run,
    classify_run,
    run,
    sample_initial,
)
from hkmulti.sim import GENERATOR_NAME, normalize_box

EXACT = NumericPolicy.exact()
FLOAT = NumericPolicy.floating()


def test_run_three_agent_example():
    config = SimulationConfig("ave", 1, 50, EXACT)
    traj = run(config, OpinionMatrix(((0, 0), (1, 1), (3, 3))))
    assert traj.terminated
    # step 0 merges the first two agents, step 1 changes nothing:
    # the duplicate terminal state is recorded
    assert traj.termination_step == 1
    assert len(traj.states) == 3
    assert traj.states[1].entries == traj.states[2].entries
    assert traj.states[1].entries[0] == (Fraction(1, 2), Fraction(1, 2))
    assert traj.n_steps == 2
    assert traj.final_state.entries == traj.states[2].entries


def test_run_single_agent_terminates_immediately():
    traj = run(SimulationConfig("uniform", 1, 10, EXACT), OpinionMatrix(((4, 2),)))
    assert traj.terminated and traj.termination_step == 0
    assert len(traj.states) == 2


def test_run_budget_exhaustion():
    config = SimulationConfig("ave", 1, 1, EXACT)
    traj = run(config, OpinionMatrix(((0, 0), (1, 1), (3, 3))))
    assert not traj.terminated
    assert traj.termination_step is None
    assert traj.n_steps == 1


def test_run_zero_budget():
    traj = run(SimulationConfig("ave", 1, 0, EXACT), OpinionMatrix(((0,), (9,))))
    assert not traj.terminated and traj.n_steps == 0
    assert len(traj.states) == 1


def test_run_coerces_initial_state_to_policy():
    x = OpinionMatrix(((0.5, 0.25), (0.75, 1.0)))
    traj = run(SimulationConfig("ave", 1, 5, EXACT), x)
    assert all(
        isinstance(v, Fraction) for row in traj.states[0].entries for v in row
    )
    assert traj.states[0].entries[0] == (Fraction(1, 2), Fraction(1, 4))
    back = run(SimulationConfig("ave", 1.0, 5, FLOAT), traj.states[0])
    assert all(isinstance(v, float) for row in back.states[0].entries for v in row)


def test_config_validation():
    with pytest.raises(ValueError):
        SimulationConfig("other", 1, 10, EXACT)
    with pytest.raises(ValueError):
        SimulationConfig("ave", 0, 10, EXACT)
    with pytest.raises(ValueError):
        SimulationConfig("ave", 1, -1, EXACT)


def test_sample_initial_reproducible_and_in_box():
    a = sample_initial(10, 2, (-1.0, 1.0), 7, FLOAT)
    b = sample_initial(10, 2, (-1.0, 1.0), 7, FLOAT)
    assert a.entries == b.entries
    c = sample_initial(10, 2, (-1.0, 1.0), 8, FLOAT)
    assert c.entries != a.entries
    assert all(-1.0 <= v <= 1.0 for row in a.entries for v in row)


def test_sample_initial_row_major_stream():
    rng = random.Random(3)
    expected = []
    for _ in range(2):
        expected.append(tuple(0.0 + (2.0 - 0.0) * rng.random() for _ in range(3)))
    got = sample_initial(2, 3, (0.0, 2.0), 3, FLOAT)
    assert got.entries == tuple(expected)
    assert GENERATOR_NAME == "python-random-mt19937"


def test_sample_initial_exact_equals_float_values():
    f = sample_initial(4, 3, (-1.0, 1.0), 11, FLOAT)
    e = sample_initial(4, 3, (-1.0, 1.0), 11, EXACT)
    assert all(
        Fraction(fv) == ev
        for frow, erow in zip(f.entries, e.entries)
        for fv, ev in zip(frow, erow)
    )


def test_sample_initial_per_topic_box():
    x = sample_initial(50, 2, ((0.0, 1.0), (5.0, 6.0)), 2, FLOAT)
    assert all(0.0 <= row[0] <= 1.0 for row in x.entries)
    assert all(5.0 <= row[1] <= 6.0 for row in x.entries)


def test_sample_initial_validation():
    with pytest.raises(ValueError):
        sample_initial(0, 2, (-1.0, 1.0), 1, FLOAT)
    with pytest.raises(ValueError):
        sample_initial(2, 2, ((0.0, 1.0),), 1, FLOAT)
    with pytest.raises(ValueError):
        sample_initial(2, 1, (1.0, 0.0), 1, FLOAT)
    with pytest.raises(ValueError):
        sample_initial(2, 1, (0.0, float("nan")), 1, FLOAT)


def test_normalize_box_broadcast():
    assert normalize_box((-1, 1), 3) == ((-1.0, 1.0),) * 3
    assert normalize_box([(0, 1), (2, 3)], 2) == ((0.0, 1.0), (2.0, 3.0))


def test_batch_run_matches_sequential_runs():
    config = SimulationConfig("uniform", 0.8, 100, FLOAT)
    jobs = [
        (config, sample_initial(6, 2, (-1.0, 1.0), seed, FLOAT)) for seed in range(8)
    ]
    parallel = batch_run(jobs, lambda traj: traj)
    for job, traj in zip(jobs, parallel):
        solo = run(*job)
        assert traj.states == solo.states
        assert traj.termination_step == solo.termination_step


def test_batch_run_empty():
    assert batch_run([], lambda traj: traj) == []


def test_batch_run_draws_each_job_as_its_run_starts():
    config = SimulationConfig("uniform", 0.8, 100, FLOAT)
    events = []

    def jobs():
        for seed in range(3):
            events.append(("draw", seed))
            yield config, sample_initial(6, 2, (-1.0, 1.0), seed, FLOAT)

    def reduce(traj):
        events.append(("reduce", traj.states[0].entries))
        return traj.n_steps

    steps = batch_run(jobs(), reduce)
    starts = [sample_initial(6, 2, (-1.0, 1.0), seed, FLOAT).entries for seed in range(3)]
    assert events == [
        event for seed in range(3) for event in (("draw", seed), ("reduce", starts[seed]))
    ]
    assert steps == [run(config, OpinionMatrix(x)).n_steps for x in starts]


def test_batch_run_holds_one_trajectory_at_a_time():
    # each trajectory is gone before the next run is reduced
    config = SimulationConfig("ave", 0.5, 100, FLOAT)
    jobs = ((config, sample_initial(8, 2, (-1.0, 1.0), seed, FLOAT)) for seed in range(5))
    previous = []

    def reduce(traj):
        assert all(ref() is None for ref in previous)
        previous.append(weakref.ref(traj))
        return traj.terminated

    assert batch_run(jobs, reduce) == [True] * 5
    assert len(previous) == 5


@pytest.mark.parametrize(
    "model, exact_epsilon, float_epsilon",
    [
        pytest.param("ave", Fraction(3, 8), 0.375, id="ave"),
        pytest.param("uniform", Fraction(3, 8), 0.375, id="uniform"),
        pytest.param("ave", Fraction(3, 10), 0.3, id="ave-non-dyadic"),
        pytest.param("uniform", Fraction(3, 10), 0.3, id="uniform-non-dyadic"),
    ],
)
def test_exact_and_float_runs_terminate_alike(model, exact_epsilon, float_epsilon):
    # sample_initial draws the same dyadic starts for both modes.  Epsilon
    # 3/8 is dyadic, so 0.375 is the same threshold in both; 0.3 is the
    # double nearest 3/10, so the two thresholds differ by about 1e-17
    def ending(policy, epsilon, seed):
        traj = run(
            SimulationConfig(model, epsilon, 200, policy),
            sample_initial(12, 2, (-1.0, 1.0), seed, policy),
        )
        assert traj.terminated, (policy.mode, seed)
        report = classify_run(traj)
        return traj.termination_step, report.outcome, report.partition.n_blocks

    differ = [
        seed
        for seed in range(200)
        if ending(EXACT, exact_epsilon, seed) != ending(FLOAT, float_epsilon, seed)
    ]
    assert differ == []
