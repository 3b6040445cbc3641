"""Acceptance gate: ten end-to-end guarantees checked at pinned tolerances.

Each test prints one [PASS]/[FAIL] line on the live terminal (bypassing
capture) so a full run reads as a ten-line scorecard.  Exact-mode checks
use equality and strict inequalities with zero slack; float-mode checks
use the 1e-12 slack stated inline.  Shared batches of trajectories are
built once per module.
"""

import random
import statistics
from contextlib import contextmanager
from time import perf_counter

import pytest

from hkmulti import (
    NumericPolicy,
    SimulationConfig,
    ave_step,
    classify_run,
    cluster_means,
    contraction_factor,
    disagreement_seminorm,
    globally_ordered,
    induced_seminorm_bruteforce,
    max_average_gap,
    naive_model_step,
    one_step_preservation_hypothesis,
    opinion_partition,
    per_topic_partition,
    refines,
    row_average,
    run,
    sample_initial,
    scalar_hk_step,
    uniform_step,
)
from hkmulti.oracle import RowStochasticMatrix, induced_disagreement_seminorm
from hkmulti.analysis import OUTCOME_CONSENSUS, Partition
from hkmulti.cli import main
from hkmulti.serialize import trajectory_lines
from conftest import (
    column_sorted_matrix,
    rand_exact_epsilon,
    rand_exact_matrix,
    rand_stochastic_rows,
    to_float_matrix,
)

EXACT = NumericPolicy.exact()
FLOAT = NumericPolicy.floating()


@pytest.fixture
def announce(capsys):
    @contextmanager
    def _announce(num: int, label: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[FAIL] criterion {num:02d}: {label}", flush=True)
            raise
        else:
            with capsys.disabled():
                print(f"[PASS] criterion {num:02d}: {label}", flush=True)

    return _announce


def _exact_runs(seed: int, model: str, count: int, ordered_every: int = 0):
    rng = random.Random(seed)
    out = []
    for i in range(count):
        n = rng.randint(2, 15)
        m = rng.randint(1, 4)
        if ordered_every and i % ordered_every == 0:
            x = column_sorted_matrix(rng, n, m)
        else:
            x = rand_exact_matrix(rng, n, m)
        eps = rand_exact_epsilon(rng)
        out.append(run(SimulationConfig(model, eps, 400, EXACT), x))
    return out


def _float_runs(seed: int, model: str, count: int):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(2, 15)
        m = rng.randint(1, 4)
        x = to_float_matrix(rand_exact_matrix(rng, n, m))
        eps = float(rand_exact_epsilon(rng))
        out.append(run(SimulationConfig(model, eps, 400, FLOAT), x))
    return out


@pytest.fixture(scope="module")
def exact_ave_batch():
    return _exact_runs(20260817, "ave", 500)


@pytest.fixture(scope="module")
def exact_uniform_batch():
    return _exact_runs(555, "uniform", 500, ordered_every=5)


@pytest.fixture(scope="module")
def float_ave_batch():
    return _float_runs(31, "ave", 300)


@pytest.fixture(scope="module")
def float_uniform_batch():
    return _float_runs(32, "uniform", 300)


def test_criterion_01_seminorm_oracle_equivalence(announce):
    label = "matrix seminorm closed form matches pairwise oracle (1000 matrices, <10s)"
    with announce(1, label):
        rng = random.Random(101)
        t0 = perf_counter()
        for _ in range(1000):
            rows = rand_stochastic_rows(rng, rng.randint(1, 12))
            closed = induced_disagreement_seminorm(RowStochasticMatrix(rows))
            assert closed == induced_seminorm_bruteforce(rows)
            assert 0 <= closed <= 1
            frows = tuple(tuple(float(v) for v in row) for row in rows)
            closed_f = induced_disagreement_seminorm(frows)
            assert abs(closed_f - induced_seminorm_bruteforce(frows)) <= 1e-12
        assert perf_counter() - t0 < 10.0


def test_criterion_02_per_step_contraction(announce, exact_ave_batch, float_ave_batch):
    label = "per-topic spread contracts by the step's matrix seminorm factor"
    with announce(2, label):
        assert len(exact_ave_batch) >= 500
        checked = 0
        for traj in exact_ave_batch:
            for t, report in enumerate(traj.reports):
                gamma = contraction_factor(report.influence, exact=True)
                for j in range(traj.states[t].n_topics):
                    lhs = disagreement_seminorm(traj.states[t + 1].column(j))
                    rhs = gamma * disagreement_seminorm(traj.states[t].column(j))
                    assert lhs <= rhs
                    checked += 1
        assert checked >= 500
        for traj in float_ave_batch:
            for t, report in enumerate(traj.reports):
                gamma = contraction_factor(report.influence, exact=False)
                for j in range(traj.states[t].n_topics):
                    lhs = disagreement_seminorm(traj.states[t + 1].column(j))
                    rhs = gamma * disagreement_seminorm(traj.states[t].column(j))
                    assert lhs <= rhs + 1e-12


def test_criterion_03_range_monotonicity(
    announce, exact_ave_batch, exact_uniform_batch, float_ave_batch, float_uniform_batch
):
    label = "per-topic opinion ranges never grow (both models, both modes)"
    with announce(3, label):
        for batch, slack in (
            (exact_ave_batch, 0),
            (exact_uniform_batch, 0),
            (float_ave_batch, 1e-12),
            (float_uniform_batch, 1e-12),
        ):
            for traj in batch:
                for t in range(traj.n_steps):
                    for j in range(traj.states[t].n_topics):
                        before = disagreement_seminorm(traj.states[t].column(j))
                        after = disagreement_seminorm(traj.states[t + 1].column(j))
                        assert after <= before + slack


def test_criterion_04_average_reduction(announce, exact_ave_batch):
    label = "means of the stepped state equal the scalar dynamics on the means"
    with announce(4, label):
        checked = 0
        for traj in exact_ave_batch:
            eps = traj.config.epsilon
            for t in range(traj.n_steps):
                state = traj.states[t]
                expected = scalar_hk_step(row_average(state).values, eps)
                stepped = ave_step(state, eps).next_state
                assert row_average(stepped).values == expected
                checked += 1
            if checked >= 600:
                break
        assert checked >= 500


def _mean_clusters(values, epsilon):
    """Partition by equal means if adjacent distinct means differ > epsilon."""
    order = sorted(range(len(values)), key=lambda i: values[i])
    blocks = [[order[0]]]
    for prev, cur in zip(order, order[1:]):
        if values[cur] == values[prev]:
            blocks[-1].append(cur)
        elif values[cur] - values[prev] > epsilon:
            blocks.append([cur])
        else:
            return None
    return Partition(tuple(tuple(b) for b in blocks))


def test_criterion_05_steady_state_collapse(announce, exact_ave_batch):
    label = "grouped means collapse to block-constant fixed points one step later"
    with announce(5, label):
        assert len(exact_ave_batch) >= 500
        for traj in exact_ave_batch:
            assert traj.terminated
            eps = traj.config.epsilon
            star = None
            groups = None
            for t, state in enumerate(traj.states):
                groups = _mean_clusters(row_average(state).values, eps)
                if groups is not None:
                    star = t
                    break
            assert star is not None and star <= traj.termination_step
            state = traj.states[star]
            mean_rows = cluster_means(state, groups)
            expected = [None] * state.n_agents
            for block, row in zip(groups.blocks, mean_rows.entries):
                for i in block:
                    expected[i] = row
            assert star + 1 < len(traj.states)
            collapsed = traj.states[star + 1]
            assert collapsed.entries == tuple(expected)
            assert ave_step(collapsed, eps).next_state.entries == collapsed.entries
            block_means = row_average(mean_rows).values
            for block, value in zip(groups.blocks, block_means):
                assert row_average(state).values[block[0]] == value
            ordered = sorted(block_means)
            for a, b in zip(ordered, ordered[1:]):
                assert b - a > eps


def test_criterion_06_max_gap_stationarity(announce, exact_ave_batch):
    label = "a repeated max mean gap is frozen forever and rules out consensus"
    with announce(6, label):
        assert len(exact_ave_batch) >= 500
        positive_cases = 0
        for traj in exact_ave_batch:
            gaps = [max_average_gap(row_average(s)) for s in traj.states]
            repeat = None
            for t in range(len(gaps) - 1):
                if gaps[t] == gaps[t + 1]:
                    repeat = t
                    break
            assert repeat is not None
            assert all(g == gaps[repeat] for g in gaps[repeat:])
            if gaps[repeat] > 0:
                positive_cases += 1
                assert classify_run(traj).outcome != OUTCOME_CONSENSUS
        assert positive_cases >= 50


def test_criterion_07_order_preservation(announce, exact_uniform_batch):
    label = "conditional one-step and perpetual order preservation, plus a real swap"
    with announce(7, label):
        assert len(exact_uniform_batch) >= 500
        hypothesis_steps = 0
        ordered_steps = 0
        for traj in exact_uniform_batch:
            eps = traj.config.epsilon
            for t in range(traj.n_steps):
                before = traj.states[t]
                after = traj.states[t + 1]
                if one_step_preservation_hypothesis(before, eps):
                    hypothesis_steps += 1
                    for j in range(before.n_topics):
                        for i in range(before.n_agents):
                            for k in range(before.n_agents):
                                if before.entries[i][j] <= before.entries[k][j]:
                                    assert after.entries[i][j] <= after.entries[k][j]
                perm = globally_ordered(before)
                if perm is not None:
                    ordered_steps += 1
                    for j in range(after.n_topics):
                        col = [after.entries[i][j] for i in perm]
                        assert all(a <= b for a, b in zip(col, col[1:]))
        assert hypothesis_steps >= 50
        assert ordered_steps >= 100

        # archived instance: at this seed the hypothesis fails and agents
        # 10 and 1 (1-based) really do swap order on topic 1 in one step
        x0 = sample_initial(10, 2, (-1.0, 1.0), 0, FLOAT)
        assert not one_step_preservation_hypothesis(x0, 0.8)
        after = uniform_step(x0, 0.8).next_state
        assert x0.entries[9][0] < x0.entries[0][0]
        assert after.entries[9][0] > after.entries[0][0]


def test_criterion_08_per_topic_refinement(
    announce, exact_ave_batch, exact_uniform_batch
):
    label = "terminal per-topic groups are unions of full-opinion clusters"
    with announce(8, label):
        checked = 0
        for traj in list(exact_ave_batch) + list(exact_uniform_batch):
            if not traj.terminated:
                continue
            final = traj.final_state
            full = opinion_partition(final, EXACT)
            for j in range(final.n_topics):
                topicwise = per_topic_partition(final, j, EXACT)
                assert refines(full, topicwise)
                assert topicwise.n_blocks <= full.n_blocks
            checked += 1
        assert checked >= 500


def test_criterion_09_flagship_scale(announce):
    label = "100 seeded runs (10 agents, 2 topics, bound 0.8) all settle fast (<5s)"
    with announce(9, label):
        t0 = perf_counter()
        steps = []
        for seed in range(100):
            x0 = sample_initial(10, 2, (-1.0, 1.0), seed, FLOAT)
            traj = run(SimulationConfig("uniform", 0.8, 100, FLOAT), x0)
            assert traj.terminated
            steps.append(traj.termination_step)
        elapsed = perf_counter() - t0
        assert elapsed < 5.0
        assert statistics.median(steps) <= 9


def test_criterion_10_oracle_identity_and_replay(announce, tmp_path):
    label = "bare-loop oracle matches production bitwise; manifests replay bytes"
    with announce(10, label):
        rng = random.Random(246)
        for _ in range(200):
            x = rand_exact_matrix(rng, rng.randint(1, 10), rng.randint(1, 4))
            eps = rand_exact_epsilon(rng)
            xf = to_float_matrix(x)
            ef = float(eps)
            for model, step in (("ave", ave_step), ("uniform", uniform_step)):
                assert (
                    naive_model_step(x, eps, model).entries
                    == step(x, eps).next_state.entries
                )
                assert (
                    naive_model_step(xf, ef, model).entries
                    == step(xf, ef).next_state.entries
                )

        # a recorded run replays byte for byte from its manifest alone
        args = [
            "run",
            "--model",
            "ave",
            "--epsilon",
            "3/5",
            "--mode",
            "exact",
            "--agents",
            "8",
            "--topics",
            "3",
            "--box",
            "0",
            "4",
            "--seed",
            "21",
            "--max-steps",
            "200",
        ]
        assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
        assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
        original = (tmp_path / "a" / "trajectory.jsonl").read_bytes()
        assert original == (tmp_path / "b" / "trajectory.jsonl").read_bytes()

        from hkmulti.cli import RunManifest
        from hkmulti.serialize import read_json

        manifest = RunManifest.from_dict(read_json(tmp_path / "a" / "manifest.json"))
        replay = run(manifest.config(), manifest.initial_state())
        replayed = ("\n".join(trajectory_lines(replay)) + "\n").encode("utf-8")
        assert replayed == original
        assert main(["verify", "--run-dir", str(tmp_path / "a")]) == 0
