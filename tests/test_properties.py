import dataclasses
import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hkmulti import (
    InfluenceMatrix,
    NumericPolicy,
    OpinionMatrix,
    SimulationConfig,
    StepReport,
    Trajectory,
    ave_step,
    check_trajectory,
    classify_run,
    contraction_factor,
    disagreement_seminorm,
    globally_ordered,
    induced_seminorm_bruteforce,
    naive_model_step,
    one_step_preservation_hypothesis,
    row_average,
    run,
    sample_initial,
    scalar_hk_step,
    uniform_step,
)
from hkmulti import properties
from hkmulti.core import distinct, mask_members, mask_runs, topic_hulls
from hkmulti.serialize import trajectory_lines
from hkmulti.oracle import (
    RowStochasticMatrix,
    induced_disagreement_seminorm,
    matrix_apply,
    row_normalize,
)

EXACT = NumericPolicy.exact()

tenths = st.integers(-20, 40).map(lambda k: Fraction(k, 10))
epsilons = st.integers(1, 15).map(lambda k: Fraction(k, 10))


@st.composite
def exact_matrices(draw, max_agents=6, max_topics=3):
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(1, max_topics))
    rows = draw(
        st.lists(
            st.lists(tenths, min_size=m, max_size=m), min_size=n, max_size=n
        )
    )
    return OpinionMatrix(tuple(tuple(r) for r in rows))


@st.composite
def stochastic_matrices(draw, max_agents=6):
    n = draw(st.integers(1, max_agents))
    rows = []
    for _ in range(n):
        weights = draw(
            st.lists(st.integers(0, 5), min_size=n, max_size=n).filter(
                lambda w: sum(w) > 0
            )
        )
        total = sum(weights)
        rows.append(tuple(Fraction(w, total) for w in weights))
    return RowStochasticMatrix(tuple(rows))


@st.composite
def column_sorted_matrices(draw, max_agents=6, max_topics=3):
    n = draw(st.integers(1, max_agents))
    m = draw(st.integers(1, max_topics))
    cols = [
        sorted(draw(st.lists(tenths, min_size=n, max_size=n))) for _ in range(m)
    ]
    return OpinionMatrix(tuple(tuple(cols[j][i] for j in range(m)) for i in range(n)))


@given(st.lists(tenths, min_size=1, max_size=8), tenths)
def test_seminorm_axioms(values, scale):
    vec = tuple(values)
    s = disagreement_seminorm(vec)
    assert s >= 0
    assert (s == 0) == (len(set(vec)) == 1)
    assert disagreement_seminorm(tuple(v + Fraction(7, 3) for v in vec)) == s
    assert disagreement_seminorm(tuple(scale * v for v in vec)) == abs(scale) * s


@given(st.lists(tenths, min_size=1, max_size=8), st.data())
def test_seminorm_subadditive(values, data):
    other = data.draw(
        st.lists(tenths, min_size=len(values), max_size=len(values))
    )
    lhs = disagreement_seminorm(tuple(a + b for a, b in zip(values, other)))
    assert lhs <= disagreement_seminorm(tuple(values)) + disagreement_seminorm(
        tuple(other)
    )


@given(stochastic_matrices())
def test_induced_seminorm_closed_form_equals_bruteforce(a):
    closed = induced_disagreement_seminorm(a)
    assert closed == induced_seminorm_bruteforce(a.entries)
    assert 0 <= closed <= 1
    assert (closed == 0) == (len(set(a.entries)) == 1)


@given(stochastic_matrices(), st.data())
def test_induced_seminorm_is_submultiplicative(a, data):
    n = a.n_agents
    values = data.draw(st.lists(tenths, min_size=n, max_size=n))
    x = OpinionMatrix(tuple((v,) for v in values))
    mixed = matrix_apply(a, x)
    lhs = disagreement_seminorm(mixed.column(0))
    rhs = induced_disagreement_seminorm(a) * disagreement_seminorm(tuple(values))
    assert lhs <= rhs


@given(exact_matrices(), epsilons)
def test_step_reports_are_internally_consistent(x, eps):
    for step in (ave_step, uniform_step):
        report = step(x, eps)
        phi = report.influence
        assert all(phi.entries[i][i] == 1 for i in range(x.n_agents))
        assert all(
            phi.entries[i][k] == phi.entries[k][i]
            for i in range(x.n_agents)
            for k in range(x.n_agents)
        )
        averaging = row_normalize(phi)
        for row in averaging.entries:
            assert sum(row) == 1
        expected = matrix_apply(averaging, x)
        assert report.next_state.entries == expected.entries


@given(exact_matrices(), epsilons)
def test_ranges_and_hull_shrink(x, eps):
    for step in (ave_step, uniform_step):
        after = step(x, eps).next_state
        for j in range(x.n_topics):
            before_col = x.column(j)
            after_col = after.column(j)
            assert disagreement_seminorm(after_col) <= disagreement_seminorm(before_col)
            assert min(after_col) >= min(before_col)
            assert max(after_col) <= max(before_col)


@given(exact_matrices(), epsilons)
def test_contraction_bound_per_step(x, eps):
    report = ave_step(x, eps)
    gamma = contraction_factor(report.influence, exact=True)
    for j in range(x.n_topics):
        lhs = disagreement_seminorm(report.next_state.column(j))
        assert lhs <= gamma * disagreement_seminorm(x.column(j))


@given(exact_matrices(), epsilons)
def test_means_follow_scalar_dynamics(x, eps):
    report = ave_step(x, eps)
    assert row_average(report.next_state).values == scalar_hk_step(
        row_average(x).values, eps
    )


# values from a small pool repeat, as means do once clusters merge;
# quarter-grid values and epsilons put neighbors exactly at epsilon
@st.composite
def pooled_scalars(draw, opinions):
    pool = draw(st.lists(opinions, min_size=1, max_size=6))
    return draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))


quarters = st.integers(-8, 8).map(lambda k: Fraction(k, 4))
quarter_epsilons = st.integers(1, 16).map(lambda k: Fraction(k, 4))


@settings(max_examples=300)
@given(pooled_scalars(quarters), quarter_epsilons)
def test_reduction_windows_equal_the_oracle_exactly(values, eps):
    assert properties._scalar_hk_step(values, eps) == scalar_hk_step(values, eps)


def test_reduction_windows_cover_ties_and_single_agents():
    assert properties._scalar_hk_step((5,), 1) == (5,)
    # 0 and 1 sit exactly epsilon apart, 3 is alone; each repeat counts
    values = (0, 1, 1, 3, 0, 1)
    expected = (Fraction(3, 5),) * 3 + (3,) + (Fraction(3, 5),) * 2
    assert properties._scalar_hk_step(values, 1) == expected
    assert scalar_hk_step(values, 1) == expected


@settings(max_examples=300)
@given(
    pooled_scalars(
        st.one_of(
            quarters.map(float), st.sampled_from([0.0, -0.0]), st.floats(-2, 2)
        )
    ),
    quarter_epsilons.map(float),
)
def test_reduction_windows_agree_with_the_oracle_in_float(values, eps):
    fast = properties._scalar_hk_step(values, eps)
    naive = scalar_hk_step(values, eps)
    assert len(fast) == len(naive)
    assert all(abs(p - q) <= properties.FLOAT_REDUCTION_TOL for p, q in zip(fast, naive))


@given(exact_matrices(), epsilons)
def test_naive_oracle_matches_production(x, eps):
    assert naive_model_step(x, eps, "ave").entries == ave_step(x, eps).next_state.entries
    assert (
        naive_model_step(x, eps, "uniform").entries
        == uniform_step(x, eps).next_state.entries
    )
    xf = OpinionMatrix(tuple(tuple(float(v) for v in row) for row in x.entries))
    ef = float(eps)
    assert naive_model_step(xf, ef, "ave").entries == ave_step(xf, ef).next_state.entries
    assert (
        naive_model_step(xf, ef, "uniform").entries
        == uniform_step(xf, ef).next_state.entries
    )


@given(exact_matrices(), epsilons)
def test_average_based_step_preserves_mean_order(x, eps):
    before = row_average(x).values
    after = row_average(ave_step(x, eps).next_state).values
    for i in range(len(before)):
        for k in range(len(before)):
            if before[i] <= before[k]:
                assert after[i] <= after[k]


@given(exact_matrices(), epsilons)
def test_conditional_one_step_order_preservation(x, eps):
    if not one_step_preservation_hypothesis(x, eps):
        return
    after = uniform_step(x, eps).next_state
    for j in range(x.n_topics):
        for i in range(x.n_agents):
            for k in range(x.n_agents):
                if x.entries[i][j] <= x.entries[k][j]:
                    assert after.entries[i][j] <= after.entries[k][j]


@given(column_sorted_matrices(), epsilons)
def test_global_order_persists(x, eps):
    perm = globally_ordered(x)
    assert perm is not None
    after = uniform_step(x, eps).next_state
    for j in range(after.n_topics):
        col = [after.entries[i][j] for i in perm]
        assert all(a <= b for a, b in zip(col, col[1:]))
    assert globally_ordered(after) is not None


@given(exact_matrices(max_agents=5, max_topics=2))
def test_globally_ordered_complete_against_bruteforce(x):
    fast = globally_ordered(x)
    valid = []
    for perm in itertools.permutations(range(x.n_agents)):
        ok = all(
            x.entries[perm[r]][j] <= x.entries[perm[r + 1]][j]
            for j in range(x.n_topics)
            for r in range(x.n_agents - 1)
        )
        if ok:
            valid.append(perm)
    assert (fast is None) == (not valid)
    if fast is not None:
        assert fast in valid


@settings(max_examples=30, deadline=None)
@given(exact_matrices(), epsilons, st.sampled_from(["ave", "uniform"]))
def test_full_trajectories_satisfy_all_invariants(x, eps, model):
    config = SimulationConfig(model, eps, 200, EXACT)
    traj = run(config, x)
    assert traj.terminated
    assert check_trajectory(traj) == []


def test_averaging_check_ties_the_matrix_to_the_transition():
    # float rounding of the two summation orders grows with the opinions;
    # the check's slack must grow with them (an absolute 1e-12 fails here)
    policy = NumericPolicy.floating()
    initial = sample_initial(30, 2, (-1e4, 1e4), 1, policy)
    traj = run(SimulationConfig("uniform", 3000.0, 50, policy), initial)
    assert check_trajectory(traj, ["averaging-matrix"]) == []
    # a transition that is not the averaging matrix applied is caught
    swapped = traj.states[:1] + (traj.states[0],) + traj.states[2:]
    broken = dataclasses.replace(traj, states=swapped)
    assert check_trajectory(broken, ["averaging-matrix"])[0] == (
        "averaging-matrix: step 0: next state is not the averaging matrix applied"
    )


# rows from a small pool repeat, as after clusters merge; quarter-grid
# opinions and epsilons put neighbors exactly at epsilon
@st.composite
def pooled_states(draw):
    exact = draw(st.booleans())
    m = draw(st.integers(1, 3))
    quarters = st.integers(-8, 8).map(lambda k: Fraction(k, 4) if exact else k / 4)
    opinions = quarters if exact else st.one_of(quarters, st.floats(-2, 2))
    pool = draw(st.lists(st.tuples(*[opinions] * m), min_size=1, max_size=6))
    n = draw(st.integers(1, 40))
    rows = draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n))
    epsilon = Fraction(draw(st.integers(1, 16)), 4)
    return OpinionMatrix(tuple(rows)), epsilon if exact else float(epsilon), exact


@settings(max_examples=150, deadline=None)
@given(pooled_states())
def test_averaging_check_equals_the_dense_product(case):
    # the check's sparse product against the oracle's dense A @ X: equal
    # entry for entry in exact mode (its slack is 0), within its scaled
    # slack in float mode
    x, epsilon, exact = case
    policy = EXACT if exact else NumericPolicy.floating()
    for model, step in (("ave", ave_step), ("uniform", uniform_step)):
        influence = step(x, epsilon).influence
        dense = matrix_apply(row_normalize(influence, exact), x)
        config = SimulationConfig(model, epsilon, 1, policy)
        traj = Trajectory(config, (x, dense), (StepReport(dense, influence),), False, None)
        assert check_trajectory(traj, ["averaging-matrix"]) == []


def test_terminal_classification_steps_the_final_state_itself():
    # the last two states are equal, but ((0,), (1,)) steps to their mean:
    # the check must not take the run's termination step on trust
    x = OpinionMatrix(((0,), (1,)))
    report = ave_step(x, 1)
    assert report.next_state != x
    config = SimulationConfig("ave", 1, 5, EXACT)
    traj = Trajectory(config, (x, x), (StepReport(x, report.influence),), True, 0)
    assert check_trajectory(traj, ["terminal-classification"]) == [
        "terminal-classification: classifier does not accept the final state as a fixed point"
    ]


def _drop_pair(phi, i, k):
    """``phi`` without the symmetric link between agents i and k."""
    adjacency = [list(row) for row in phi.entries]
    adjacency[i][k] = adjacency[k][i] = 0
    rows, labels = distinct(map(tuple, adjacency))
    links = [{labels[j] for j, linked in enumerate(row) if linked} for row in rows]
    return InfluenceMatrix(labels, [mask_runs(sum(1 << d for d in ds)) for ds in links])


@pytest.mark.parametrize("model", ["ave", "uniform"])
def test_averaging_check_catches_exact_tampering(model):
    initial = sample_initial(12, 2, (-1, 1), 4, EXACT)
    traj = run(SimulationConfig(model, Fraction(3, 5), 50, EXACT), initial)
    assert check_trajectory(traj, ["averaging-matrix"]) == []
    message = "averaging-matrix: step 0: next state is not the averaging matrix applied"
    # one entry of the next state moved by 1/7
    rows = [list(row) for row in traj.states[1].entries]
    rows[0][0] += Fraction(1, 7)
    moved = traj.states[:1] + (OpinionMatrix(tuple(map(tuple, rows))),) + traj.states[2:]
    broken = dataclasses.replace(traj, states=moved)
    assert check_trajectory(broken, ["averaging-matrix"])[0] == message
    # agent 1 and one of its neighbors drop their link in the first
    # step's influence, and the next state stays the same
    report = traj.reports[0]
    phi = report.influence
    other = next(k for k in mask_members(phi.neighbor_sets()[phi.labels[0]]) if k != 0)
    dropped = dataclasses.replace(report, influence=_drop_pair(report.influence, 0, other))
    broken = dataclasses.replace(traj, reports=(dropped,) + traj.reports[1:])
    assert check_trajectory(broken, ["averaging-matrix"])[0] == message


@pytest.mark.parametrize(
    "policy, epsilon, move, caught",
    [
        (EXACT, Fraction(3, 20), Fraction(1, 10**30), True),
        (NumericPolicy.floating(), 0.15, 1e-6, True),
        (NumericPolicy.floating(), 0.15, 1e-11, False),
    ],
    ids=["exact", "float", "float-within-tolerance"],
)
def test_average_reduction_catches_a_moved_mean(policy, epsilon, move, caught):
    initial = sample_initial(20, 2, (-1, 1), 1, policy)
    traj = run(SimulationConfig("ave", epsilon, 50, policy), initial)
    assert traj.n_steps > 2
    assert check_trajectory(traj, ["average-reduction"]) == []
    # every opinion of agent 1 in state 2 moves, so its mean moves as much
    rows = [list(row) for row in traj.states[2].entries]
    rows[0] = [v + move for v in rows[0]]
    moved = traj.states[:2] + (OpinionMatrix(tuple(map(tuple, rows))),) + traj.states[3:]
    found = check_trajectory(dataclasses.replace(traj, states=moved), ["average-reduction"])
    message = "average-reduction: step 1: means do not follow the scalar dynamics"
    assert (message in found) == caught


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_average_reduction_scales_its_tolerance_with_the_opinions(seed):
    # an absolute 1e-9 tolerance flagged 3 of these 5 valid runs
    scale = 1e7
    policy = NumericPolicy.floating()
    initial = sample_initial(60, 3, (-scale, scale), seed, policy)
    traj = run(SimulationConfig("ave", 0.15 * scale, 50, policy), initial)
    assert traj.n_steps > 1
    assert check_trajectory(traj, ["average-reduction"]) == []
    # a move of 1e-6 times the scale is still caught
    rows = [list(row) for row in traj.states[1].entries]
    rows[0] = [v + 1e-6 * scale for v in rows[0]]
    moved = traj.states[:1] + (OpinionMatrix(tuple(map(tuple, rows))),) + traj.states[2:]
    found = check_trajectory(dataclasses.replace(traj, states=moved), ["average-reduction"])
    assert "average-reduction: step 0: means do not follow the scalar dynamics" in found


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_float_checks_scale_their_slack_with_the_opinions(seed):
    # at consensus float gamma rounds just below 0, so an absolute 1e-12
    # slack reported "spread 0.0 exceeds bound -1.3e-12" on these valid runs
    policy = NumericPolicy.floating()
    initial = sample_initial(60, 2, (-3000, 3000), seed, policy)
    traj = run(SimulationConfig("ave", 1800.0, 50, policy), initial)
    assert traj.terminated
    assert check_trajectory(traj) == []
    # a real widening of 1e-6 times the opinion scale is still caught
    before = traj.states[-2]
    scale = max(abs(v) for row in before.entries for v in row)
    rows = [list(row) for row in traj.states[-1].entries]
    rows[0][0] = max(before.column(0)) + 1e-6 * scale
    nudged = traj.states[:-1] + (OpinionMatrix(tuple(map(tuple, rows))),)
    broken = dataclasses.replace(traj, states=nudged)
    for name in ("contraction", "range-monotone", "box-confinement"):
        assert check_trajectory(broken, [name]), name


def test_mean_checks_average_each_state_once(monkeypatch):
    # the four mean-based checks share one row_average per state; the
    # classifier, which two of them call, works on its own and is not counted
    checks = ["average-order", "average-reduction", "max-gap-stationary", "epsilon-chain-link"]
    initial = sample_initial(20, 2, (-1, 1), 1, EXACT)
    traj = run(SimulationConfig("ave", Fraction(3, 20), 50, EXACT), initial)
    assert traj.terminated
    calls = []
    classifying = []

    def counted(x):
        if not classifying:
            calls.append(id(x))
        return row_average(x)

    def classify(traj):
        classifying.append(True)
        try:
            return classify_run(traj)
        finally:
            classifying.pop()

    for name, module in list(sys.modules.items()):
        if name.startswith("hkmulti") and getattr(module, "row_average", None) is row_average:
            monkeypatch.setattr(module, "row_average", counted)
    monkeypatch.setattr(properties, "classify_run", classify)
    assert check_trajectory(traj, checks) == []
    assert check_trajectory(traj, checks) == []
    assert sorted(calls) == sorted(map(id, traj.states))


@pytest.mark.parametrize(
    "policy, epsilon",
    [(EXACT, Fraction(3, 20)), (NumericPolicy.floating(), 0.15)],
    ids=["exact", "float"],
)
def test_writer_and_checks_share_gamma_and_hulls(monkeypatch, policy, epsilon):
    # the JSONL writer and the three range checks read Trajectory.gammas
    # and Trajectory.hulls: one gamma per step, one hull per state
    initial = sample_initial(20, 2, (-1, 1), 1, policy)
    traj = run(SimulationConfig("ave", epsilon, 50, policy), initial)
    assert traj.terminated and traj.n_steps > 2
    gammas = []
    hulls = []

    def counted(calls, fn):
        def wrapper(arg, *rest):
            calls.append(id(arg))
            return fn(arg, *rest)

        return wrapper

    for name, module in list(sys.modules.items()):
        if not name.startswith("hkmulti"):
            continue
        if getattr(module, "contraction_factor", None) is contraction_factor:
            monkeypatch.setattr(module, "contraction_factor", counted(gammas, contraction_factor))
        if getattr(module, "topic_hulls", None) is topic_hulls:
            monkeypatch.setattr(module, "topic_hulls", counted(hulls, topic_hulls))
    trajectory_lines(traj)
    assert check_trajectory(traj) == []
    assert check_trajectory(traj) == []
    assert sorted(gammas) == sorted(id(report.influence) for report in traj.reports)
    assert sorted(hulls) == sorted(map(id, traj.states))
