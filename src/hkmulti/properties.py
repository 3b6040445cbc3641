"""Named invariant checks over trajectories.

Each check returns a list of human-readable violation strings (empty
means the invariant held), so callers can aggregate across checks and
steps.  The verify subcommand and the test suite both run these; a
violation on real data means the implementation, not the data, is
wrong.

Strict inequalities are checked as stated on exact data.  On float data
they allow a 1e-12 slack, which checks over the opinions themselves
scale by the largest opinion (at least 1); checks that are only
meaningful in exact arithmetic skip float trajectories.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence

from .analysis import (
    OUTCOME_CONSENSUS,
    classify_outcome,
    classify_run,
    opinion_partition,
    per_topic_partition,
    refines,
)
from .avemodel import ave_neighbors, is_epsilon_chain, max_average_gap
from .core import (
    MODEL_AVE,
    OpinionMatrix,
    PropertyViolation,
    Scalar,
    left_sum,
    mask_members,
    matrices_close,
)
from .sim import Trajectory
from .uniform import linf_neighbors

FLOAT_SLACK = 1e-12
FLOAT_REDUCTION_TOL = 1e-9


def _slack(traj: Trajectory) -> Scalar:
    return 0 if traj.config.policy.is_exact else FLOAT_SLACK


def _opinion_scale(traj: Trajectory, t: int) -> Scalar:
    """Largest |opinion| of state ``t``, at least 1: float rounding grows with it."""
    # the largest |opinion| of a state is at an end of some topic's hull
    return max(1, max(abs(v) for hull in traj.hulls[t] for v in hull))


def _scaled_slack(traj: Trajectory, t: int) -> Scalar:
    """Slack for step ``t``."""
    return 0 if traj.config.policy.is_exact else FLOAT_SLACK * _opinion_scale(traj, t)


def _topic_steps(traj: Trajectory) -> Iterator[tuple]:
    """(t, j, slack, hull before, hull after) for each step t and topic j."""
    hulls = traj.hulls
    for t in range(traj.n_steps):
        slack = _scaled_slack(traj, t)
        for j, (before, after) in enumerate(zip(hulls[t], hulls[t + 1])):
            yield t, j, slack, before, after


def check_influence(traj: Trajectory) -> list[str]:
    """Recorded neighbor matrices match the model's neighbor rule."""
    rule = ave_neighbors if traj.config.model == MODEL_AVE else linf_neighbors
    out = []
    for t, report in enumerate(traj.reports):
        if rule(traj.states[t], traj.config.epsilon) != report.influence:
            out.append(f"step {t}: influence matrix disagrees with neighbor rule")
    return out


def check_averaging_step(traj: Trajectory) -> list[str]:
    """Each step applies the degree-normalized influence matrix to the state.

    Row i of that matrix puts weight 1/deg on each neighbor of i, so the
    product is taken over the agents of the recorded neighbor runs, once
    per class of agents with equal neighbors.  It sums weighted rows where
    the step divides a sum, so float results differ by rounding.
    """
    exact = traj.config.policy.is_exact
    out = []
    for t, report in enumerate(traj.reports):
        rows = traj.states[t].entries
        mixed = []
        for agents in map(mask_members, report.influence.neighbor_sets()):
            weight = Fraction(1, len(agents)) if exact else 1.0 / len(agents)
            nbrs = [rows[k] for k in agents]
            mixed.append(tuple(sum(weight * v for v in col) for col in zip(*nbrs)))
        applied = OpinionMatrix(tuple(map(mixed.__getitem__, report.influence.labels)))
        if not matrices_close(applied, traj.states[t + 1], _scaled_slack(traj, t)):
            out.append(f"step {t}: next state is not the averaging matrix applied")
    return out


def check_states_chain(traj: Trajectory) -> list[str]:
    """states[t+1] is exactly the next_state of report t."""
    out = []
    for t, report in enumerate(traj.reports):
        if report.next_state.entries != traj.states[t + 1].entries:
            out.append(f"step {t}: recorded state differs from step output")
    return out


def check_contraction(traj: Trajectory) -> list[str]:
    """Per-topic disagreement shrinks by at least the matrix seminorm factor."""
    if traj.config.model != MODEL_AVE:
        return []
    out = []
    for t, j, slack, (blo, bhi), (alo, ahi) in _topic_steps(traj):
        lhs = ahi - alo
        rhs = traj.gammas[t] * (bhi - blo)
        if lhs > rhs + slack:
            out.append(f"step {t} topic {j}: spread {lhs} exceeds bound {rhs}")
    return out


def check_range_monotone(traj: Trajectory) -> list[str]:
    """Per-topic opinion ranges never grow."""
    out = []
    for t, j, slack, (blo, bhi), (alo, ahi) in _topic_steps(traj):
        b, a = bhi - blo, ahi - alo
        if a > b + slack:
            out.append(f"step {t} topic {j}: range grew from {b} to {a}")
    return out


def check_box_confinement(traj: Trajectory) -> list[str]:
    """Per-topic min/max envelopes never widen (steps are convex mixes)."""
    out = []
    for t, j, slack, (blo, bhi), (alo, ahi) in _topic_steps(traj):
        if alo < blo - slack or ahi > bhi + slack:
            out.append(f"step {t} topic {j}: opinions left the previous hull")
    return out


def check_average_order(traj: Trajectory) -> list[str]:
    """Mean opinions never swap relative order (average-based model)."""
    if traj.config.model != MODEL_AVE:
        return []
    slack = _slack(traj)
    means = [m.values for m in traj.means]
    out = []
    for t, (before, after) in enumerate(zip(means, means[1:])):
        order = sorted(range(len(before)), key=lambda i: (before[i], i))
        prev = None
        for i in order:
            if prev is not None and after[i] < after[prev] - slack:
                out.append(f"step {t}: agents {prev + 1} and {i + 1} swapped mean order")
                break
            prev = i
    return out


def _scalar_hk_step(values: Sequence[Scalar], epsilon: Scalar) -> tuple[Scalar, ...]:
    """One bounded-confidence step on scalars, once per distinct value.

    Each value's neighbors are a window over the sorted distinct values
    (Blondel, Hendrickx & Tsitsiklis, IEEE TAC 2009), found with two
    pointers and the predicate of ``oracle.scalar_hk_step``.  A window's
    sum adds count x value left to right, which regroups an exact sum
    without changing it.  There are no prefix sums: in float mode a
    prefix difference can cancel past ``FLOAT_REDUCTION_TOL``.
    """
    counts = sorted(Counter(values).items())
    after = {}
    lo = hi = 0
    for a, _ in counts:
        while abs(a - counts[lo][0]) > epsilon:
            lo += 1
        while hi + 1 < len(counts) and abs(a - counts[hi + 1][0]) <= epsilon:
            hi += 1
        window = counts[lo : hi + 1]
        total = left_sum(k * v for v, k in window)
        after[a] = total / Fraction(sum(k for _, k in window))
    return tuple(map(after.__getitem__, values))


def check_average_reduction(traj: Trajectory) -> list[str]:
    """Means evolve by the one-dimensional dynamics on means (average-based model).

    The expected means come from the check's own window search, never
    from the step kernel's neighbor rule.

    Exact means must match exactly.  In float mode both sides are rounded
    sums: a recorded mean adds m topics of a row that averaged k neighbor
    rows, an expected one adds a window of k means, each of them m topics.
    A sum of n terms of size at most s, divided by n, is off by at most
    about gamma_n * s, where gamma_n = n*u / (1 - n*u) and u = 2**-53
    (Higham, *Accuracy and Stability of Numerical Algorithms*, 2nd ed.,
    2002, sections 3.1 and 4.2), so each side is within a few
    gamma_(k+m) * s of the exact means, s the largest |opinion| of the
    two states.  For k + m up to 10**5 that is below 1e-10 * s, so the
    tolerance is ``FLOAT_REDUCTION_TOL`` times that scale, and never
    less than ``FLOAT_REDUCTION_TOL``.
    """
    if traj.config.model != MODEL_AVE:
        return []
    exact = traj.config.policy.is_exact
    means = [m.values for m in traj.means]
    out = []
    for t, (before, got) in enumerate(zip(means, means[1:])):
        expected = _scalar_hk_step(before, traj.config.epsilon)
        scale = max(_opinion_scale(traj, t), _opinion_scale(traj, t + 1))
        tol = 0 if exact else FLOAT_REDUCTION_TOL * scale
        if any(abs(p - q) > tol for p, q in zip(expected, got)):
            out.append(f"step {t}: means do not follow the scalar dynamics")
    return out


def check_max_gap_stationary(traj: Trajectory) -> list[str]:
    """A repeated spread of the means stays fixed forever (exact, average-based).

    The spread is the largest pairwise mean gap; when it repeats across
    consecutive steps both extreme means are frozen.  A repeated positive
    value also rules out consensus at termination.
    """
    if traj.config.model != MODEL_AVE or not traj.config.policy.is_exact:
        return []
    gaps = list(map(max_average_gap, traj.means))
    out = []
    frozen_at: Optional[int] = None
    for t in range(len(gaps) - 1):
        if gaps[t] == gaps[t + 1]:
            frozen_at = t
            break
    if frozen_at is not None:
        for t in range(frozen_at, len(gaps)):
            if gaps[t] != gaps[frozen_at]:
                out.append(
                    f"max mean gap repeated at step {frozen_at} but changed at step {t}"
                )
                break
        if not out and gaps[frozen_at] > 0 and traj.terminated:
            if classify_run(traj).outcome == OUTCOME_CONSENSUS:
                out.append("positive stationary mean gap but consensus was reached")
    return out


def check_epsilon_chain_link(traj: Trajectory) -> list[str]:
    """Chained means characterize consensus (exact, average-based, terminated).

    The run ends in consensus iff the sorted means stay within epsilon of
    their neighbors at every step, iff they do so at the terminal state.
    """
    if (
        traj.config.model != MODEL_AVE
        or not traj.config.policy.is_exact
        or not traj.terminated
    ):
        return []
    eps = traj.config.epsilon
    consensus = classify_run(traj).outcome == OUTCOME_CONSENSUS
    chains = [is_epsilon_chain(m, eps) for m in traj.means]
    out = []
    if consensus != chains[-1]:
        out.append("terminal chain test disagrees with consensus outcome")
    if consensus != all(chains):
        out.append("per-step chain tests disagree with consensus outcome")
    if any(chains[t] and not chains[t - 1] for t in range(1, len(chains))):
        out.append("a broken chain reconnected")
    return out


def check_terminal_classification(traj: Trajectory) -> list[str]:
    """Terminated runs end in a state the classifier accepts as terminal.

    No termination step is passed, so the classifier steps the final
    state itself: an independent test of the fixed point that the run
    reported.
    """
    if not traj.terminated:
        return []
    out = []
    if not matrices_close(traj.states[-1], traj.states[-2], traj.config.policy.tau_fix):
        out.append("terminated flag set but last two states differ")
    try:
        report = classify_outcome(
            traj.final_state,
            traj.config.epsilon,
            traj.config.policy,
            traj.config.model,
        )
    except PropertyViolation as exc:
        return out + [str(exc)]
    if not report.terminated:
        out.append("classifier does not accept the final state as a fixed point")
    return out


def check_per_topic_refinement(traj: Trajectory) -> list[str]:
    """At a terminal state, per-topic groups are unions of full-row groups."""
    if not traj.terminated:
        return []
    policy = traj.config.policy
    final = traj.final_state
    full = opinion_partition(final, policy)
    out = []
    for j in range(final.n_topics):
        topicwise = per_topic_partition(final, j, policy)
        if not refines(full, topicwise):
            out.append(f"topic {j}: row clusters split across a per-topic group")
        if topicwise.n_blocks > full.n_blocks:
            out.append(f"topic {j}: more per-topic groups than row clusters")
    return out


ALL_CHECKS: dict[str, Callable[[Trajectory], list[str]]] = {
    "influence": check_influence,
    "averaging-matrix": check_averaging_step,
    "states-chain": check_states_chain,
    "contraction": check_contraction,
    "range-monotone": check_range_monotone,
    "box-confinement": check_box_confinement,
    "average-order": check_average_order,
    "average-reduction": check_average_reduction,
    "max-gap-stationary": check_max_gap_stationary,
    "epsilon-chain-link": check_epsilon_chain_link,
    "terminal-classification": check_terminal_classification,
    "per-topic-refinement": check_per_topic_refinement,
}


def check_trajectory(
    traj: Trajectory, names: Optional[Sequence[str]] = None
) -> list[str]:
    """Run the named checks (default: all) and collect every violation."""
    selected = list(ALL_CHECKS) if names is None else list(names)
    out = []
    for name in selected:
        try:
            fn = ALL_CHECKS[name]
        except KeyError:
            raise ValueError(f"unknown check {name!r}")
        out.extend(f"{name}: {msg}" for msg in fn(traj))
    return out
