"""Trajectory engine: run either model to a fixed point or a step budget.

Runs are pure functions of (config, initial state), and initial states
drawn from a box are pure functions of the seed, so any trajectory can
be reproduced bit for bit from those ingredients.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Optional, Sequence, TypeVar

from .avemodel import ave_step
from .core import (
    MODEL_AVE,
    MODEL_KINDS,
    AverageVector,
    NumericPolicy,
    OpinionMatrix,
    Scalar,
    StepReport,
    check_epsilon,
    contraction_factor,
    is_finite,
    matrices_close,
    row_average,
    topic_hulls,
)
from .uniform import uniform_step

# name recorded in manifests for the box sampler below
GENERATOR_NAME = "python-random-mt19937"

R = TypeVar("R")


def model_step(model: str) -> Callable[[OpinionMatrix, Scalar], StepReport]:
    """The one-step update of a model name."""
    if model not in MODEL_KINDS:
        raise ValueError(f"unknown model {model!r}")
    return ave_step if model == MODEL_AVE else uniform_step


@dataclass(frozen=True)
class SimulationConfig:
    model: str
    epsilon: Scalar
    max_steps: int
    policy: NumericPolicy

    def __post_init__(self) -> None:
        model_step(self.model)  # rejects unknown model names
        check_epsilon(self.epsilon)
        if self.max_steps < 0:
            raise ValueError("max_steps must be nonnegative")


@dataclass(frozen=True)
class Trajectory:
    """States visited plus the per-step reports that produced them.

    ``states[t+1]`` is ``reports[t].next_state``.  When the run reaches a
    fixed point the duplicate terminal state is kept, so
    ``termination_step`` is the first index t with
    ``states[t+1] == states[t]`` (within tau_fix).
    """

    config: SimulationConfig
    states: tuple[OpinionMatrix, ...]
    reports: tuple[StepReport, ...]
    terminated: bool
    termination_step: Optional[int]

    @property
    def n_steps(self) -> int:
        return len(self.reports)

    @property
    def final_state(self) -> OpinionMatrix:
        return self.states[-1]

    @cached_property
    def means(self) -> tuple[AverageVector, ...]:
        """Each state's per-agent means, computed on first use and kept."""
        return tuple(map(row_average, self.states))

    @cached_property
    def hulls(self) -> tuple[tuple[tuple[Scalar, Scalar], ...], ...]:
        """Each state's per-topic (min, max), computed on first use and kept."""
        return tuple(map(topic_hulls, self.states))

    @cached_property
    def gammas(self) -> tuple[Scalar, ...]:
        """Each step's contraction factor, computed on first use and kept."""
        exact = self.config.policy.is_exact
        return tuple(contraction_factor(r.influence, exact) for r in self.reports)


def run(config: SimulationConfig, initial: OpinionMatrix) -> Trajectory:
    """Iterate the configured model from ``initial``.

    The initial state is re-coerced under the config's numeric policy so
    the whole trajectory lives in one arithmetic regime.  Stops at the
    first fixed point or after max_steps updates, whichever comes first.
    """
    step = model_step(config.model)
    policy = config.policy
    states = [OpinionMatrix(policy.coerce_rows(initial.entries))]
    reports: list[StepReport] = []
    terminated = False
    termination_step: Optional[int] = None
    for t in range(config.max_steps):
        report = step(states[-1], config.epsilon)
        reports.append(report)
        states.append(report.next_state)
        if matrices_close(states[-1], states[-2], policy.tau_fix):
            terminated = True
            termination_step = t
            break
    return Trajectory(
        config=config,
        states=tuple(states),
        reports=tuple(reports),
        terminated=terminated,
        termination_step=termination_step,
    )


def sample_initial(
    n_agents: int,
    n_topics: int,
    box: Sequence,
    seed: int,
    policy: NumericPolicy,
) -> OpinionMatrix:
    """Draw an initial state uniformly from a per-topic box.

    ``box`` is one (lo, hi) pair applied to every topic, or one pair per
    topic.  Sampling always runs in float row-major order from a seeded
    Mersenne Twister stream and is coerced under the policy afterwards,
    so exact and float runs from the same seed start from the same
    (dyadic) values.
    """
    if n_agents < 1 or n_topics < 1:
        raise ValueError("need at least one agent and one topic")
    bounds = normalize_box(box, n_topics)
    rng = random.Random(seed)
    rows = []
    for _ in range(n_agents):
        row = []
        for lo, hi in bounds:
            row.append(lo + (hi - lo) * rng.random())
        rows.append(tuple(row))
    return OpinionMatrix(policy.coerce_rows(rows))


def normalize_box(box: Sequence, n_topics: int) -> tuple[tuple[float, float], ...]:
    """Expand a box spec to one float (lo, hi) pair per topic."""
    items = list(box)
    if len(items) == 2 and all(isinstance(v, (int, float)) for v in items):
        items = [items] * n_topics
    if len(items) != n_topics:
        raise ValueError(f"expected {n_topics} (lo, hi) pairs, got {len(items)}")
    bounds = []
    for pair in items:
        lo, hi = (float(v) for v in pair)
        if not (is_finite(lo) and is_finite(hi)) or lo > hi:
            raise ValueError(f"bad interval ({lo}, {hi})")
        bounds.append((lo, hi))
    return tuple(bounds)


def batch_run(
    jobs: Iterable[tuple[SimulationConfig, OpinionMatrix]],
    reduce: Callable[[Trajectory], R],
) -> list[R]:
    """Run jobs one after another and reduce each trajectory as it ends.

    ``jobs`` may be a generator, so a job's initial state is drawn when
    its run starts, and each trajectory is dropped once ``reduce`` has
    turned it into what the caller keeps (a summary row, say): a sweep
    holds one trajectory at a time.  ``reduce`` is a callback because the
    classifier lives in ``analysis``, which imports this module.  A plain
    loop: the steps are pure Python, so threads would only take turns on
    the GIL.
    """
    return [reduce(run(config, x)) for config, x in jobs]
