"""Multi-topic bounded-confidence opinion dynamics.

Two synchronous models over an N x m opinion matrix: one where agents
trust everyone whose mean opinion is close to theirs, and one where
trust requires closeness on every topic at once.  The package bundles
the dynamics, contraction and ordering diagnostics, steady-state
classification, a reproducible trajectory engine, independent oracle
implementations, and a command line front end.
"""

__version__ = "0.1.0"

from .analysis import (
    OUTCOME_CLUSTERING,
    OUTCOME_CONSENSUS,
    OUTCOME_NOT_TERMINATED,
    OutcomeReport,
    Partition,
    classify_outcome,
    classify_run,
    cluster_means,
    opinion_partition,
    per_topic_partition,
    refines,
)
from .avemodel import (
    ave_neighbors,
    ave_step,
    is_epsilon_chain,
    max_average_gap,
)
from .core import (
    MODE_EXACT,
    MODE_FLOAT,
    MODEL_AVE,
    MODEL_UNIFORM,
    AverageVector,
    InfluenceMatrix,
    NumericPolicy,
    OpinionMatrix,
    PropertyViolation,
    StepReport,
    contraction_factor,
    disagreement_seminorm,
    row_average,
    topic_range,
)
from .oracle import (
    RowStochasticMatrix,
    induced_disagreement_seminorm,
    induced_seminorm_bruteforce,
    matrix_apply,
    naive_model_step,
    row_normalize,
    scalar_hk_step,
)
from .properties import ALL_CHECKS, check_trajectory
from .serialize import partition_lists, run_row
from .sim import (
    SimulationConfig,
    Trajectory,
    batch_run,
    run,
    sample_initial,
)
from .uniform import (
    globally_ordered,
    linf_neighbors,
    one_step_preservation_hypothesis,
    uniform_step,
)

__all__ = [
    "__version__",
    "MODE_EXACT",
    "MODE_FLOAT",
    "MODEL_AVE",
    "MODEL_UNIFORM",
    "OUTCOME_CLUSTERING",
    "OUTCOME_CONSENSUS",
    "OUTCOME_NOT_TERMINATED",
    "ALL_CHECKS",
    "AverageVector",
    "InfluenceMatrix",
    "NumericPolicy",
    "OpinionMatrix",
    "OutcomeReport",
    "Partition",
    "PropertyViolation",
    "RowStochasticMatrix",
    "SimulationConfig",
    "StepReport",
    "Trajectory",
    "ave_neighbors",
    "ave_step",
    "batch_run",
    "check_trajectory",
    "classify_outcome",
    "classify_run",
    "cluster_means",
    "contraction_factor",
    "disagreement_seminorm",
    "globally_ordered",
    "induced_disagreement_seminorm",
    "induced_seminorm_bruteforce",
    "is_epsilon_chain",
    "linf_neighbors",
    "matrix_apply",
    "max_average_gap",
    "naive_model_step",
    "one_step_preservation_hypothesis",
    "opinion_partition",
    "partition_lists",
    "per_topic_partition",
    "refines",
    "row_average",
    "row_normalize",
    "run",
    "run_row",
    "sample_initial",
    "scalar_hk_step",
    "topic_range",
    "uniform_step",
]
