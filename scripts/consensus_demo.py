# Run one seeded opinion trajectory and narrate it step by step:
# per-topic ranges, the spread of the agent means, termination, and the
# final consensus/clustering verdict.  The same initial state is then
# replayed under the other neighbor rule so the two models can be
# compared on identical data.

import argparse
import sys

from hkmulti import (
    MODEL_AVE,
    MODEL_UNIFORM,
    NumericPolicy,
    SimulationConfig,
    classify_run,
    check_trajectory,
    disagreement_seminorm,
    partition_lists,
    row_average,
    run,
    sample_initial,
    topic_range,
)
from hkmulti.core import check_epsilon


def narrate(traj, label):
    print(f"== {label} ==")
    for t, state in enumerate(traj.states):
        ranges = [topic_range(state, j) for j in range(state.n_topics)]
        spread = disagreement_seminorm(row_average(state).values)
        cells = " ".join(f"{float(r):.4f}" for r in ranges)
        print(f"step {t:3d}  mean spread {float(spread):.4f}  topic ranges {cells}")
    if traj.terminated:
        print(f"reached a fixed point at step {traj.termination_step}")
    else:
        print(f"no fixed point within {traj.config.max_steps} steps")

    report = classify_run(traj)
    print(f"outcome: {report.outcome}")
    if report.partition is not None:
        print(f"groups (1-based agents): {partition_lists(report.partition)}")
        means = " ".join(f"{float(v):.4f}" for v in report.cluster_averages)
        print(f"group mean values: {means}")
    problems = check_trajectory(traj)
    print(f"invariant checks: {'all clean' if not problems else problems}")
    print()
    return report


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--agents", type=int, default=10)
    ap.add_argument("--topics", type=int, default=2)
    ap.add_argument("--epsilon", default="0.8", help="confidence bound, e.g. 0.8 or 4/5")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--box", type=float, nargs=2, default=(-1.0, 1.0))
    ap.add_argument("--max-steps", type=int, default=100)
    ap.add_argument("--mode", choices=("exact", "float"), default="float")
    args = ap.parse_args()

    policy = NumericPolicy.exact() if args.mode == "exact" else NumericPolicy.floating()
    # parsed as hkmulti run does: "0.8" is exactly 4/5 in exact mode
    try:
        epsilon = policy.coerce(args.epsilon)
        check_epsilon(epsilon)
    except ValueError as exc:
        ap.error(f"bad --epsilon {args.epsilon!r}: {exc}")
    initial = sample_initial(args.agents, args.topics, tuple(args.box), args.seed, policy)

    for model in (MODEL_UNIFORM, MODEL_AVE):
        config = SimulationConfig(model, epsilon, args.max_steps, policy)
        traj = run(config, initial)
        narrate(traj, f"{model} model, epsilon {args.epsilon}, seed {args.seed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
