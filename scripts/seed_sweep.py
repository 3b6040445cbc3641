# Sweep a block of seeds at one configuration and tabulate how runs end:
# termination-step histogram, outcome counts, and cluster-count counts.
# Optionally dumps one CSV row per seed for external analysis.

import argparse
import csv
import sys
from collections import Counter

from hkmulti import (
    NumericPolicy,
    SimulationConfig,
    batch_run,
    run_row,
    sample_initial,
)
from hkmulti.core import check_epsilon
from hkmulti.serialize import RUN_ROW_FIELDS


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--model", choices=("ave", "uniform"), default="uniform")
    ap.add_argument("--agents", type=int, default=10)
    ap.add_argument("--topics", type=int, default=2)
    ap.add_argument("--epsilon", default="0.8", help="confidence bound, e.g. 0.8 or 4/5")
    ap.add_argument("--seeds", type=int, default=100, help="runs seeds 0..N-1")
    ap.add_argument("--box", type=float, nargs=2, default=(-1.0, 1.0))
    ap.add_argument("--max-steps", type=int, default=200)
    ap.add_argument("--mode", choices=("exact", "float"), default="float")
    ap.add_argument("--out", default=None, help="optional per-seed CSV path")
    args = ap.parse_args()
    if args.seeds < 1:
        ap.error(f"--seeds must be at least 1, got {args.seeds}")

    policy = NumericPolicy.exact() if args.mode == "exact" else NumericPolicy.floating()
    # parsed as hkmulti run does: "0.8" is exactly 4/5 in exact mode
    try:
        epsilon = policy.coerce(args.epsilon)
        check_epsilon(epsilon)
    except ValueError as exc:
        ap.error(f"bad --epsilon {args.epsilon!r}: {exc}")
    config = SimulationConfig(args.model, epsilon, args.max_steps, policy)
    jobs = (
        (config, sample_initial(args.agents, args.topics, tuple(args.box), seed, policy))
        for seed in range(args.seeds)
    )
    rows = [{"seed": seed, **row} for seed, row in enumerate(batch_run(jobs, run_row))]
    outcomes = Counter(r["outcome"] for r in rows)
    steps = Counter(r["termination_step"] for r in rows if r["terminated"])
    cluster_counts = Counter(r["n_clusters"] for r in rows if r["n_clusters"] is not None)

    print(
        f"{args.seeds} runs, {args.model} model, epsilon {args.epsilon}, "
        f"{args.agents} agents, {args.topics} topics, {args.mode} mode"
    )
    print("outcomes:", dict(sorted(outcomes.items())))
    print("termination steps:", dict(sorted(steps.items())))
    print("cluster counts:", dict(sorted(cluster_counts.items())))

    if args.out:
        with open(args.out, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(fh, fieldnames=["seed", *RUN_ROW_FIELDS])
            writer.writeheader()
            writer.writerows(rows)
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
