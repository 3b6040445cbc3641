"""Command line front end.

Subcommands: run (one trajectory to disk), batch (seeded sweeps),
classify (label a state file), verify (replay a recorded run and check
invariants), plotdata (reshape a trajectory for plotting).

Exit codes: 0 success, 1 usage or input errors, 2 step budget exhausted
before a fixed point, 3 a structural property failed to hold.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, replace
from itertools import zip_longest
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .analysis import classify_outcome, classify_run
from .core import (
    MODE_EXACT,
    MODE_FLOAT,
    MODEL_KINDS,
    NumericPolicy,
    OpinionMatrix,
    PropertyViolation,
    Scalar,
    check_epsilon,
    row_average,
)
from .properties import check_trajectory
from .serialize import (
    json_int,
    json_rows,
    matrix_tokens,
    outcome_to_dict,
    read_json,
    read_matrix_csv,
    read_trajectory_jsonl,
    run_row,
    scalar_token,
    trajectory_lines,
    write_json,
    write_matrix_csv,
    write_trajectory_jsonl,
)
from .sim import (
    GENERATOR_NAME,
    SimulationConfig,
    Trajectory,
    batch_run,
    normalize_box,
    run,
    sample_initial,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_BUDGET = 2
EXIT_VIOLATION = 3

FORMAT_REVISION = 4
# largest START:END range that batch accepts
MAX_SEEDS = 100_000
MANIFEST_KEYS = ("model", "mode", "epsilon", "max_steps", "tolerances", "init")
TOLERANCE_KEYS = ("tau_fix", "tau_cluster")
BOX_INIT_KEYS = ("n_agents", "n_topics", "box", "seed", "generator")
# a negative decimal or scientific number, or a seed range that starts
# below zero, is a flag's value, never a flag
_NEGATIVE_NUMBER = re.compile(r"-(?:(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|\d+:-?\d+)\Z")


class UsageError(Exception):
    pass


def _require_keys(raw: dict, keys: Sequence[str], where: str) -> None:
    for key in keys:
        if key not in raw:
            raise ValueError(f"{where} lacks key {key!r}")


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_init(init: dict) -> None:
    """Reject an init spec whose values have the wrong JSON types."""
    if init.get("kind") == "matrix":
        _require_keys(init, ("entries",), "manifest init")
        json_rows(init["entries"], "manifest init 'entries'")
    elif init.get("kind") == "box":
        _require_keys(init, BOX_INIT_KEYS, "manifest init")
        for key in ("n_agents", "n_topics", "seed"):
            json_int(init[key], f"manifest init {key!r}")
        box = json_rows(init["box"], "manifest init 'box'")
        if not all(len(pair) == 2 and all(map(_is_number, pair)) for pair in box):
            raise ValueError("manifest init 'box' must hold [lo, hi] pairs of numbers")


def _coerce_key(coerce, value, what: str):
    """``coerce(value)``, with a ValueError that names ``what``."""
    try:
        return coerce(value)
    except ValueError as exc:
        raise ValueError(f"{what}: {exc}") from None


@dataclass(frozen=True)
class RunManifest:
    """Everything needed to reproduce a run bit for bit.

    ``init`` is either {"kind": "matrix", "entries": [[...]]} with
    tokenized scalars, or {"kind": "box", "n_agents", "n_topics",
    "box": [[lo, hi], ...], "seed", "generator"}.
    """

    model: str
    mode: str
    epsilon: Scalar
    max_steps: int
    tau_fix: float
    tau_cluster: float
    init: dict
    tool_version: str = __version__

    def policy(self) -> NumericPolicy:
        if self.mode == MODE_EXACT:
            return NumericPolicy.exact()
        return NumericPolicy.floating(self.tau_fix, self.tau_cluster)

    def config(self) -> SimulationConfig:
        return SimulationConfig(self.model, self.epsilon, self.max_steps, self.policy())

    def initial_state(self) -> OpinionMatrix:
        policy = self.policy()
        init = self.init
        if init.get("kind") == "matrix":
            rows = _coerce_key(policy.coerce_rows, init["entries"], "manifest init 'entries'")
            return OpinionMatrix(rows)
        if init.get("kind") == "box":
            if init.get("generator") != GENERATOR_NAME:
                raise ValueError(f"unsupported generator {init.get('generator')!r}")
            return sample_initial(
                int(init["n_agents"]),
                int(init["n_topics"]),
                [tuple(pair) for pair in init["box"]],
                int(init["seed"]),
                policy,
            )
        raise ValueError(f"unknown init kind {init.get('kind')!r}")

    def to_dict(self) -> dict:
        return {
            "format_revision": FORMAT_REVISION,
            "tool_version": self.tool_version,
            "model": self.model,
            "mode": self.mode,
            "epsilon": scalar_token(self.epsilon, self.mode == MODE_EXACT),
            "max_steps": self.max_steps,
            "tolerances": {
                "tau_fix": self.tau_fix,
                "tau_cluster": self.tau_cluster,
            },
            "init": self.init,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "RunManifest":
        if not isinstance(raw, dict):
            raise ValueError("manifest must be a JSON object")
        if raw.get("format_revision") != FORMAT_REVISION:
            raise ValueError(
                f"unsupported manifest revision {raw.get('format_revision')!r}"
            )
        _require_keys(raw, MANIFEST_KEYS, "manifest")
        for key in ("tolerances", "init"):
            if not isinstance(raw[key], dict):
                raise ValueError(f"manifest key {key!r} must be an object")
        tolerances = raw["tolerances"]
        _require_keys(tolerances, TOLERANCE_KEYS, "manifest tolerances")
        for key in TOLERANCE_KEYS:
            if not _is_number(tolerances[key]):
                raise ValueError(f"manifest tolerance {key!r} must be a number")
        if raw["mode"] not in (MODE_EXACT, MODE_FLOAT):
            raise ValueError(f"unknown mode {raw['mode']!r}")
        _check_init(raw["init"])
        manifest = cls(
            model=raw["model"],
            mode=raw["mode"],
            epsilon=raw["epsilon"],
            max_steps=json_int(raw["max_steps"], "manifest 'max_steps'"),
            tau_fix=tolerances["tau_fix"],
            tau_cluster=tolerances["tau_cluster"],
            init=raw["init"],
            tool_version=str(raw.get("tool_version", "")),
        )
        epsilon = _coerce_key(manifest.policy().coerce, raw["epsilon"], "manifest 'epsilon'")
        return replace(manifest, epsilon=epsilon)


class Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # before Python 3.13 argparse takes only plain decimals such as -2.5
        # for negative numbers, so "--box -1e7 1e7" read -1e7 as a flag
        self._negative_number_matcher = _NEGATIVE_NUMBER

    # argparse exits 2 on bad flags; the contract here is exit 1
    def error(self, message: str):
        raise UsageError(message)


def _policy_from_args(args) -> NumericPolicy:
    overrides = (args.tau_fix, args.tau_cluster)
    if args.mode == MODE_EXACT:
        if any(v not in (None, 0.0) for v in overrides):
            raise UsageError("exact mode does not take tolerance overrides")
        return NumericPolicy.exact()
    kwargs = {}
    if args.tau_fix is not None:
        kwargs["tau_fix"] = args.tau_fix
    if args.tau_cluster is not None:
        kwargs["tau_cluster"] = args.tau_cluster
    return NumericPolicy.floating(**kwargs)


def _epsilon_from_args(args, policy: NumericPolicy) -> Scalar:
    try:
        eps = policy.coerce(args.epsilon)
        check_epsilon(eps)
    except ValueError as exc:
        raise UsageError(f"bad --epsilon {args.epsilon!r}: {exc}")
    return eps


def _add_model_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--model", choices=MODEL_KINDS, required=True)
    p.add_argument("--epsilon", required=True, help="confidence bound, e.g. 0.8 or 4/5")
    p.add_argument("--mode", choices=(MODE_EXACT, MODE_FLOAT), default=MODE_FLOAT)
    p.add_argument("--tau-fix", type=float, default=None, help="fixed point tolerance")
    p.add_argument("--tau-cluster", type=float, default=None, help="cluster tolerance")


def _add_sampling_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--agents", type=int, default=None)
    p.add_argument("--topics", type=int, default=None)
    p.add_argument(
        "--box",
        nargs=2,
        type=float,
        default=(-1.0, 1.0),
        metavar=("LO", "HI"),
        help="opinion interval applied to every topic",
    )


def _parse_seeds(spec: str) -> list[int]:
    spec = spec.strip()
    try:
        if ":" in spec:
            lo, hi = (int(tok) for tok in spec.split(":", 1))
            # checked before the range becomes a list, so a huge one fails at once
            if hi - lo > MAX_SEEDS:
                raise UsageError(f"--seeds {spec!r} selects more than {MAX_SEEDS} seeds")
            seeds = list(range(lo, hi))
        else:
            seeds = [int(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise UsageError(f"bad --seeds {spec!r}; use START:END or a comma list")
    if not seeds:
        raise UsageError(f"--seeds {spec!r} selects no seeds")
    return seeds


def _summary_dict(traj: Trajectory) -> dict:
    """The run's ``summary.json``: its outcome plus run metadata."""
    policy = traj.config.policy
    out = outcome_to_dict(classify_run(traj), policy.is_exact)
    # run-level flag: a budget-limited run may stop on an unconfirmed
    # fixed point, in which case outcome still classifies the snapshot
    out["terminated"] = traj.terminated
    out["epsilon"] = scalar_token(traj.config.epsilon, policy.is_exact)
    out["mode"] = policy.mode
    out["n_agents"] = traj.final_state.n_agents
    out["n_topics"] = traj.final_state.n_topics
    out["n_steps"] = traj.n_steps
    return out


def cmd_run(args) -> int:
    policy = _policy_from_args(args)
    epsilon = _epsilon_from_args(args, policy)
    if args.init is not None:
        if args.agents is not None or args.topics is not None or args.seed is not None:
            raise UsageError("--init replaces --agents/--topics/--seed")
        init_spec = {
            "kind": "matrix",
            "entries": matrix_tokens(read_matrix_csv(args.init, policy), policy.is_exact),
        }
    else:
        if args.agents is None or args.topics is None or args.seed is None:
            raise UsageError("need --init or all of --agents, --topics, --seed")
        bounds = normalize_box(tuple(args.box), args.topics)
        init_spec = {
            "kind": "box",
            "n_agents": args.agents,
            "n_topics": args.topics,
            "box": [[lo, hi] for lo, hi in bounds],
            "seed": args.seed,
            "generator": GENERATOR_NAME,
        }
    manifest = RunManifest(
        model=args.model,
        mode=policy.mode,
        epsilon=epsilon,
        max_steps=args.max_steps,
        tau_fix=float(policy.tau_fix),
        tau_cluster=float(policy.tau_cluster),
        init=init_spec,
    )
    # the same two calls that verify replays
    traj = run(manifest.config(), manifest.initial_state())

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_json(out_dir / "manifest.json", manifest.to_dict())
    write_trajectory_jsonl(out_dir / "trajectory.jsonl", traj)
    write_matrix_csv(out_dir / "final.csv", traj.final_state, policy.is_exact)
    summary = _summary_dict(traj)
    write_json(out_dir / "summary.json", summary)

    if traj.terminated:
        print(
            f"terminated at step {traj.termination_step}: {summary['outcome']}"
            f" ({summary['n_clusters']} cluster(s)); wrote {out_dir}"
        )
        return EXIT_OK
    print(
        f"no fixed point within {args.max_steps} step(s); wrote {out_dir}",
        file=sys.stderr,
    )
    return EXIT_BUDGET


def cmd_batch(args) -> int:
    policy = _policy_from_args(args)
    epsilon = _epsilon_from_args(args, policy)
    if args.agents is None or args.topics is None:
        raise UsageError("batch needs --agents and --topics")
    seeds = _parse_seeds(args.seeds)
    bounds = normalize_box(tuple(args.box), args.topics)
    config = SimulationConfig(args.model, epsilon, args.max_steps, policy)
    # each state is drawn as its run starts and each run kept as its row
    jobs = (
        (config, sample_initial(args.agents, args.topics, bounds, seed, policy))
        for seed in seeds
    )
    rows = [
        {"index": index, "seed": seed, **row}
        for index, (seed, row) in enumerate(zip(seeds, batch_run(jobs, run_row)))
    ]
    payload = {
        "model": args.model,
        "mode": policy.mode,
        "epsilon": scalar_token(epsilon, policy.is_exact),
        "n_agents": args.agents,
        "n_topics": args.topics,
        "box": [[lo, hi] for lo, hi in bounds],
        "max_steps": args.max_steps,
        "jobs": rows,
        "all_terminated": all(r["terminated"] for r in rows),
    }
    if args.out is not None:
        write_json(args.out, payload)
        target = args.out
    else:
        print(json.dumps(payload, sort_keys=True, indent=2))
        target = "stdout"
    done = sum(1 for r in rows if r["terminated"])
    print(f"{done}/{len(rows)} runs terminated; results in {target}", file=sys.stderr)
    return EXIT_OK if done == len(rows) else EXIT_BUDGET


def cmd_classify(args) -> int:
    policy = _policy_from_args(args)
    epsilon = _epsilon_from_args(args, policy)
    state = read_matrix_csv(args.state, policy)
    report = classify_outcome(state, epsilon, policy, args.model)
    out = outcome_to_dict(report, policy.is_exact)
    out["epsilon"] = scalar_token(epsilon, policy.is_exact)
    out["mode"] = policy.mode
    if args.out is not None:
        write_json(args.out, out)
    else:
        print(json.dumps(out, sort_keys=True, indent=2))
    return EXIT_OK


def cmd_verify(args) -> int:
    if args.run_dir is not None:
        manifest_path = Path(args.run_dir) / "manifest.json"
        trajectory_path = Path(args.run_dir) / "trajectory.jsonl"
    else:
        if args.manifest is None or args.trajectory is None:
            raise UsageError("need --run-dir or both --manifest and --trajectory")
        manifest_path = Path(args.manifest)
        trajectory_path = Path(args.trajectory)

    manifest = RunManifest.from_dict(read_json(manifest_path))
    fresh = run(manifest.config(), manifest.initial_state())
    # read once; parsed only to reject malformed input with exit 1, as
    # the replay's bytes are the reference for every field in both modes
    text = trajectory_path.read_text(encoding="utf-8")
    read_trajectory_jsonl(trajectory_path, manifest.policy(), text)

    violations = []
    expected = trajectory_lines(fresh)
    lines = text.split("\n")
    for t, (found, want) in enumerate(zip_longest(lines, expected + [""])):
        if found != want:
            where = f"step {t}: record" if t < len(expected) else "text after the last record"
            violations.append(f"{where} differs from replay")
            break

    violations.extend(check_trajectory(fresh))

    if violations:
        for line in violations:
            print(f"violation: {line}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"ok: {len(expected)} records verified against replay")
    return EXIT_OK


def cmd_plotdata(args) -> int:
    policy = NumericPolicy.floating()
    records = read_trajectory_jsonl(args.trajectory, policy)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    n_topics = records[0].state.n_topics
    written = []
    for j in range(n_topics):
        lines = []
        for record in records:
            col = record.state.column(j)
            lines.append(",".join([str(record.step)] + [repr(v) for v in col]))
        path = out_dir / f"topic_{j + 1}.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        written.append(path.name)
    lines = []
    for record in records:
        means = row_average(record.state).values
        lines.append(",".join([str(record.step)] + [repr(v) for v in means]))
    path = out_dir / "averages.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    written.append(path.name)
    print(f"wrote {', '.join(written)} to {out_dir}")
    return EXIT_OK


def build_parser() -> Parser:
    parser = Parser(prog="hkmulti", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("run", help="run one trajectory and write it to a directory")
    _add_model_flags(p)
    _add_sampling_flags(p)
    p.add_argument("--init", default=None, help="initial state CSV (one agent per row)")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("batch", help="run many seeded trajectories")
    _add_model_flags(p)
    _add_sampling_flags(p)
    p.add_argument(
        "--seeds", required=True, help=f"START:END (at most {MAX_SEEDS}) or comma list"
    )
    p.add_argument("--max-steps", type=int, default=1000)
    p.add_argument(
        "--threads",
        type=int,
        default=None,
        help="no effect: runs are sequential; kept so older command lines parse",
    )
    p.add_argument("--out", default=None, help="summary JSON path (default stdout)")
    p.set_defaults(func=cmd_batch)

    p = sub.add_parser("classify", help="label a state CSV as consensus or clustering")
    _add_model_flags(p)
    p.add_argument("--state", required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("verify", help="replay a recorded run and check invariants")
    p.add_argument("--run-dir", default=None)
    p.add_argument("--manifest", default=None)
    p.add_argument("--trajectory", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("plotdata", help="split a trajectory into per-topic CSV traces")
    p.add_argument("--trajectory", required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_plotdata)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise UsageError("missing subcommand (try --help)")
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return code
    except BrokenPipeError:
        # stdout's reader has gone: no error line, and fd 1 points at devnull
        # so the flush at exit cannot raise again (the signal docs' recipe)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_USAGE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PropertyViolation as exc:
        print(f"property violation: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
