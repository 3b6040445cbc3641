"""The three benchmark workloads: their inputs, argv and output checks.

Each operation is one ``hkmulti`` CLI invocation.  Operation k of a run
with workload seed S uses program seed ``S * STRIDE + k`` (for the batch,
the seed range that starts at that number times the batch width), so every
operation of a timed run has an input of its own.  Input 0 is run again
after the timed loop, and its artifacts must repeat byte for byte.

The checks here recompute the expected results with ``hkmulti.oracle`` and
with a generator and cluster count written in this file, so they do not
rely on the program's own sampler or classifier.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from hkmulti.oracle import naive_model_step
from hkmulti.core import OpinionMatrix

TAU_FIX = 1e-12  # the CLI's default fixed-point tolerance in float mode
TAU_CLUSTER = 1e-9  # the CLI's default cluster tolerance in float mode
BOX = (-1.0, 1.0)
STRIDE = 100_000  # inputs per workload seed; runs never get near it


@dataclass(frozen=True)
class Size:
    agents: int
    traced: int  # inputs in one traced pass
    batch: int = 1  # program seeds per batch operation


@dataclass(frozen=True)
class Workload:
    name: str
    model: str
    mode: str
    epsilon: str
    topics: int
    sizes: dict

    def size(self, tiny: bool) -> Size:
        return self.sizes["tiny" if tiny else "full"]

    def input(self, seed: int, k: int, tiny: bool) -> int:
        """Program seed (batch: first seed of the range) of operation k."""
        return (seed * STRIDE + k) * self.size(tiny).batch

    def argv(self, base: int, tiny: bool, out_dir: Path) -> list[str]:
        """The timed CLI operation for one input."""
        size = self.size(tiny)
        if self.name == "ave-float-run":
            return self._flags(size) + ["--seed", str(base), "--max-steps", "200", "--out-dir", str(out_dir)]
        if self.name == "uniform-float-batch":
            return self._flags(size) + [
                "--seeds",
                f"{base}:{base + size.batch}",
                "--threads",
                "2",
                "--out",
                str(out_dir / "batch.json"),
            ]
        return ["verify", "--run-dir", str(out_dir)]

    def setup_argv(self, base: int, tiny: bool, out_dir: Path):
        """The CLI call that prepares an input, if any; it counts as set-up."""
        if self.name != "ave-exact-verify":
            return None
        return self._flags(self.size(tiny), "run") + [
            "--seed",
            str(base),
            "--max-steps",
            "200",
            "--out-dir",
            str(out_dir),
        ]

    def _flags(self, size: Size, command: str = "") -> list[str]:
        command = command or ("batch" if self.name == "uniform-float-batch" else "run")
        return [
            command,
            "--model",
            self.model,
            "--mode",
            self.mode,
            "--epsilon",
            self.epsilon,
            "--agents",
            str(size.agents),
            "--topics",
            str(self.topics),
            "--box",
            str(BOX[0]),
            str(BOX[1]),
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "ave-float-run",
            "ave",
            "float",
            "0.15",
            3,
            {"full": Size(agents=60, traced=4), "tiny": Size(agents=8, traced=1)},
        ),
        Workload(
            "uniform-float-batch",
            "uniform",
            "float",
            "0.5",
            3,
            {
                "full": Size(agents=60, traced=2, batch=12),
                "tiny": Size(agents=8, traced=1, batch=3),
            },
        ),
        Workload(
            "ave-exact-verify",
            "ave",
            "exact",
            "3/20",
            2,
            {"full": Size(agents=20, traced=4), "tiny": Size(agents=8, traced=1)},
        ),
    )
}


def initial_state(seed: int, agents: int, topics: int, exact: bool) -> OpinionMatrix:
    """The manifest's "python-random-mt19937" box sample, drawn independently."""
    rng = random.Random(seed)
    lo, hi = BOX
    rows = []
    for _ in range(agents):
        row = [lo + (hi - lo) * rng.random() for _ in range(topics)]
        rows.append(tuple(Fraction(v) if exact else v for v in row))
    return OpinionMatrix(tuple(rows))


def oracle_run(w: Workload, seed: int, agents: int) -> tuple[int, OpinionMatrix]:
    """Iterate the naive oracle to the first fixed point: (steps, final state)."""
    exact = w.mode == "exact"
    epsilon = Fraction(w.epsilon) if exact else float(Fraction(w.epsilon))
    tol = 0 if exact else TAU_FIX
    x = initial_state(seed, agents, w.topics, exact)
    for step in range(1, 201):
        y = naive_model_step(x, epsilon, w.model)
        if all(abs(p - q) <= tol for a, b in zip(x.entries, y.entries) for p, q in zip(a, b)):
            return step, y
        x = y
    raise ValueError(f"oracle run from seed {seed} found no fixed point in 200 steps")


def cluster_count(x: OpinionMatrix) -> int:
    """Groups of rows equal within TAU_CLUSTER on every topic (transitive closure)."""
    rows = x.entries
    parent = list(range(len(rows)))

    def root(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(rows)):
        for k in range(i + 1, len(rows)):
            if all(abs(p - q) <= TAU_CLUSTER for p, q in zip(rows[i], rows[k])):
                parent[root(k)] = root(i)
    return len({root(i) for i in range(len(rows))})


def digest(out_dir: Path) -> str:
    """Hash of every artifact an operation left in its directory."""
    h = hashlib.sha256()
    for path in sorted(Path(out_dir).iterdir()):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def steps_done(w: Workload, out_dir: Path) -> int:
    """Simulation steps the operation completed or replayed."""
    if w.name == "ave-float-run":
        return json.loads((out_dir / "summary.json").read_text())["n_steps"]
    if w.name == "uniform-float-batch":
        return sum(r["n_steps"] for r in json.loads((out_dir / "batch.json").read_text())["jobs"])
    records = (out_dir / "trajectory.jsonl").read_text().count("\n")
    return records - 1


def check(w: Workload, base: int, tiny: bool, rc: int, stdout: str, out_dir: Path) -> list[str]:
    """Compare one operation's outputs with the oracle; returns the failures."""
    agents = w.size(tiny).agents
    if rc != 0:
        return [f"exit code {rc}"]
    try:
        if w.name == "ave-float-run":
            steps, final = oracle_run(w, base, agents)
            summary = json.loads((out_dir / "summary.json").read_text())
            got = [
                [float(tok) for tok in line.split(",")]
                for line in (out_dir / "final.csv").read_text().splitlines()
            ]
            errors = []
            if summary["n_steps"] != steps:
                errors.append(f"seed {base}: {summary['n_steps']} steps, oracle {steps}")
            if got != [list(row) for row in final.entries]:
                errors.append(f"seed {base}: final.csv differs from the oracle")
            return errors
        if w.name == "uniform-float-batch":
            rows = json.loads((out_dir / "batch.json").read_text())["jobs"]
            errors = []
            seeds = list(range(base, base + w.size(tiny).batch))
            if [r["seed"] for r in rows] != seeds:
                return [f"batch from {base}: seeds {[r['seed'] for r in rows]}"]
            for r in rows:
                steps, final = oracle_run(w, r["seed"], agents)
                want = (steps - 1, cluster_count(final))
                if (r["termination_step"], r["n_clusters"]) != want:
                    errors.append(f"seed {r['seed']}: (termination_step, n_clusters) {want} expected")
            return errors
        steps, _ = oracle_run(w, base, agents)
        records = (out_dir / "trajectory.jsonl").read_text().count("\n")
        want = f"ok: {steps + 1} records verified against replay"
        errors = []
        if records != steps + 1:
            errors.append(f"seed {base}: {records} records on file, oracle run has {steps + 1}")
        if stdout.strip() != want:
            errors.append(f"seed {base}: printed {stdout.strip()!r}, expected {want!r}")
        return errors
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"seed {base}: unreadable output: {exc}"]


def tamper(run_dir: Path, target: Path) -> None:
    """Copy a recorded run with one state entry of step 1 changed."""
    target.mkdir(parents=True)
    (target / "manifest.json").write_bytes((run_dir / "manifest.json").read_bytes())
    lines = (run_dir / "trajectory.jsonl").read_text().splitlines()
    record = json.loads(lines[1])
    record["state"][0][0] = str(Fraction(record["state"][0][0]) + Fraction(1, 7))
    lines[1] = json.dumps(record, sort_keys=True, separators=(",", ":"))
    (target / "trajectory.jsonl").write_text("\n".join(lines) + "\n")
