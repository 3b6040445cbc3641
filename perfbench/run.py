"""hkmulti benchmark: timed, traced and checked CLI operations.

Usage (from the root of an hkmulti checkout):

    python3 perfbench/run.py --workload NAME --seed S --seconds T --trace 0|1 [--tiny]

``--trace 0`` runs the timed loop: one client runs operations back to back
for T seconds, each in a fresh interpreter, and the end-to-end metrics are
medians over the operations.  ``--trace 1`` runs the traced pass instead
(see spans.py) and reports the per-layer metrics.  Both check every output
against the oracle outside the timed region.  The last line of standard
output is the JSON result; everything else goes to standard error and to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
OP_TIMEOUT = 150

# metric names in report order; their units and bounds are in BENCHMARK.json
END_TO_END = ("wall_s", "agent_steps_per_s", "peak_rss_mb", "setup_s", "ok_rate")
BENCH = json.loads((HERE.parent / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in BENCH["end_to_end"] + BENCH["per_layer"]}
# counts that must repeat exactly for the same seed: a mismatch with the
# recorded baseline means the work changed, not the speed
WORK_COUNTS = (
    "sim.steps",
    "avemodel.edges",
    "uniform.edges",
    "analysis.classify_calls",
    "core.max_denominator_bits",
    "serialize.bytes_written",
    "serialize.bytes_read",
    "properties.violations",
)


def launch(src: Path, spec: dict) -> dict:
    """Run worker.py once; adds the set-up time measured from outside."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), json.dumps(spec)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        first = proc.stdout.readline()
        ready = time.perf_counter() - t0
        out, err = proc.communicate(timeout=OP_TIMEOUT)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return {"error": f"no result within {OP_TIMEOUT} s"}
    if first.strip() != "ready":
        out = first + out
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"error": f"worker exited {proc.returncode}: {err.strip()[-500:]}"}
    result["setup_s"] = ready
    return result


class Runner:
    """Launches operations of one workload and checks what they leave behind."""

    def __init__(self, w, seed: int, tiny: bool, src: Path, work: Path):
        self.w, self.seed, self.tiny, self.src, self.work = w, seed, tiny, src, work
        self.reference: dict = {}  # base -> (rc, stdout, digest) of its first run
        self.kept: dict = {}  # base -> directory of its first run, for the oracle
        self.ops: list[dict] = []

    def op(self, base: int, mode: str, tag: str, **extra) -> dict:
        # workloads imports hkmulti, which main() has put on sys.path
        from workloads import digest, steps_done

        out_dir = self.work / tag
        setup = self.w.setup_argv(base, self.tiny, out_dir)
        setup_s, error = 0.0, None
        if setup is None:
            out_dir.mkdir(parents=True)
        else:
            # the recording gets a worker of its own, so the timed operation
            # starts from a fresh interpreter and its peak RSS is its own
            t0 = time.perf_counter()
            prep = launch(self.src, {"argv": setup, "mode": "plain"})
            setup_s = time.perf_counter() - t0
            if prep.get("rc") != 0:
                error = prep.get("error") or f"set-up exited {prep['rc']}: {prep['stderr'][-500:]}"
        r = {"error": error} if error else launch(self.src, {"argv": self.w.argv(base, self.tiny, out_dir), "mode": mode, **extra})
        if "setup_s" in r:
            r["setup_s"] += setup_s
        r["base"] = base
        r["mode"] = mode
        r["errors"] = [r["error"]] if "error" in r else []
        if not r["errors"]:
            r["stdout"] = r["stdout"].replace(str(out_dir), "OUT_DIR")
            try:
                key = (r["rc"], r["stdout"], digest(out_dir))
                r["steps"] = steps_done(self.w, out_dir)
            except (OSError, ValueError, KeyError) as exc:
                key = None
                r["errors"].append(f"unreadable output: {exc}")
            if key is not None and self.reference.setdefault(base, key) != key:
                r["errors"].append(f"input {base}: output differs from an earlier run of the same input")
        if base not in self.kept and not r["errors"]:
            self.kept[base] = (out_dir, r["rc"], r["stdout"])
        else:
            shutil.rmtree(out_dir, ignore_errors=True)
        self.ops.append(r)
        return r

    def check_outputs(self) -> None:
        """Oracle checks, once per input; a failure fails every run of it."""
        from workloads import check

        for base, (out_dir, rc, stdout) in self.kept.items():
            errors = check(self.w, base, self.tiny, rc, stdout, out_dir)
            for r in self.ops:
                if r["base"] == base:
                    r["errors"].extend(errors)

    def tamper_control(self) -> None:
        """A verify of an altered trajectory must exit 3 (violation)."""
        from workloads import tamper

        if self.w.name != "ave-exact-verify" or not self.kept:
            return
        base = next(iter(self.kept))
        target = self.work / "tampered"
        tamper(self.kept[base][0], target)
        r = launch(self.src, {"argv": ["verify", "--run-dir", str(target)], "mode": "plain"})
        r["base"], r["mode"] = base, "tamper-control"
        r["errors"] = [] if r.get("rc") == 3 else [f"tampered trajectory: exit {r.get('rc', r.get('error'))}, expected 3"]
        self.ops.append(r)

    def structure_control(self) -> None:
        """A traced verify of input 0 must do every part of the verification.

        The tamper control is caught by the byte compare alone, so this one
        makes sure the replay, the read and all 12 property checks still run.
        """
        if self.w.name != "ave-exact-verify":
            return
        base = self.w.input(self.seed, 0, self.tiny)
        path = self.work / "structure.jsonl"
        r = self.op(base, "structure-control", "structure", spans_path=str(path), op=0)
        if not r["errors"]:
            records = [json.loads(line) for line in path.read_text().splitlines()]
            r["errors"].extend(spans.verify_structure(records))

    def bases(self, count: int) -> list[int]:
        return [self.w.input(self.seed, k, self.tiny) for k in range(count)]

    def failed(self) -> int:
        return sum(1 for r in self.ops if r["errors"])


def high_percentile(values: list[float]):
    """The highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    pct = math.floor(100 * (n - 10) / n)
    return pct, sorted(values)[math.ceil(pct / 100 * n) - 1]


def summarize(name: str, values: list[float], unit: str) -> dict:
    out = {
        "mean": statistics.fmean(values),
        "median": statistics.median(values),
        "n": len(values),
        "unit": unit,
    }
    high = high_percentile(values)
    if high:
        out[f"p{high[0]}"] = high[1]
    tail = f"  p{high[0]} {high[1]:.4g}" if high else ""
    print(
        f"  {name:<20} mean {out['mean']:.4g}  median {out['median']:.4g}{tail} {unit}  (n={len(values)})",
        file=sys.stderr,
    )
    return out


def timed(runner: Runner, seconds: float) -> tuple[dict, dict]:
    w = runner.w
    agents = w.size(runner.tiny).agents
    start = time.perf_counter()
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        runner.op(w.input(runner.seed, k, runner.tiny), "plain", f"op{k}")
        k += 1
    # artifacts must repeat byte for byte: run input 0 once more
    runner.op(w.input(runner.seed, 0, runner.tiny), "repeat-control", "repeat")
    runner.check_outputs()
    runner.tamper_control()
    runner.structure_control()
    done = [r for r in runner.ops if r["mode"] == "plain" and "wall_s" in r]
    attempted = len(runner.ops)
    if not done:
        raise SystemExit("error: no operation completed")
    samples = {
        "wall_s": [r["wall_s"] for r in done],
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in done],
        "setup_s": [r["setup_s"] for r in done],
    }
    detail = {name: summarize(name, values, UNITS[name]) for name, values in samples.items()}
    # Every operation has an input of its own, and its time clusters by the
    # input's whole number of steps, so a median of operation times jumps
    # from one cluster to the next between seeds; the mean moves smoothly.
    metrics = {
        "wall_s": detail["wall_s"]["mean"],
        "agent_steps_per_s": agents * sum(r.get("steps", 0) for r in done) / sum(samples["wall_s"]),
        "peak_rss_mb": detail["peak_rss_mb"]["median"],
        "setup_s": detail["setup_s"]["median"],
        "ok_rate": (attempted - runner.failed()) / attempted,
    }
    return metrics, detail


def traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    bases = runner.bases(runner.w.size(runner.tiny).traced)
    cycles = []
    start = time.perf_counter()
    c = 0
    while c == 0 or time.perf_counter() - start < seconds:
        # alternate which pass goes first, so drift hits both alike
        order = ("plain", "traced") if c % 2 == 0 else ("traced", "plain")
        cycle = {"plain": 0.0, "ops": [], "spans": []}
        for j, base in enumerate(bases):
            for mode in order:
                path = runner.work / f"spans-{c}-{j}.jsonl"
                r = runner.op(base, mode, f"c{c}-{j}-{mode}", spans_path=str(path), op=j)
                if r["errors"]:
                    continue
                if mode == "plain":
                    cycle["plain"] += r["wall_s"]
                else:
                    records = [json.loads(line) for line in path.read_text().splitlines()]
                    cycle["spans"].extend(records)
                    cycle["ops"].append(spans.op_metrics(records, r["counts"]))
        cycles.append(cycle)
        c += 1
    retained = 0
    for j, base in enumerate(bases):
        r = runner.op(base, "memory", f"mem-{j}")
        retained += r.get("retained_bytes", 0)
    runner.check_outputs()
    runner.tamper_control()
    runner.structure_control()
    complete = [cy for cy in cycles if len(cy["ops"]) == len(bases)]
    if not complete:
        raise SystemExit("error: no traced pass completed")
    # the cycle with the median traced wall time gives the layer split
    complete.sort(key=lambda cy: sum(op["trace.wall_s"] for op in cy["ops"]))
    chosen = complete[len(complete) // 2]
    untraced = statistics.median(cy["plain"] for cy in complete)
    metrics = spans.cycle_metrics(chosen["ops"], untraced, retained)
    OUT.mkdir(exist_ok=True)
    span_file = OUT / f"spans-{runner.w.name}-seed{runner.seed}.jsonl"
    with span_file.open("w", encoding="utf-8") as fh:
        for record in chosen["spans"]:
            fh.write(json.dumps(record) + "\n")
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    print(
        f"  traced wall {metrics['trace.wall_s']:.4f} s = layer self times {layers:.4f} s;"
        f" overhead {metrics['trace.overhead_s']:+.4f} s over {untraced:.4f} s untraced"
        f" ({len(complete)} pass(es)); spans in {span_file}",
        file=sys.stderr,
    )
    detail = {"cycles": len(complete), "span_file": str(span_file), "layer_self_sum_s": layers}
    return {name: metrics[name] for name in spans.LAYER_METRICS}, detail


def compare_baseline(runner: Runner, metrics: dict, trace: bool) -> list[str]:
    """Work counts that differ from the recorded baseline for this seed."""
    path = HERE / "baseline.json"
    if runner.tiny or not path.is_file():
        return []
    recorded = json.loads(path.read_text()).get("counts", {}).get(runner.w.name, {}).get(str(runner.seed))
    if not recorded:
        return []
    changed = []
    steps = {r["base"]: r["steps"] for r in runner.ops if "steps" in r}
    for base, want in zip(runner.bases(len(recorded["steps"])), recorded["steps"]):
        if base in steps and steps[base] != want:
            changed.append(f"input {base}: {steps[base]} steps, baseline {want}")
    if trace:
        for name in WORK_COUNTS:
            if name in recorded and metrics[name] != recorded[name]:
                changed.append(f"{name}: {metrics[name]}, baseline {recorded[name]}")
    for line in changed:
        print(f"workload changed: {line}", file=sys.stderr)
    return changed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="N=8 inputs, for the smoke tests")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    src = Path.cwd() / "src"
    if not (src / "hkmulti" / "__init__.py").is_file():
        print("error: no src/hkmulti under the current directory; run from an hkmulti checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    # the build: byte-compile once, so no timed start pays for it
    compileall.compile_dir(str(src), quiet=1)

    w = WORKLOADS[args.workload]
    work = OUT / f"work-{w.name}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    runner = Runner(w, args.seed, args.tiny, src, work)
    try:
        if args.trace:
            metrics, detail = traced(runner, args.seconds)
        else:
            metrics, detail = timed(runner, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    changed = compare_baseline(runner, metrics, bool(args.trace))
    failures = [f"{r['mode']} input {r['base']}: {e}" for r in runner.ops for e in r["errors"]]
    for line in failures:
        print(f"failed: {line}", file=sys.stderr)
    report = {
        "workload": w.name,
        "seed": args.seed,
        "ops": [
            {key: r.get(key) for key in ("mode", "base", "rc", "wall_s", "cpu_s", "setup_s", "maxrss_kb", "steps", "errors")}
            for r in runner.ops
        ],
        "trace": args.trace,
        "detail": detail,
        "failures": failures,
        "workload_changed": changed,
        "metrics": metrics,
    }
    (OUT / f"report-{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report, indent=1))
    names = spans.LAYER_METRICS if args.trace else END_TO_END
    result = {
        # a run whose work differs from the baseline is no measurement of speed
        "correct": not failures and not changed,
        "attempted": len(runner.ops),
        "failed": runner.failed(),
        "metrics": {name: {"value": metrics[name], "unit": UNITS[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
