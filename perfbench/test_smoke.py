"""Smoke tests for the benchmark itself, at N=8.

Run from the repository root:  python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCH = json.loads((REPO / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in BENCH["end_to_end"]]
LAYER = [m["name"] for m in BENCH["per_layer"]]


def bench(workload: str, seed: int, trace: int, cwd: Path = REPO) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)
    assert E2E == list(run.END_TO_END)
    assert LAYER == list(spans.LAYER_METRICS)
    assert {m["unit"] for m in BENCH["per_layer"]} <= {"s", "ms", "ratio", "count", "MiB"}
    # baseline.json holds only what BENCHMARK.json cannot: no second copy
    # of a unit, direction, bound or why-sentence to drift from the first
    baseline = json.loads((REPO / "perfbench" / "baseline.json").read_text())
    assert list(baseline["workloads"]) == list(WORKLOADS)
    assert list(baseline["metrics"]) == E2E + LAYER
    for entry in [*baseline["workloads"].values(), *baseline["metrics"].values()]:
        assert not {"unit", "better", "bound", "why"} & set(entry)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_workload_runs_and_passes_its_checks(workload):
    out = result(bench(workload, seed=1, trace=0))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 2
    assert list(out["metrics"]) == E2E
    assert all(m["value"] > 0 for m in out["metrics"].values())
    report = json.loads((run.OUT / f"report-{workload}-seed1-trace0.json").read_text())
    modes = {r["mode"]: r["rc"] for r in report["ops"]}
    assert modes["repeat-control"] == 0
    if workload == "ave-exact-verify":
        assert modes["tamper-control"] == 3
        assert modes["structure-control"] == 0


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_pass_reports_every_layer_metric(workload):
    out = result(bench(workload, seed=1, trace=1))
    assert out["correct"] and out["failed"] == 0
    metrics = {name: m["value"] for name, m in out["metrics"].items()}
    assert list(metrics) == LAYER
    layers = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
    assert layers == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["sim.steps"] > 0 and metrics["properties.violations"] == 0
    spans_file = run.OUT / f"spans-{workload}-seed1.jsonl"
    names = {json.loads(line)["name"] for line in spans_file.read_text().splitlines()}
    assert spans.ROOT in names and "sim.run" in names


def test_seed_changes_inputs_but_not_metric_names():
    for w in WORKLOADS.values():
        assert w.input(1, 0, True) != w.input(2, 0, True)
    for trace, names in ((0, E2E), (1, LAYER)):
        out = result(bench("ave-float-run", seed=2, trace=trace))
        assert out["correct"] and list(out["metrics"]) == names


@pytest.mark.parametrize(
    "workload, artifact",
    [
        ("ave-float-run", "final.csv"),
        ("uniform-float-batch", "batch.json"),
        ("ave-exact-verify", "trajectory.jsonl"),
    ],
)
def test_corrupted_output_counts_as_a_failure(tmp_path, workload, artifact):
    w = WORKLOADS[workload]
    runner = run.Runner(w, 5, True, REPO / "src", tmp_path)
    base = w.input(5, 0, True)
    runner.op(base, "plain", "op0")
    path = runner.kept[base][0] / artifact
    text = path.read_text()
    if artifact == "batch.json":
        rows = json.loads(text)
        rows["jobs"][0]["n_clusters"] += 1
        text = json.dumps(rows)
    elif artifact == "trajectory.jsonl":
        text = "".join(text.splitlines(keepends=True)[:-1])
    else:
        text = text.replace(text.split(",")[0], "0.125", 1)
    path.write_text(text)
    runner.check_outputs()
    assert runner.failed() == 1


def test_structure_control_catches_a_verify_that_checks_less(tmp_path):
    runner = run.Runner(WORKLOADS["ave-exact-verify"], 5, True, REPO / "src", tmp_path)
    runner.structure_control()
    assert runner.failed() == 0
    records = [json.loads(line) for line in (tmp_path / "structure.jsonl").read_text().splitlines()]
    assert spans.verify_structure(records) == []
    check = next(r for r in records if r["name"] == "properties.check.per-topic-refinement")
    fewer = [r for r in records if check["id"] not in (r["id"], r["parent"])]
    assert spans.verify_structure(fewer) == ["verify ran property check per-topic-refinement 0 times, expected once"]
    unreplayed = [r for r in records if r["name"] != "sim.run"]
    assert spans.verify_structure(unreplayed) == ["verify made 0 sim.run calls, expected 1"]


def test_peak_rss_is_the_workers_own(tmp_path):
    ballast = b"x" * (64 * 2**20)  # raises the harness's own peak resident set
    r = run.launch(REPO / "src", {"argv": WORKLOADS["ave-float-run"].argv(1, True, tmp_path), "mode": "plain"})
    assert r["rc"] == 0 and r["maxrss_kb"] < len(ballast) // 1024


def test_step_count_unlike_the_baseline_is_flagged(tmp_path):
    w = WORKLOADS["ave-float-run"]
    runner = run.Runner(w, 1, False, REPO / "src", tmp_path)
    recorded = json.loads((REPO / "perfbench" / "baseline.json").read_text())["counts"][w.name]["1"]["steps"]
    runner.ops = [{"base": w.input(1, 0, False), "steps": recorded[0]}]
    assert run.compare_baseline(runner, {}, False) == []
    runner.ops[0]["steps"] += 1
    assert run.compare_baseline(runner, {}, False) == [
        f"input {w.input(1, 0, False)}: {recorded[0] + 1} steps, baseline {recorded[0]}"
    ]


def test_without_the_program_it_fails_without_a_result(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("ave-float-run", seed=1, trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
