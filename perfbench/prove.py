"""Run the benchmark over several seeds and report the run-to-run spread.

Usage (from the root of an hkmulti checkout):

    python3 perfbench/prove.py [--workloads a,b] [--seeds 1-10] [--out FILE]

Each (workload, seed) is one ``run.py --trace 0`` invocation with the run
length from BENCHMARK.json.  For every end-to-end metric this prints the
median of the per-run values, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread,
(Q3 - Q1) / median, next to the metric's bound.  Every seed runs twice in a
row, so two sets of the same code are measured in alternation and share
the machine's drift; how much worse the second set's median reads than the
first's is printed next to the bound as well.  ``--out`` writes the per-run
values and the summaries as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(tok) for tok in text.split(",")]


def summarize(runs: list[dict]) -> dict:
    summary = {}
    for metric in runs[0]["metrics"]:
        values = [r["metrics"][metric]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        summary[metric] = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}
    return summary


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    p.add_argument("--out", default=None)
    args = p.parse_args()
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    report = {}
    for name in args.workloads.split(","):
        sets = ([], [])
        for seed in args.seeds:
            for runs in sets:
                cmd = bench["command"] + [
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(bench["run_seconds"]), "--trace", "0",
                ]
                proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                runs.append({"seed": seed, **result})
                print(f"{name} seed {seed}: correct={result['correct']} failed={result['failed']}"
                      f"/{result['attempted']}", file=sys.stderr)
        summaries = [summarize(runs) for runs in sets]
        for metric, m in metrics.items():
            first = summaries[0][metric]
            for k, summary in enumerate(summaries):
                s = summary[metric]
                print(f"{name:<20} {metric:<18} set {k + 1}  median {s['median']:<12.5g} q1 {s['q1']:<12.5g}"
                      f" q3 {s['q3']:<12.5g} spread {s['spread']:.3f}  bound {m['bound']}"
                      f"  {'ok' if s['spread'] < m['bound'] / 3 else 'WIDE'}")
                if k:
                    # positive when the later set reads worse than the first
                    sign = 1 if m["better"] == "lower" else -1
                    worse = sign * (s["median"] - first["median"]) / first["median"]
                    print(f"{'':<20} {metric:<18} set {k + 1} vs set 1: {worse:+.3f} worse"
                          f"  {'ok' if worse <= m['bound'] else 'OUT OF BOUND'}")
        report[name] = {"sets": [{"runs": runs, "summary": summary} for runs, summary in zip(sets, summaries)]}
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
