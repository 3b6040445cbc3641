"""Check that production steps equal the bare-loop oracle bit for bit.

Stdlib only, so it runs on any supported interpreter without pytest:

    PYTHONPATH=src python3 scripts/oracle_identity.py [--cases 300] [--seed 1]

For random float and exact states it compares ``ave_step`` and
``uniform_step`` against ``oracle.naive_model_step`` by ``repr`` of every
entry, and the float contraction factor against the dense induced
seminorm of the averaging matrix.  In half the cases agents repeat a few
rows, as after clusters merge, with 0.0 and -0.0 mixed in.  Prints one
summary line per check and exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from hkmulti import (
    OpinionMatrix,
    ave_step,
    contraction_factor,
    naive_model_step,
    uniform_step,
)
from hkmulti.oracle import induced_disagreement_seminorm, row_normalize

STEPS = {"ave": ave_step, "uniform": uniform_step}


def random_case(rng: random.Random, exact: bool):
    n, m = rng.randint(1, 40), rng.randint(1, 4)
    scale = rng.choice((1.0, 1e3, 1e6))
    rows = [[rng.uniform(-scale, scale) for _ in range(m)] for _ in range(n)]
    if rng.random() < 0.5:
        pool = rows[: rng.randint(1, 5)]
        for row in pool:
            row[rng.randrange(m)] = rng.choice((0.0, -0.0))
        # zeros flip sign per agent, so equal rows may differ in it
        rows = [[-v if v == 0 and rng.random() < 0.5 else v for v in rng.choice(pool)] for _ in range(n)]
    eps = rng.uniform(0.05, 1.0) * scale
    if exact:
        return OpinionMatrix([[Fraction(v) for v in row] for row in rows]), Fraction(eps)
    return OpinionMatrix(rows), eps


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cases", type=int, default=300)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    rng = random.Random(args.seed)
    counts = {"step": [0, 0], "gamma": [0, 0]}
    for case in range(args.cases):
        exact = case % 4 == 3  # exact Fractions cost more; a quarter suffices
        x, eps = random_case(rng, exact)
        for model, step in STEPS.items():
            report = step(x, eps)
            want = naive_model_step(x, eps, model)
            counts["step"][0] += 1
            if repr(report.next_state.entries) != repr(want.entries):
                counts["step"][1] += 1
                print(f"case {case} {model}: step differs from the oracle")
            if not exact:
                phi = report.influence
                dense = induced_disagreement_seminorm(row_normalize(phi, False))
                counts["gamma"][0] += 1
                if repr(contraction_factor(phi, False)) != repr(dense):
                    counts["gamma"][1] += 1
                    print(f"case {case} {model}: gamma differs from the dense form")
    version = ".".join(map(str, sys.version_info[:3]))
    for name, (total, bad) in counts.items():
        print(f"python {version} {name}: {total - bad}/{total} identical")
    return 1 if any(bad for _, bad in counts.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
