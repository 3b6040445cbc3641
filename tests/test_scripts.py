import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hkmulti
from hkmulti.serialize import RUN_ROW_FIELDS

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, *argv, cwd):
    # the scripts import the package this test suite imports
    src = str(Path(hkmulti.__file__).resolve().parents[1])
    paths = [src, os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("seeds", ["0", "-3"])
def test_seed_sweep_rejects_fewer_than_one_seed(tmp_path, seeds):
    # --seeds 0 --out once ended in an IndexError traceback, and -3 printed "-3 runs"
    proc = run_script("seed_sweep.py", "--seeds", seeds, "--out", "f.csv", cwd=tmp_path)
    assert proc.returncode == 2
    assert f"error: --seeds must be at least 1, got {seeds}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert not (tmp_path / "f.csv").exists()


def test_seed_sweep_writes_one_row_per_seed(tmp_path):
    proc = run_script("seed_sweep.py", "--seeds", "3", "--agents", "5", "--out", "f.csv", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("3 runs, uniform model")
    with open(tmp_path / "f.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert tuple(rows[0]) == ("seed", *RUN_ROW_FIELDS)
    assert [row["seed"] for row in rows] == ["0", "1", "2"]
