import contextlib
import io
import json
import os
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hkmulti import cli
from hkmulti.cli import MAX_SEEDS, RunManifest, UsageError, _parse_seeds, main
from hkmulti.serialize import read_json, read_matrix_csv
from hkmulti import NumericPolicy

EXACT = NumericPolicy.exact()


def write_lines(path, text):
    path.write_text(text, encoding="utf-8")


@pytest.fixture
def three_agents(tmp_path):
    init = tmp_path / "init.csv"
    write_lines(init, "0,0\n1,1\n3,3\n")
    return init


def test_run_from_csv_and_verify(tmp_path, three_agents, capsys):
    out_dir = tmp_path / "out"
    code = main(
        [
            "run",
            "--model",
            "ave",
            "--epsilon",
            "1",
            "--mode",
            "exact",
            "--init",
            str(three_agents),
            "--max-steps",
            "50",
            "--out-dir",
            str(out_dir),
        ]
    )
    assert code == 0
    for name in ("manifest.json", "trajectory.jsonl", "summary.json", "final.csv"):
        assert (out_dir / name).exists()

    summary = read_json(out_dir / "summary.json")
    assert summary["terminated"] is True
    assert summary["termination_step"] == 1
    assert summary["outcome"] == "clustering"
    assert summary["partition"] == [[1, 2], [3]]
    assert summary["cluster_averages"] == ["1/2", "3"]
    assert summary["n_steps"] == 2

    final = read_matrix_csv(out_dir / "final.csv", EXACT)
    assert final.entries[0] == (Fraction(1, 2), Fraction(1, 2))
    assert final.entries[2] == (3, 3)

    capsys.readouterr()
    assert main(["verify", "--run-dir", str(out_dir)]) == 0
    assert "ok" in capsys.readouterr().out


def test_run_budget_exhaustion_exits_2(tmp_path):
    # [[0],[1],[2]] at epsilon 1 needs three steps; one step lands mid-flight
    init = tmp_path / "line.csv"
    write_lines(init, "0\n1\n2\n")
    code = main(
        [
            "run",
            "--model",
            "ave",
            "--epsilon",
            "1",
            "--mode",
            "exact",
            "--init",
            str(init),
            "--max-steps",
            "1",
            "--out-dir",
            str(tmp_path / "short"),
        ]
    )
    assert code == 2
    summary = read_json(tmp_path / "short" / "summary.json")
    assert summary["terminated"] is False
    assert summary["outcome"] == "not-terminated"


def test_run_budget_hits_fixed_point_without_observing_it(tmp_path, three_agents):
    # one step reaches the fixed point, but confirming it needs a second
    # step, so the run exits 2 while the snapshot classifies as clustering
    code = main(
        [
            "run",
            "--model",
            "ave",
            "--epsilon",
            "1",
            "--mode",
            "exact",
            "--init",
            str(three_agents),
            "--max-steps",
            "1",
            "--out-dir",
            str(tmp_path / "short"),
        ]
    )
    assert code == 2
    summary = read_json(tmp_path / "short" / "summary.json")
    assert summary["terminated"] is False
    assert summary["outcome"] == "clustering"


def test_run_is_reproducible_byte_for_byte(tmp_path):
    args = [
        "run",
        "--model",
        "uniform",
        "--epsilon",
        "4/5",
        "--mode",
        "exact",
        "--agents",
        "6",
        "--topics",
        "2",
        "--box",
        "-1",
        "1",
        "--seed",
        "13",
        "--max-steps",
        "100",
    ]
    assert main(args + ["--out-dir", str(tmp_path / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp_path / "b")]) == 0
    for name in ("manifest.json", "trajectory.jsonl", "summary.json", "final.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_large_scale_float_run_verifies(tmp_path, capsys):
    # average-reduction once held these means to an absolute 1e-9 and exited 3
    out = tmp_path / "large"
    argv = ["run", "--model", "ave", "--mode", "float", "--agents", "60", "--topics", "3"]
    argv += ["--epsilon", "3e6", "--box", "-10000000", "10000000", "--seed", "2"]
    assert main(argv + ["--out-dir", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--run-dir", str(out)]) == 0
    assert capsys.readouterr().out.startswith("ok:")


@pytest.mark.parametrize("lo, hi", [("-1e7", "1e7"), ("-1E+7", "2.5e7"), ("-.5e1", "-1e-3"), ("-2.", "2")])
def test_box_takes_negative_numbers_in_any_float_form(tmp_path, lo, hi):
    out = tmp_path / "box"
    argv = ["run", "--model", "ave", "--epsilon", "0.3", "--agents", "4", "--topics", "2"]
    assert main(argv + ["--seed", "1", "--box", lo, hi, "--out-dir", str(out)]) == 0
    assert read_json(out / "manifest.json")["init"]["box"] == [[float(lo), float(hi)]] * 2


@pytest.mark.parametrize(
    "box, message",
    [
        (["-1e7", "abc"], "invalid float value: 'abc'"),
        (["-1e7"], "expected 2 arguments"),
        (["-1e7", "--seed", "1"], "expected 2 arguments"),
    ],
)
def test_bad_box_exits_1(tmp_path, capsys, box, message):
    argv = ["run", "--model", "ave", "--epsilon", "0.3", "--agents", "4", "--topics", "2"]
    assert main(argv + ["--out-dir", str(tmp_path / "x"), "--box"] + box) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: argument --box: ") and message in err
    assert not (tmp_path / "x").exists()


def test_usage_errors_exit_1(tmp_path, three_agents):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["run", "--model", "ave"]) == 1
    assert main(["run", "--model", "nope", "--epsilon", "1", "--out-dir", "x"]) == 1
    # --init conflicts with sampling flags
    assert (
        main(
            [
                "run",
                "--model",
                "ave",
                "--epsilon",
                "1",
                "--init",
                str(three_agents),
                "--agents",
                "3",
                "--out-dir",
                str(tmp_path / "x"),
            ]
        )
        == 1
    )
    # sampling needs agents, topics and seed
    assert (
        main(
            [
                "run",
                "--model",
                "ave",
                "--epsilon",
                "1",
                "--agents",
                "3",
                "--out-dir",
                str(tmp_path / "x"),
            ]
        )
        == 1
    )
    assert (
        main(
            [
                "run",
                "--model",
                "ave",
                "--epsilon",
                "0",
                "--init",
                str(three_agents),
                "--out-dir",
                str(tmp_path / "x"),
            ]
        )
        == 1
    )
    # exact mode refuses tolerance overrides
    assert (
        main(
            [
                "run",
                "--model",
                "ave",
                "--epsilon",
                "1",
                "--mode",
                "exact",
                "--tau-fix",
                "1e-9",
                "--init",
                str(three_agents),
                "--out-dir",
                str(tmp_path / "x"),
            ]
        )
        == 1
    )
    # missing input file
    assert (
        main(
            [
                "run",
                "--model",
                "ave",
                "--epsilon",
                "1",
                "--init",
                str(tmp_path / "absent.csv"),
                "--out-dir",
                str(tmp_path / "x"),
            ]
        )
        == 1
    )
    assert main(["verify"]) == 1
    assert main(["verify", "--run-dir", str(tmp_path / "nowhere")]) == 1


def test_classify_stdout_and_file(tmp_path, capsys):
    state = tmp_path / "state.csv"
    write_lines(state, "1,1\n1,1\n3,0\n3,0\n")
    code = main(
        [
            "classify",
            "--model",
            "ave",
            "--epsilon",
            "3/10",
            "--mode",
            "exact",
            "--state",
            str(state),
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["outcome"] == "clustering"
    assert out["partition"] == [[1, 2], [3, 4]]
    assert out["min_average_separation"] == "1/2"

    target = tmp_path / "summary.json"
    code = main(
        [
            "classify",
            "--model",
            "uniform",
            "--epsilon",
            "0.3",
            "--state",
            str(state),
            "--out",
            str(target),
        ]
    )
    assert code == 0
    assert read_json(target)["outcome"] == "clustering"


def test_classify_violation_exits_3(tmp_path, capsys):
    # oversized fixed-point tolerance lets a non-terminal state through,
    # tripping the separation guarantee of the average-based model
    state = tmp_path / "state.csv"
    write_lines(state, "0\n0.4\n")
    code = main(
        [
            "classify",
            "--model",
            "ave",
            "--epsilon",
            "0.45",
            "--tau-fix",
            "0.5",
            "--state",
            str(state),
        ]
    )
    assert code == 3
    assert "property violation" in capsys.readouterr().err


def test_verify_detects_tampering(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert (
        main(
            [
                "run",
                "--model",
                "ave",
                "--epsilon",
                "1/2",
                "--mode",
                "exact",
                "--agents",
                "5",
                "--topics",
                "2",
                "--seed",
                "3",
                "--max-steps",
                "50",
                "--out-dir",
                str(out_dir),
            ]
        )
        == 0
    )
    path = out_dir / "trajectory.jsonl"
    lines = path.read_text().splitlines()
    first = json.loads(lines[0])
    first["state"][0][0] = "9/1"
    lines[0] = json.dumps(first, sort_keys=True, separators=(",", ":"))
    path.write_text("\n".join(lines) + "\n")

    capsys.readouterr()
    assert main(["verify", "--run-dir", str(out_dir)]) == 3
    err = capsys.readouterr().err
    assert "step 0: record differs from replay" in err


def test_verify_reads_the_trajectory_once(tmp_path, capsys, monkeypatch):
    out_dir = tmp_path / "out"
    argv = ["run", "--model", "ave", "--epsilon", "0.5", "--mode", "float",
            "--agents", "6", "--topics", "2", "--seed", "3", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    path = out_dir / "trajectory.jsonl"
    reads = []
    read_text = Path.read_text

    def counting(self, *args, **kwargs):
        if self == path:
            reads.append(self)
        return read_text(self, *args, **kwargs)

    monkeypatch.setattr(Path, "read_text", counting)
    assert main(["verify", "--run-dir", str(out_dir)]) == 0
    assert len(reads) == 1
    # the one copy serves both the parse (exit 1) and the compare (exit 3)
    lines = read_text(path).splitlines()
    path.write_text("\n".join(lines[:-1] + ["{"]) + "\n")
    assert main(["verify", "--run-dir", str(out_dir)]) == 1
    path.write_text("\n".join(lines[:-1]) + "\n")
    assert main(["verify", "--run-dir", str(out_dir)]) == 3
    assert len(reads) == 3


# each tamper edits the JSONL lines in place and returns the step it broke
def _drop_last_record(lines):
    del lines[-1]
    return len(lines)


def _bump_topic_range(lines):
    first = json.loads(lines[0])
    first["topic_ranges"][1] += 1e-9
    lines[0] = json.dumps(first, sort_keys=True, separators=(",", ":"))
    return 0


def _drop_key(key):
    def tamper(lines):
        first = json.loads(lines[0])
        del first[key]
        lines[0] = json.dumps(first, sort_keys=True, separators=(",", ":"))
        return 0

    return tamper


@pytest.mark.parametrize(
    "tamper",
    [_bump_topic_range, _drop_key("gamma"), _drop_key("windows"), _drop_last_record],
    ids=["topic-range", "no-gamma", "no-influence", "no-last-record"],
)
def test_verify_compares_float_records_with_the_replay(tmp_path, capsys, tamper):
    out_dir = tmp_path / "out"
    argv = ["run", "--model", "ave", "--epsilon", "0.5", "--mode", "float",
            "--agents", "6", "--topics", "2", "--seed", "3", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    path = out_dir / "trajectory.jsonl"
    lines = path.read_text().splitlines()
    assert len(lines) > 2 and "gamma" in json.loads(lines[0])
    step = tamper(lines)
    path.write_text("\n".join(lines) + "\n")

    capsys.readouterr()
    assert main(["verify", "--run-dir", str(out_dir)]) == 3
    assert f"step {step}: record differs from replay" in capsys.readouterr().err


def _set_record(index, key, edit):
    def tamper(lines):
        record = json.loads(lines[index])
        record[key] = edit(record[key])
        lines[index] = json.dumps(record, sort_keys=True, separators=(",", ":"))

    return tamper


def _set_first(key, edit):
    return _set_record(0, key, edit)


def _first_window(edit):
    """An edit of a record's ``windows`` that replaces the first window."""

    def tamper(windows):
        first = edit(*windows[0][0])
        return [[first] + windows[0][1:]] + windows[1:]

    return tamper


def _drop_from_first(key):
    def tamper(lines):
        first = json.loads(lines[0])
        del first[key]
        lines[0] = json.dumps(first, sort_keys=True, separators=(",", ":"))

    return tamper


@pytest.mark.parametrize("command", ["verify", "plotdata"])
@pytest.mark.parametrize(
    "tamper",
    [
        _set_first("windows", lambda windows: [pair for pairs in windows for pair in pairs]),
        _set_first("classes", lambda labels: [1.5] + labels[1:]),
        _set_first("topic_ranges", lambda ranges: ranges[0]),
        _set_first("topic_ranges", lambda ranges: ["wide"] + ranges[1:]),
        _set_first("gamma", lambda gamma: "half"),
        # JSON booleans are no numbers, though bool is an int
        _set_first("state", lambda rows: [[True] + row[1:] for row in rows]),
        _set_first("classes", lambda labels: [True] + labels[1:]),
        _set_first("topic_ranges", lambda ranges: [False] + ranges[1:]),
        _set_first("gamma", lambda gamma: True),
        # every record must have record 0's agents x topics
        _set_record(1, "state", lambda rows: [row[:1] for row in rows]),
        _set_record(1, "state", lambda rows: rows[:-1]),
        _drop_from_first("state"),
        _drop_from_first("step"),
        # a window is a run [lo, hi] of positions with lo <= hi
        _set_first("windows", _first_window(lambda lo, hi: [True, hi])),
        _set_first("windows", _first_window(lambda lo, hi: [0.0, hi])),
        _set_first("windows", _first_window(lambda lo, hi: [lo, hi, hi])),
        _set_first("windows", _first_window(lambda lo, hi: [hi + 1, hi])),
        _set_first("windows", _first_window(lambda lo, hi: [-1, hi])),
        _set_first("windows", lambda windows: [1]),
        _set_first("classes", lambda labels: labels[:-1]),
        # an order lists class numbers; the ave rule's one order is implied
        _set_first("orders", lambda orders: [1]),
        _set_first("orders", lambda orders: [[True]]),
        _set_first("orders", lambda orders: [[0.0]]),
        _set_first("orders", lambda orders: [[-1]]),
    ],
    ids=["influence-flat", "agent-not-int", "ranges-not-list", "range-not-number",
         "gamma-not-number", "state-bool", "agent-bool", "range-bool", "gamma-bool",
         "fewer-topics", "fewer-agents", "no-state", "no-step", "run-bool", "run-float",
         "run-triple", "run-reversed", "run-negative", "windows-not-rows", "classes-short",
         "orders-not-rows", "order-bool", "order-float", "order-negative"],
)
def test_malformed_diagnostics_exit_1(tmp_path, capsys, tamper, command):
    # the reader keeps only steps and states, but still type-checks the rest
    # and rejects a record whose shape or keys do not fit
    out_dir = tmp_path / "out"
    argv = ["run", "--model", "ave", "--epsilon", "1/2", "--mode", "exact",
            "--agents", "5", "--topics", "2", "--seed", "3", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    path = out_dir / "trajectory.jsonl"
    lines = path.read_text().splitlines()
    tamper(lines)
    path.write_text("\n".join(lines) + "\n")

    capsys.readouterr()
    if command == "verify":
        argv = ["verify", "--run-dir", str(out_dir)]
    else:
        argv = ["plotdata", "--trajectory", str(path), "--out-dir", str(tmp_path / "plot")]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")


def _widen_all(windows):
    # every class listens to every class: symmetric, and not the rule's graph
    (ends,) = windows
    return [[[0, len(ends) - 1]] * len(ends)]


def _widen_class_0(windows):
    # class 0 alone gains the class just past its window: no longer symmetric
    (ends,) = windows
    return [[[0, min(ends[0][1] + 1, len(ends) - 1)]] + ends[1:]]


@pytest.mark.parametrize("edit", [_widen_all, _widen_class_0], ids=["widened", "asymmetric"])
def test_verify_catches_tampered_runs(tmp_path, capsys, edit):
    # each window of the ave rule's one order is a run of classes
    out_dir = tmp_path / "out"
    argv = ["run", "--model", "ave", "--epsilon", "0.5", "--mode", "float",
            "--agents", "6", "--topics", "2", "--seed", "3", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    path = out_dir / "trajectory.jsonl"
    lines = path.read_text().splitlines()
    before = lines[0]
    _set_first("windows", edit)(lines)
    assert lines[0] != before
    path.write_text("\n".join(lines) + "\n")

    capsys.readouterr()
    assert main(["verify", "--run-dir", str(out_dir)]) == 3
    assert "step 0: record differs from replay" in capsys.readouterr().err


@pytest.fixture(scope="module")
def recorded_run(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("fuzz") / "out"
    argv = ["run", "--model", "ave", "--epsilon", "0.5", "--mode", "float",
            "--agents", "6", "--topics", "2", "--seed", "3", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    return out_dir


json_leaves = (
    st.none()
    | st.booleans()
    | st.integers(-2, 8)
    | st.integers()
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
)
json_values = st.recursive(
    json_leaves,
    lambda inner: st.lists(inner, max_size=6)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=30,
)
# near misses: the right nesting with small, possibly negative or reversed numbers
near_windows = st.lists(st.lists(st.lists(st.integers(-1, 8), max_size=3), max_size=8), max_size=3)
near_classes = st.lists(st.integers(-1, 8), max_size=8)
near_orders = st.lists(near_classes, max_size=3)


@settings(max_examples=150, deadline=None)
@given(
    key=st.sampled_from(["classes", "orders", "windows"]),
    value=st.one_of(json_values, near_windows, near_classes, near_orders),
)
def test_fuzzed_neighbor_fields_end_in_an_exit_code(recorded_run, key, value):
    recorded = (recorded_run / "trajectory.jsonl").read_text().splitlines()
    lines = list(recorded)
    _set_first(key, lambda _: value)(lines)
    tampered = recorded_run.parent / "tampered.jsonl"
    tampered.write_text("\n".join(lines) + "\n")
    argv = ["verify", "--manifest", str(recorded_run / "manifest.json"),
            "--trajectory", str(tampered)]
    # the ave rule's orders are [], which the fuzzer may draw unchanged
    assert _exit_code(argv) in ((1, 3) if lines != recorded else (0,))


def _exit_code(argv):
    """``main(argv)``'s exit code; exit 1 must come with an ``error:`` line.

    An exception that escapes ``main`` (a traceback) fails the test.
    """
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("error:")
    return code


def _key_paths(value, path=()):
    """Every key path into a JSON value, its own empty path first."""
    yield path
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        items = ()
    for key, item in items:
        yield from _key_paths(item, path + (key,))


def _put(value, path, new):
    """``value`` with ``new`` at ``path``, in place; the root path returns ``new``."""
    if not path:
        return new
    target = value
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = new
    return value


@pytest.fixture(scope="module")
def recorded_manifests(recorded_run, tmp_path_factory):
    """Manifests of a box-init float run and a matrix-init exact run."""
    out_dir = tmp_path_factory.mktemp("fuzz-matrix") / "out"
    init = out_dir.parent / "init.csv"
    write_lines(init, "0,1/2\n1,1\n3,-3\n")
    argv = ["run", "--model", "uniform", "--epsilon", "1", "--mode", "exact",
            "--init", str(init), "--out-dir", str(out_dir)]
    assert main(argv) == 0
    return [recorded_run, out_dir]


# a huge agent, topic or step count is a long run, not an input error
SIZE_KEYS = ("n_agents", "n_topics", "max_steps")
small_sizes = st.integers(-2, 8) | json_values.filter(
    lambda v: isinstance(v, bool) or not isinstance(v, int)
)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_fuzzed_manifests_end_in_an_exit_code(recorded_manifests, data):
    run_dir = data.draw(st.sampled_from(recorded_manifests))
    manifest = read_json(run_dir / "manifest.json")
    path = data.draw(st.sampled_from(list(_key_paths(manifest))))
    value = data.draw(small_sizes if path and path[-1] in SIZE_KEYS else json_values)
    tampered = run_dir.parent / "tampered-manifest.json"
    tampered.write_text(json.dumps(_put(manifest, path, value)))
    argv = ["verify", "--manifest", str(tampered),
            "--trajectory", str(run_dir / "trajectory.jsonl")]
    assert _exit_code(argv) in (0, 1, 3)


csv_cells = st.sampled_from(
    ["0", "1", "-1", "0.5", "-.25", "1/3", "-2/7", "1/0", "1e3", "1e308", "1e-320", "1e4300",
     "nan", "inf", "-inf", "0x10", "1_0", "True", "", " ", "9" * 40, "é"]
)
csv_texts = (
    st.lists(st.lists(csv_cells, max_size=4), max_size=6).map(
        lambda rows: "\n".join(",".join(row) for row in rows)
    )
    | st.text(alphabet="0123456789-+./eE, \t\r\n", max_size=40)
    | st.text(max_size=40)
)


@settings(max_examples=200, deadline=None)
@given(
    text=csv_texts,
    command=st.sampled_from(["run", "classify"]),
    model=st.sampled_from(["ave", "uniform"]),
    mode=st.sampled_from(["exact", "float"]),
)
def test_fuzzed_state_csvs_end_in_an_exit_code(tmp_path_factory, text, command, model, mode):
    work = tmp_path_factory.getbasetemp() / "fuzz-csv"
    work.mkdir(exist_ok=True)
    write_lines(work / "state.csv", text)
    argv = [command, "--model", model, "--mode", mode, "--epsilon", "1/2"]
    if command == "run":
        argv += ["--init", str(work / "state.csv"), "--max-steps", "5", "--out-dir", str(work / "out")]
    else:
        argv += ["--state", str(work / "state.csv")]
    _exit_code(argv)


@pytest.mark.parametrize("model", ["ave", "uniform"])
def test_run_rejects_a_step_that_overflows(tmp_path, capsys, model):
    # both rows are finite, but their column sum overflows to inf
    write_lines(tmp_path / "init.csv", "1.7e308,0\n1.7e308,0\n")
    argv = ["run", "--model", model, "--epsilon", "1", "--init", str(tmp_path / "init.csv"),
            "--out-dir", str(tmp_path / "out")]
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: opinion entries must be finite\n"


@pytest.mark.parametrize("key", ["epsilon", "entries"])
def test_verify_rejects_manifest_booleans(tmp_path, capsys, key):
    # a JSON true once ran as the number 1 and ended in exit 3
    out_dir = tmp_path / "out"
    write_lines(tmp_path / "init.csv", "0,0\n1,1\n3,3\n")
    argv = ["run", "--model", "ave", "--epsilon", "0.5", "--mode", "float",
            "--init", str(tmp_path / "init.csv"), "--out-dir", str(out_dir)]
    assert main(argv) == 0
    manifest = read_json(out_dir / "manifest.json")
    if key == "epsilon":
        manifest["epsilon"] = True
    else:
        manifest["init"]["entries"][1][0] = True
    (out_dir / "manifest.json").write_text(json.dumps(manifest))

    capsys.readouterr()
    assert main(["verify", "--run-dir", str(out_dir)]) == 1
    where = "manifest 'epsilon'" if key == "epsilon" else "manifest init 'entries'"
    assert capsys.readouterr().err.startswith(f"error: {where}: True is not a representable number")


def test_verify_rejects_unknown_manifest_revision(tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert (
        main(
            [
                "run",
                "--model",
                "ave",
                "--epsilon",
                "1",
                "--mode",
                "exact",
                "--agents",
                "3",
                "--topics",
                "1",
                "--seed",
                "1",
                "--out-dir",
                str(out_dir),
            ]
        )
        == 0
    )
    manifest = read_json(out_dir / "manifest.json")
    # revision 1 is the layout before tau_row was dropped
    old = {**manifest, "format_revision": 1}
    old["tolerances"] = {**manifest["tolerances"], "tau_row": 0.0}
    # revision 2 wrote N neighbor lists per record in place of classes and
    # runs, and revision 3 runs of classes in place of orders and windows
    revisions = [{**manifest, "format_revision": r} for r in (2, 3, 99)]
    for raw in [old] + revisions:
        (out_dir / "manifest.json").write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["verify", "--run-dir", str(out_dir)]) == 1
        assert capsys.readouterr().err.startswith("error: unsupported manifest revision")


def test_batch_sweep(tmp_path):
    target = tmp_path / "batch.json"
    code = main(
        [
            "batch",
            "--model",
            "uniform",
            "--epsilon",
            "0.8",
            "--agents",
            "10",
            "--topics",
            "2",
            "--box",
            "-1",
            "1",
            "--seeds",
            "0:8",
            "--max-steps",
            "100",
            "--threads",
            "2",
            "--out",
            str(target),
        ]
    )
    assert code == 0
    payload = read_json(target)
    assert payload["all_terminated"] is True
    assert [row["seed"] for row in payload["jobs"]] == list(range(8))
    assert [row["index"] for row in payload["jobs"]] == list(range(8))
    assert all(row["termination_step"] is not None for row in payload["jobs"])
    assert payload["n_agents"] == 10


@pytest.mark.parametrize("model", ["ave", "uniform"])
def test_run_steps_the_model_only_inside_the_run(tmp_path, model_steps, model):
    # the summary classifies the fixed point the run observed, without a re-step
    out_dir = tmp_path / "out"
    argv = ["run", "--model", model, "--epsilon", "1/2", "--mode", "exact",
            "--agents", "8", "--topics", "2", "--seed", "4", "--out-dir", str(out_dir)]
    assert main(argv) == 0
    summary = read_json(out_dir / "summary.json")
    assert summary["terminated"] is True
    assert len(model_steps) == summary["n_steps"]


@pytest.mark.parametrize("model", ["ave", "uniform"])
def test_batch_steps_the_model_only_inside_the_runs(tmp_path, model_steps, model):
    target = tmp_path / "batch.json"
    argv = ["batch", "--model", model, "--epsilon", "0.5", "--mode", "float",
            "--agents", "8", "--topics", "2", "--seeds", "0:6", "--threads", "2",
            "--out", str(target)]
    assert main(argv) == 0
    payload = read_json(target)
    assert payload["all_terminated"] is True
    assert len(model_steps) == sum(row["n_steps"] for row in payload["jobs"])


def test_batch_comma_seeds_and_budget(tmp_path):
    target = tmp_path / "batch.json"
    code = main(
        [
            "batch",
            "--model",
            "ave",
            "--epsilon",
            "0.5",
            "--agents",
            "8",
            "--topics",
            "2",
            "--seeds",
            "3,5,9",
            "--max-steps",
            "0",
            "--threads",
            "2",
            "--out",
            str(target),
        ]
    )
    assert code == 2
    payload = read_json(target)
    assert payload["all_terminated"] is False
    assert [row["seed"] for row in payload["jobs"]] == [3, 5, 9]
    assert all(row["outcome"] == "not-terminated" for row in payload["jobs"])


def test_batch_bad_seeds(tmp_path):
    for bad in ("", "a:b", "5:5", ","):
        assert (
            main(
                [
                    "batch",
                    "--model",
                    "ave",
                    "--epsilon",
                    "1",
                    "--agents",
                    "2",
                    "--topics",
                    "1",
                    "--seeds",
                    bad,
                    "--out",
                    str(tmp_path / "b.json"),
                ]
            )
            == 1
        )


@pytest.mark.parametrize("spec", ["0:1000000000000", f"7:{10**30}"])
def test_batch_rejects_huge_seed_ranges_at_once(tmp_path, capsys, spec):
    argv = ["batch", "--model", "ave", "--epsilon", "1", "--agents", "2", "--topics", "1"]
    started = time.perf_counter()
    assert main(argv + ["--seeds", spec, "--out", str(tmp_path / "b.json")]) == 1
    assert time.perf_counter() - started < 2.0
    assert f"error: --seeds {spec!r} selects more than {MAX_SEEDS} seeds" in capsys.readouterr().err
    assert not (tmp_path / "b.json").exists()


def test_batch_takes_a_negative_seed_range_in_both_spellings(tmp_path):
    # argparse once read "-3:2" as a flag, while "--seeds=-3:2" parsed
    argv = ["batch", "--model", "ave", "--epsilon", "0.5", "--agents", "5", "--topics", "2"]
    assert main(argv + ["--seeds", "-3:2", "--out", str(tmp_path / "a.json")]) == 0
    assert main(argv + ["--seeds=-3:2", "--out", str(tmp_path / "b.json")]) == 0
    jobs = read_json(tmp_path / "a.json")["jobs"]
    assert [job["seed"] for job in jobs] == [-3, -2, -1, 0, 1]
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_seed_range_limit_is_inclusive():
    assert _parse_seeds(f"5:{5 + MAX_SEEDS}") == list(range(5, 5 + MAX_SEEDS))
    with pytest.raises(UsageError):
        _parse_seeds(f"5:{6 + MAX_SEEDS}")


def test_plotdata(tmp_path, three_agents):
    out_dir = tmp_path / "out"
    assert (
        main(
            [
                "run",
                "--model",
                "ave",
                "--epsilon",
                "1",
                "--mode",
                "float",
                "--init",
                str(three_agents),
                "--max-steps",
                "50",
                "--out-dir",
                str(out_dir),
            ]
        )
        == 0
    )
    plot_dir = tmp_path / "plot"
    assert (
        main(
            [
                "plotdata",
                "--trajectory",
                str(out_dir / "trajectory.jsonl"),
                "--out-dir",
                str(plot_dir),
            ]
        )
        == 0
    )
    for name in ("topic_1.csv", "topic_2.csv", "averages.csv"):
        lines = (plot_dir / name).read_text().splitlines()
        assert len(lines) == 3
        cells = lines[0].split(",")
        assert cells[0] == "0" and len(cells) == 4


def test_version_smoke(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--model", "ave", "--mode", "exact", "--epsilon", "1", "--state"],
        ["batch", "--model", "uniform", "--epsilon", "0.5", "--agents", "4", "--topics", "2"]
        + ["--seeds", "0:3"],
    ],
    ids=["classify", "batch"],
)
def test_closed_stdout_exits_1_quietly(tmp_path, argv):
    # a real pipe whose read end is closed before the child writes; the
    # quiet exit redirects fd 1, so it runs in a child process
    if argv[-1] == "--state":
        write_lines(tmp_path / "s.csv", "0,0\n1/2,1/2\n3,3\n")
        argv = [*argv, str(tmp_path / "s.csv")]
    # a buffered stdout, so the short output reaches the pipe only at the flush
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hkmulti.cli", *argv],
            env=env,
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=30,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    # at most batch's own progress line: no error line, no traceback and
    # no "Exception ignored" from the flush at exit
    assert proc.stderr in ("", "3/3 runs terminated; results in stdout\n")


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "hkmulti.cli", "--version"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "0.1.0"


def test_manifest_round_trip():
    manifest = RunManifest(
        model="uniform",
        mode="exact",
        epsilon=Fraction(4, 5),
        max_steps=100,
        tau_fix=0.0,
        tau_cluster=0.0,
        init={
            "kind": "box",
            "n_agents": 4,
            "n_topics": 2,
            "box": [[-1.0, 1.0], [-1.0, 1.0]],
            "seed": 7,
            "generator": "python-random-mt19937",
        },
    )
    raw = json.loads(json.dumps(manifest.to_dict()))
    back = RunManifest.from_dict(raw)
    assert back.epsilon == Fraction(4, 5)
    assert back.config().model == "uniform"
    assert back.initial_state().entries == manifest.initial_state().entries
    for revision in (1, 2, 3):
        with pytest.raises(ValueError, match="revision"):
            RunManifest.from_dict({**raw, "format_revision": revision})
    bad = dict(raw)
    bad["init"] = {**raw["init"], "generator": "other"}
    with pytest.raises(ValueError):
        RunManifest.from_dict(bad).initial_state()


def _manifest_dict(**changes):
    raw = {
        "format_revision": cli.FORMAT_REVISION,
        "model": "ave",
        "mode": "exact",
        "epsilon": "1",
        "max_steps": 5,
        "tolerances": {"tau_fix": 0.0, "tau_cluster": 0.0},
        "init": {"kind": "matrix", "entries": [["0"], ["1/2"]]},
    }
    raw.update(changes)
    return raw


CLASSIFY_S = ["classify", "--model", "ave", "--epsilon", "1", "--state", "s.csv"]
VERIFY_M = ["verify", "--manifest", "m.json", "--trajectory", "t.jsonl"]
NESTED = "[" * 200000
RUN_EPS = ["run", "--model", "ave", "--agents", "3", "--topics", "1", "--seed", "1",
           "--out-dir", "out", "--epsilon"]


@pytest.mark.parametrize(
    "files, argv, named",
    [
        pytest.param({"s.csv": "1e400,0\n"}, CLASSIFY_S, None, id="csv-overflow"),
        pytest.param({"s.csv": "1/0,1\n"}, CLASSIFY_S, None, id="csv-zero-division"),
        # Fraction would build 10**30000000 for these: far past the time bound
        pytest.param({"s.csv": "1e-30000000\n"}, CLASSIFY_S, None, id="csv-huge-exponent"),
        pytest.param(
            {"s.csv": "1e-30000000\n"}, CLASSIFY_S + ["--mode", "exact"],
            None,
            id="csv-huge-exponent-exact",
        ),
        pytest.param({}, RUN_EPS + ["1e400"], None, id="flag-overflow"),
        pytest.param({}, RUN_EPS + ["1e-30000000"], None, id="flag-huge-exponent"),
        pytest.param(
            {"m.json": json.dumps(_manifest_dict(epsilon="1e-30000000")), "t.jsonl": ""},
            VERIFY_M,
            None,
            id="manifest-huge-exponent",
        ),
        pytest.param(
            {"m.json": json.dumps(_manifest_dict(epsilon="1/0")), "t.jsonl": ""},
            VERIFY_M,
            None,
            id="manifest-zero-division",
        ),
        pytest.param(
            {"m.json": json.dumps(_manifest_dict(epsilon=None)), "t.jsonl": ""},
            VERIFY_M,
            None,
            id="manifest-null",
        ),
        pytest.param(
            {"t.jsonl": '{"state":[["1/0"]],"step":0}\n'},
            ["plotdata", "--trajectory", "t.jsonl", "--out-dir", "out"],
            None,
            id="jsonl-zero-division",
        ),
        pytest.param(
            {"m.json": json.dumps(_manifest_dict(max_steps=None)), "t.jsonl": ""},
            VERIFY_M,
            None,
            id="manifest-max-steps-null",
        ),
        pytest.param(
            {
                "m.json": json.dumps(
                    _manifest_dict(
                        mode="float",
                        tolerances={"tau_fix": "1e-9", "tau_cluster": 0},
                    )
                ),
                "t.jsonl": "",
            },
            VERIFY_M,
            None,
            id="manifest-tolerance-string",
        ),
        pytest.param(
            {
                "m.json": json.dumps(
                    _manifest_dict(
                        init={"kind": "box", "n_agents": None, "n_topics": 1,
                              "box": [[0, 1]], "seed": 1,
                              "generator": "python-random-mt19937"},
                    )
                ),
                "t.jsonl": "",
            },
            VERIFY_M,
            None,
            id="manifest-box-agents-null",
        ),
        pytest.param(
            {"t.jsonl": '{"state":5,"step":0}\n'},
            ["plotdata", "--trajectory", "t.jsonl", "--out-dir", "out"],
            None,
            id="jsonl-state-int",
        ),
        # json.loads raises RecursionError on input nested this deep
        pytest.param({"m.json": NESTED, "t.jsonl": ""}, VERIFY_M, None, id="manifest-nested"),
        pytest.param(
            {"m.json": json.dumps(_manifest_dict()), "t.jsonl": NESTED + "\n"},
            VERIFY_M,
            None,
            id="jsonl-nested",
        ),
        pytest.param(
            {"t.jsonl": NESTED + "\n"},
            ["plotdata", "--trajectory", "t.jsonl", "--out-dir", "out"],
            None,
            id="jsonl-nested-plotdata",
        ),
        # exact values whose digits str() cannot print: rejected on input,
        # before run creates its output directory
        pytest.param({}, RUN_EPS + ["1e4300", "--mode", "exact"], "'1e4300'",
                     id="flag-digit-limit"),
        pytest.param({}, RUN_EPS + ["12e4299", "--mode", "exact"], "'12e4299'",
                     id="flag-digit-limit-mantissa"),
        pytest.param({}, RUN_EPS + ["1e-4300", "--mode", "exact"], "'1e-4300'",
                     id="flag-digit-limit-negative-exponent"),
        pytest.param(
            {"s.csv": "1e4300\n0\n"},
            ["run", "--model", "ave", "--mode", "exact", "--epsilon", "1", "--init", "s.csv",
             "--out-dir", "out"],
            "'1e4300'",
            id="csv-digit-limit",
        ),
    ],
)
def test_unrepresentable_numbers_exit_1_without_traceback(tmp_path, files, argv, named):
    for name, text in files.items():
        write_lines(tmp_path / name, text)
    argv = [str(tmp_path / a) if a in files or a == "out" else a for a in argv]
    proc = subprocess.run(
        [sys.executable, "-m", "hkmulti.cli", *argv], capture_output=True, text=True,
        timeout=10,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr
    # each manifest case must fail on its own key, not on the revision
    assert "revision" not in proc.stderr
    if named is not None:
        assert f"{named} is not a representable number" in proc.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "raw, key",
    [
        ({k: v for k, v in _manifest_dict().items() if k != "mode"}, "'mode'"),
        (_manifest_dict(init="x"), "'init'"),
        (_manifest_dict(tolerances=[]), "'tolerances'"),
        (_manifest_dict(tolerances={"tau_fix": 0.0}), "'tau_cluster'"),
    ],
    ids=["no-mode", "init-not-object", "tolerances-not-object", "no-tolerance"],
)
def test_verify_names_the_bad_manifest_key(tmp_path, capsys, raw, key):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(raw))
    (tmp_path / "trajectory.jsonl").write_text("")
    with pytest.raises(ValueError, match=key):
        RunManifest.from_dict(raw)
    capsys.readouterr()
    assert main(["verify", "--run-dir", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: manifest") and key in err


_BOX_INIT = {"kind": "box", "n_agents": 3, "n_topics": 2, "box": [[-1.0, 1.0], [-1.0, 1.0]],
             "seed": 1, "generator": "python-random-mt19937"}
_BOX_PAIRS = "error: manifest init 'box' must hold [lo, hi] pairs of numbers"


@pytest.mark.parametrize(
    "raw, line",
    [
        (_manifest_dict(epsilon=[4, 4]),
         "error: manifest 'epsilon': [4, 4] is not a representable number"),
        (_manifest_dict(init={"kind": "matrix", "entries": [[None], ["1/2"]]}),
         "error: manifest init 'entries': None is not a representable number"),
        (_manifest_dict(init={**_BOX_INIT, "box": [[-1.0], [-1.0, 1.0]]}), _BOX_PAIRS),
        (_manifest_dict(init={**_BOX_INIT, "box": [[-1.0, 1.0, 2.0], [-1.0, 1.0]]}), _BOX_PAIRS),
    ],
    ids=["epsilon-list", "entries-none", "box-pair-short", "box-pair-long"],
)
def test_manifest_error_lines_name_the_bad_key(tmp_path, capsys, raw, line):
    # these once read "[4, 4] is not a representable number" or "not
    # enough values to unpack", with no key named
    (tmp_path / "manifest.json").write_text(json.dumps(raw))
    (tmp_path / "trajectory.jsonl").write_text("")
    capsys.readouterr()
    assert main(["verify", "--run-dir", str(tmp_path)]) == 1
    assert capsys.readouterr().err == line + "\n"


def test_manifest_from_dict_builds_the_policy_once():
    back = RunManifest.from_dict(_manifest_dict(mode="float", epsilon="1/4"))
    assert back.epsilon == 0.25 and isinstance(back.epsilon, float)
    assert back.policy() == NumericPolicy.floating(0.0, 0.0)
    with pytest.raises(ValueError, match="tau_fix"):
        tolerances = {"tau_fix": -1.0, "tau_cluster": 0.0}
        RunManifest.from_dict(_manifest_dict(mode="float", tolerances=tolerances))
