import json
from fractions import Fraction

import pytest

from hkmulti import (
    NumericPolicy,
    OpinionMatrix,
    SimulationConfig,
    classify_outcome,
    contraction_factor,
    run,
)
from hkmulti.serialize import (
    RUN_ROW_FIELDS,
    csv_token,
    matrix_tokens,
    outcome_to_dict,
    read_matrix_csv,
    read_trajectory_jsonl,
    run_row,
    scalar_token,
    trajectory_lines,
    write_matrix_csv,
    write_trajectory_jsonl,
)

EXACT = NumericPolicy.exact()
FLOAT = NumericPolicy.floating()


def test_scalar_tokens():
    assert scalar_token(Fraction(3, 4), exact=True) == "3/4"
    assert scalar_token(Fraction(5, 1), exact=True) == "5"
    assert scalar_token(0.1, exact=False) == 0.1
    assert csv_token(Fraction(-1, 3), exact=True) == "-1/3"
    assert csv_token(0.1, exact=False) == "0.1"


def test_token_round_trip_is_exact():
    for value in (Fraction(1, 3), Fraction(-7, 20), Fraction(2)):
        assert EXACT.coerce(csv_token(value, True)) == value
    for value in (0.1, -0.25, 1 / 3, 1e-17):
        assert FLOAT.coerce(csv_token(value, False)) == value


def test_matrix_csv_round_trip(tmp_path):
    x = OpinionMatrix(((Fraction(1, 3), 2), (Fraction(-1, 4), Fraction(7, 10))))
    path = tmp_path / "state.csv"
    write_matrix_csv(path, x, exact=True)
    assert read_matrix_csv(path, EXACT).entries == x.entries
    # the same file parses into floats under a float policy
    y = read_matrix_csv(path, FLOAT)
    assert y.entries[0][0] == 1 / 3

    f = OpinionMatrix(((0.1, 0.2), (0.3, 0.4)))
    write_matrix_csv(path, f, exact=False)
    assert read_matrix_csv(path, FLOAT).entries == f.entries


def test_matrix_csv_rejects_empty(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("\n")
    with pytest.raises(ValueError):
        read_matrix_csv(path, EXACT)


def test_trajectory_jsonl_exact_round_trip(tmp_path):
    config = SimulationConfig("ave", 1, 50, EXACT)
    traj = run(config, OpinionMatrix(((0, 0), (1, 1), (3, 3))))
    path = tmp_path / "traj.jsonl"
    write_trajectory_jsonl(path, traj)

    records = read_trajectory_jsonl(path, EXACT)
    assert len(records) == traj.n_steps + 1
    for t, record in enumerate(records):
        assert record.step == t
        assert record.state.entries == traj.states[t].entries
    # step records carry the neighbor classes and windows and the
    # diagnostics; the final record carries none.  The means 0, 1 and 3 are
    # classes 0, 1 and 2 in their one order, and epsilon 1 joins the first two
    lines = [json.loads(line) for line in path.read_text().splitlines()]
    assert lines[0]["classes"] == [0, 1, 2]
    assert lines[0]["orders"] == []
    assert lines[0]["windows"] == [[[0, 1], [0, 1], [2, 2]]]
    assert lines[0]["gamma"] == str(contraction_factor(traj.reports[0].influence, exact=True))
    assert lines[0]["topic_ranges"] == ["3", "3"]
    assert lines[-1].keys() == {"step", "state"}


@pytest.mark.parametrize(
    "second, message",
    [
        ('{"step":1,"state":[[1],[3]]}', "record 1 'state' is 2 agents x 1 topics, record 0 is 2 x 2"),
        ('{"step":1,"state":[[1,2]]}', "record 1 'state' is 1 agents x 2 topics, record 0 is 2 x 2"),
        ('{"step":1}', "record 1 has no 'state' key"),
        ('{"state":[[1,2],[3,4]]}', "record 1 has no 'step' key"),
    ],
    ids=["fewer-topics", "fewer-agents", "no-state", "no-step"],
)
def test_trajectory_reader_names_a_bad_record(tmp_path, second, message):
    path = tmp_path / "t.jsonl"
    path.write_text('{"step":0,"state":[[1,2],[3,4]]}\n' + second + "\n")
    with pytest.raises(ValueError, match=message):
        read_trajectory_jsonl(path, FLOAT)


def test_uniform_trajectory_records_classes_and_runs():
    # each window is a run of positions in its topic's order
    config = SimulationConfig("uniform", 1.0, 20, FLOAT)
    traj = run(config, OpinionMatrix(((2.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.0, 1.0))))
    first = json.loads(trajectory_lines(traj)[0])
    # agents 2 and 4 share a row and agent 3 is within 1 of it on both topics
    assert len(first["classes"]) == 4
    classes = first["classes"]
    assert classes[1] == classes[3] != classes[2] != classes[0]
    # topic 0's order is the class numbers; on topic 1 classes 0, 1 and 2
    # hold 1, 0.5 and 0, so its order runs from class 2 to class 0
    assert first["orders"] == [[2, 1, 0]]
    orders = [[0, 1, 2]] + first["orders"]

    def window(order, windows, c):
        lo, hi = windows[order.index(c)]
        return set(order[lo : hi + 1])

    neighbors = [
        sorted(set.intersection(*map(window, orders, first["windows"], [c] * 2)))
        for c in classes
    ]
    assert neighbors[0] == [classes[0]]
    assert neighbors[1] == neighbors[2] == sorted({classes[1], classes[2]})
    assert "gamma" not in first


def dump(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_trajectory_lines_render_rows_as_json_dumps_does():
    # equal rows of distinct sign (0.0 and -0.0) keep their own text, and
    # every record is the sorted-key dump of its own parse
    x = OpinionMatrix(((0.0, 1.0), (-0.0, 1.0), (0.5, -0.0), (3.0, 3.0)))
    for model, policy, epsilon in (("ave", FLOAT, 1.0), ("uniform", FLOAT, 1.0), ("ave", EXACT, 1)):
        traj = run(SimulationConfig(model, epsilon, 20, policy), x)
        lines = trajectory_lines(traj)
        assert len(lines) == traj.n_steps + 1
        for line, state in zip(lines, traj.states):
            record = json.loads(line)
            assert line == dump(record)
            assert dump(record["state"]) == dump(matrix_tokens(state, policy.is_exact))
        if policy is FLOAT:
            assert json.loads(lines[0])["state"][:2] == [[0.0, 1.0], [-0.0, 1.0]]
            assert lines[0].count("-0.0") == 2


def test_trajectory_lines_deterministic():
    config = SimulationConfig("ave", Fraction(1, 2), 50, EXACT)
    x = OpinionMatrix(((Fraction(1, 10), 0), (Fraction(2, 5), 1)))
    a = trajectory_lines(run(config, x))
    b = trajectory_lines(run(config, x))
    assert a == b


def test_outcome_dict_is_one_based_and_tokenized():
    x = OpinionMatrix(((1, 1), (1, 1), (3, 0), (3, 0)))
    report = classify_outcome(x, Fraction(3, 10), EXACT, "ave", termination_step=2)
    out = outcome_to_dict(report, exact=True)
    assert out["outcome"] == "clustering"
    assert out["partition"] == [[1, 2], [3, 4]]
    assert out["average_partition"] == [[1, 2], [3, 4]]
    assert out["cluster_matrix"] == [["1", "1"], ["3", "0"]]
    assert out["cluster_averages"] == ["1", "3/2"]
    assert out["min_average_separation"] == "1/2"
    assert out["termination_step"] == 2
    assert out["n_clusters"] == 2
    json.dumps(out)


def test_outcome_dict_not_terminated():
    report = classify_outcome(OpinionMatrix(((0.0,), (0.1,))), 1.0, FLOAT, "ave")
    out = outcome_to_dict(report, exact=False)
    assert out["outcome"] == "not-terminated"
    assert out["partition"] is None
    assert out["n_clusters"] is None
    json.dumps(out)


def test_run_rows():
    x = OpinionMatrix(((0, 0), (1, 1), (3, 3)))
    done = run(SimulationConfig("ave", 1, 50, EXACT), x)
    row = run_row(done)
    assert tuple(row) == RUN_ROW_FIELDS
    assert row == {
        "terminated": True,
        "termination_step": 1,
        "n_steps": 2,
        "outcome": "clustering",
        "n_clusters": 2,
    }
    # one step short of the fixed point: the last state is not terminal
    cut = run(SimulationConfig("ave", 1, 0, EXACT), x)
    assert run_row(cut) == {
        "terminated": False,
        "termination_step": None,
        "n_steps": 0,
        "outcome": "not-terminated",
        "n_clusters": None,
    }
