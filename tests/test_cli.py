"""Command dispatch, output formats, determinism, and exit codes."""

import json
import math

import pytest

from conftest import height3_pair, split_timing_pair, underflow_tree
from nested_sinkhorn import flat_nested_lp, parse_tree, serialize_tree, wasserstein_distance
from nested_sinkhorn import cli
from nested_sinkhorn.cli import RunConfig, main, run

TIMING_COLUMNS = {"wall_time_s", "wall_time_exact_s", "wall_time_sinkhorn_s", "acceleration"}


def write_pair(tmp_path, pair):
    tree_a, tree_b = pair
    path_a = tmp_path / "a.json"
    path_b = tmp_path / "b.json"
    path_a.write_text(serialize_tree(tree_a), encoding="utf-8")
    path_b.write_text(serialize_tree(tree_b), encoding="utf-8")
    return str(path_a), str(path_b)


def csv_rows(text):
    lines = [line for line in text.strip().splitlines() if line]
    header = lines[0].split(",")
    return header, [dict(zip(header, line.split(","))) for line in lines[1:]]


def strip_timings(text):
    header, rows = csv_rows(text)
    keep = [column for column in header if column not in TIMING_COLUMNS]
    return [tuple(row[column] for column in keep) for row in rows]


class TestCommands:
    def test_nested_matches_flat_oracle(self, tmp_path, capsys):
        pair = height3_pair()
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["nested", "--tree-a", path_a, "--tree-b", path_b, "--r", "1"]) == 0
        header, rows = csv_rows(capsys.readouterr().out)
        assert header[:3] == ["nd", "r", "stages"]
        flat_value, _ = flat_nested_lp(*pair, 1.0)
        assert float(rows[0]["nd"]) == pytest.approx(flat_value, abs=1e-8)

    def test_wasserstein(self, tmp_path, capsys):
        pair = split_timing_pair(0.1)
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["wasserstein", "--tree-a", path_a, "--tree-b", path_b]) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        assert float(rows[0]["distance"]) == pytest.approx(0.05, abs=1e-12)

    def test_sinkhorn_within_flat_bound(self, tmp_path, capsys):
        # on a 2x2 instance the regularized cost exceeds the exact value by
        # at most log(2*2)/lambda
        pair = split_timing_pair(0.1)
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["sinkhorn", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambda", "20"]) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        d_s = float(rows[0]["d_s"])
        d_w = wasserstein_distance(*pair, 1.0)
        assert d_w - 1e-9 <= d_s <= d_w + (math.log(2) + math.log(2)) / 20.0 + 1e-9
        assert rows[0]["converged"] == "true"

    def test_nested_sinkhorn_row(self, tmp_path, capsys):
        pair = height3_pair()
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["nested-sinkhorn", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambda", "10"]) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        assert rows[0]["stage_subproblems"] == "1;2;8"
        assert float(rows[0]["nde_s"]) <= float(rows[0]["nd_s"])

    def test_sweep(self, tmp_path, capsys):
        pair = split_timing_pair(0.1)
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["sweep", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambdas", "0.5,2,20"]) == 0
        header, rows = csv_rows(capsys.readouterr().out)
        assert header[0] == "lambda"
        assert len(rows) == 3
        gap_first = abs(float(rows[0]["nd_s"]) - float(rows[0]["nd_w"]))
        gap_last = abs(float(rows[-1]["nd_s"]) - float(rows[-1]["nd_w"]))
        assert gap_last <= gap_first + 1e-8

    def test_verify_passes(self, tmp_path, capsys):
        pair = height3_pair()
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["verify", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambda", "5"]) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        assert len(rows) >= 9
        assert all(row["passed"] == "true" for row in rows)

    def test_verify_with_underflowed_plan_entries(self, tmp_path, capsys):
        tree = underflow_tree()
        path_a, path_b = write_pair(tmp_path, (tree, tree))
        assert main(["verify", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambda", "100"]) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        assert len(rows) == 9
        assert all(row["passed"] == "true" for row in rows)

    def test_gen_writes_tree(self, tmp_path, capsys):
        out = tmp_path / "tree.json"
        assert main(["gen", "--branching", "1,2,3,2,3,4", "--seed", "7",
                     "--out", str(out)]) == 0
        tree = parse_tree(out.read_text(encoding="utf-8"))
        assert tree.n_leaves == 144
        assert tree.height == 5

    def test_bench_difference_trend(self, capsys):
        assert main(["bench", "--max-stages", "3", "--seed", "0"]) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        assert [row["stages"] for row in rows] == ["1", "2", "3"]
        differences = [float(row["difference"]) for row in rows]
        assert all(d > 0.0 for d in differences)
        assert all(float(row["acceleration"]) > 0.0 for row in rows)


class TestOutputs:
    def test_json_schema(self, tmp_path, capsys):
        pair = split_timing_pair(0.1)
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["wasserstein", "--tree-a", path_a, "--tree-b", path_b,
                     "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"] == "wasserstein"
        assert isinstance(doc["rows"], list)
        assert doc["rows"][0]["distance"] == pytest.approx(0.05, abs=1e-12)

    def test_verify_json(self, tmp_path, capsys):
        pair = height3_pair()
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["verify", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambda", "5", "--output", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)["rows"]
        assert len(rows) == 9
        assert all(row["passed"] is True for row in rows)

    def test_nested_sinkhorn_json_stats(self, tmp_path, capsys):
        pair = height3_pair()
        path_a, path_b = write_pair(tmp_path, pair)
        args = ["nested-sinkhorn", "--tree-a", path_a, "--tree-b", path_b, "--lambda", "10"]
        assert main(args + ["--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        row, stats = doc["rows"][0], doc["stats"]
        assert [stage["stage"] for stage in stats] == [0, 1, 2]
        assert sum(stage["iterations"] for stage in stats) == row["iterations"]
        assert ";".join(str(stage["subproblems"]) for stage in stats) == row["stage_subproblems"]
        assert stats[2]["shapes"] == [[2, 2], [2, 3]]
        # the CSV report keeps its columns
        assert main(args) == 0
        header, _ = csv_rows(capsys.readouterr().out)
        assert "stats" not in header and len(header) == 10

    def test_csv_determinism_modulo_timings(self, tmp_path, capsys):
        pair = height3_pair()
        path_a, path_b = write_pair(tmp_path, pair)
        args = ["nested-sinkhorn", "--tree-a", path_a, "--tree-b", path_b,
                "--lambda", "7"]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert main(args) == 0
        second = capsys.readouterr().out
        assert strip_timings(first) == strip_timings(second)

    def test_gen_determinism(self, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["gen", "--branching", "1,3,2", "--seed", "5", "--out", str(out_a)]) == 0
        assert main(["gen", "--branching", "1,3,2", "--seed", "5", "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()

    def test_out_file(self, tmp_path):
        pair = split_timing_pair(0.1)
        path_a, path_b = write_pair(tmp_path, pair)
        target = tmp_path / "report.csv"
        assert main(["wasserstein", "--tree-a", path_a, "--tree-b", path_b,
                     "--out", str(target)]) == 0
        header, rows = csv_rows(target.read_text(encoding="utf-8"))
        assert header == ["distance", "r", "wall_time_s"]
        assert len(rows) == 1


class TestExitCodes:
    def test_missing_file(self, tmp_path, capsys):
        pair = split_timing_pair(0.1)
        _, path_b = write_pair(tmp_path, pair)
        assert main(["nested", "--tree-a", str(tmp_path / "nope.json"),
                     "--tree-b", path_b]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_tree(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nodes": [{"id": 0, "parent": null, "state": 0, "prob": 0.5}]}')
        pair = split_timing_pair(0.1)
        _, path_b = write_pair(tmp_path, pair)
        assert main(["nested", "--tree-a", str(bad), "--tree-b", path_b]) == 2

    def test_height_mismatch(self, tmp_path):
        early, _ = split_timing_pair(0.1)
        tree_a, _ = height3_pair()
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        path_a.write_text(serialize_tree(early))
        path_b.write_text(serialize_tree(tree_a))
        assert main(["nested", "--tree-a", str(path_a), "--tree-b", str(path_b)]) == 2

    def test_unconverged_is_status_one(self, tmp_path, capsys):
        pair = height3_pair()
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["nested-sinkhorn", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambda", "30", "--tol", "1e-13", "--max-iter", "2"]) == 1
        _, rows = csv_rows(capsys.readouterr().out)
        assert rows[0]["converged"] == "false"

    def test_unknown_command(self):
        config = RunConfig(command="nope")
        assert run(config) == 2

    @pytest.mark.parametrize("command", ["wasserstein", "sinkhorn", "nested",
                                         "nested-sinkhorn", "sweep", "verify"])
    def test_height_mismatch_message(self, tmp_path, capsys, command):
        early, _ = split_timing_pair(0.1)
        tree_a, _ = height3_pair()
        path_a, path_b = write_pair(tmp_path, (early, tree_a))
        assert main([command, "--tree-a", path_a, "--tree-b", path_b]) == 2
        assert "trees have different heights: 2 vs 3" in capsys.readouterr().err


def test_omitted_options_take_run_config_defaults(monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "run", seen.append)
    main(["bench"])
    main(["sinkhorn", "--tree-a", "a.json", "--tree-b", "b.json", "--lambda", "3"])
    main(["gen", "--branching", "1,2"])
    assert seen == [
        RunConfig(command="bench"),
        RunConfig(command="sinkhorn", tree_a="a.json", tree_b="b.json", lam=3.0),
        RunConfig(command="gen", branching=(1, 2)),
    ]
