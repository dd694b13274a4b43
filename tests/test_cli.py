"""Command dispatch, output formats, determinism, and exit codes."""

import argparse
import json
import math

import pytest

from conftest import (height3_pair, overflow_pair, split_timing_pair, square_pair, underflow_tree,
                      uneven_tree)
from nested_sinkhorn import (cost_matrix, flat_nested_lp, generate_random_tree,
                             nested_sinkhorn, parse_tree, serialize_tree, wasserstein_distance)
from nested_sinkhorn import cli, nested
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

    def test_verify_solves_once(self, tmp_path, capsys, monkeypatch):
        # one exact and one regularized recursion, each solving every stage once
        calls = []
        solve_stagewise = nested._solve_stagewise

        def counted(tree_a, tree_b, leaf_cost, solve_group):
            calls.append("exact" if solve_group is nested._lp_group else "sinkhorn")
            return solve_stagewise(tree_a, tree_b, leaf_cost, solve_group)

        monkeypatch.setattr(nested, "_solve_stagewise", counted)
        path_a, path_b = write_pair(tmp_path, height3_pair())
        assert main(["verify", "--tree-a", path_a, "--tree-b", path_b, "--lambda", "5"]) == 0
        assert sorted(calls) == ["exact", "sinkhorn"]

    def test_verify_builds_the_leaf_cost_once(self, tmp_path, capsys, monkeypatch):
        # the regularized run takes the exact run's cost matrix, and the
        # reports read it off the regularized run
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return cost_matrix(*args, **kwargs)

        monkeypatch.setattr(nested, "cost_matrix", counted)
        path_a, path_b = write_pair(tmp_path, height3_pair())
        assert main(["verify", "--tree-a", path_a, "--tree-b", path_b, "--lambda", "5"]) == 0
        assert len(calls) == 1

    def test_verify_fails_on_unconverged_run(self, tmp_path, capsys, monkeypatch):
        # the [1,3,3,3] seed-0 and seed-10 pair at lambda 5 with the bound
        # run's sweep cap at 40, below the first sweep block: 3x3 subproblems
        # stop at the cap unconverged, before any Newton step, while every
        # bound row still passes
        monkeypatch.setattr(nested, "BOUND_MAX_ITER", 40)
        pair = (generate_random_tree((1, 3, 3, 3), 0), generate_random_tree((1, 3, 3, 3), 10))
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["verify", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambda", "5"]) == 1
        _, rows = csv_rows(capsys.readouterr().out)
        assert [row["report"] for row in rows] == ["bounds"] * 4 + ["equivalence"]
        assert all(row["passed"] == "true" for row in rows[:4])
        assert rows[-1]["check"] == "converged" and rows[-1]["passed"] == "false"

    def test_verify_reports_stalled_subproblems(self, tmp_path, capsys):
        # the same pair at lambda 2000: one 3x3 stage-1 and four 3x3 stage-2
        # subproblems stop at the round-off floor, above their per-stage
        # tolerance 1e-12 / 3, and the json stats count them
        pair = (generate_random_tree((1, 3, 3, 3), 0), generate_random_tree((1, 3, 3, 3), 10))
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["verify", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambda", "2000", "--output", "json"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert all(row["passed"] is True for row in doc["rows"][:4])
        assert doc["rows"][-1]["check"] == "converged"
        assert [stage["stalled"] for stage in doc["stats"]] == [0, 1, 4]

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

    def test_sinkhorn_json_log_domain(self, tmp_path, capsys):
        # max |lambda * cost| = 4200 sends the flat solve to the log-domain loop
        pair = split_timing_pair(0.1)
        assert 2000.0 * cost_matrix(*pair, 1.0).max() > 600.0
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["sinkhorn", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambda", "2000", "--output", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["rows"][0]
        assert row["converged"] is True
        d_w = wasserstein_distance(*pair, 1.0)
        assert row["de_s"] - 1e-12 <= d_w <= row["d_s"] + 1e-12

    def test_verify_json(self, tmp_path, capsys):
        pair = height3_pair()
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["verify", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambda", "5", "--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        rows = doc["rows"]
        assert len(rows) == 9
        assert all(row["passed"] is True for row in rows)
        # the stats of the one run every row checks: the bound report's
        res = nested_sinkhorn(*pair, 1.0, 5.0, tol=1e-12, max_iter=200_000)
        assert [stage["newton"] for stage in doc["stats"]] == [s.newton for s in res.stats]
        assert sum(stage["iterations"] for stage in doc["stats"]) == res.total_iterations

    def test_verify_prints_the_reports_rows(self, tmp_path, capsys):
        # every report's rows in its own order: the bound rows with their
        # slack, the equivalence and martingale rows with their residual
        pair = height3_pair()
        bounds = nested.nested_bound_report(*pair, 1.0, 5.0)
        sink = bounds.regularized
        expected = [("bounds", c.name, c.passed, c.slack) for c in bounds.checks]
        for report, checks in (("equivalence", nested.verify_entropic_equivalence(sink).checks),
                               ("martingale", nested.martingale_check(sink).checks)):
            expected += [(report, c.name, c.passed, c.value) for c in checks]
        assert len(expected) == 9
        path_a, path_b = write_pair(tmp_path, pair)
        args = ["verify", "--tree-a", path_a, "--tree-b", path_b, "--lambda", "5"]
        assert main(args + ["--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        keys = ("report", "check", "passed", "value")
        assert [tuple(row[key] for key in keys) for row in doc["rows"]] == expected
        assert main(args) == 0
        _, rows = csv_rows(capsys.readouterr().out)
        assert ([(row["report"], row["check"], row["passed"]) for row in rows]
                == [(report, name, "true" if passed else "false")
                    for report, name, passed, _ in expected])
        assert [float(row["value"]) for row in rows] == pytest.approx(
            [value for *_, value in expected], rel=1e-9, abs=0)

    def test_nested_sinkhorn_json_stats(self, tmp_path, capsys):
        pair = uneven_tree(4), uneven_tree(5)
        path_a, path_b = write_pair(tmp_path, pair)
        args = ["nested-sinkhorn", "--tree-a", path_a, "--tree-b", path_b, "--lambda", "10"]
        assert main(args + ["--output", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        row, stats = doc["rows"][0], doc["stats"]
        assert [stage["stage"] for stage in stats] == [0, 1, 2]
        assert sum(stage["iterations"] for stage in stats) == row["iterations"]
        newton = [stage.newton for stage in nested_sinkhorn(*pair, 1.0, 10.0).stats]
        assert [stage["newton"] for stage in stats] == newton and sum(newton) > 0
        assert ";".join(str(stage["subproblems"]) for stage in stats) == row["stage_subproblems"]
        assert stats[1]["shapes"] == [[1, 3], [3, 3]]
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

    def test_non_finite_tree(self, tmp_path, capsys):
        early, late = split_timing_pair(0.1)
        _, path_b = write_pair(tmp_path, (early, late))
        bad = tmp_path / "bad.json"
        # NaN is written as the JSON extension NaN; 10**400 as an integer
        # beyond the float range
        for key, value, message in [("prob", math.nan, "prob of node 1 must be a finite"),
                                    ("state", 10**400, "state of node 1 is beyond the float"),
                                    ("prob", 10**400, "prob of node 1 is beyond the float")]:
            doc = json.loads(serialize_tree(early))
            doc["nodes"][1][key] = value
            bad.write_text(json.dumps(doc))
            assert main(["nested", "--tree-a", str(bad), "--tree-b", path_b]) == 2
            assert message in capsys.readouterr().err

    def test_height_mismatch(self, tmp_path):
        early, _ = split_timing_pair(0.1)
        tree_a, _ = height3_pair()
        path_a = tmp_path / "a.json"
        path_b = tmp_path / "b.json"
        path_a.write_text(serialize_tree(early))
        path_b.write_text(serialize_tree(tree_a))
        assert main(["nested", "--tree-a", str(path_a), "--tree-b", str(path_b)]) == 2

    def test_unconverged_is_status_one(self, tmp_path, capsys):
        pair = square_pair()
        path_a, path_b = write_pair(tmp_path, pair)
        assert main(["nested-sinkhorn", "--tree-a", path_a, "--tree-b", path_b,
                     "--lambda", "30", "--tol", "1e-13", "--max-iter", "2"]) == 1
        _, rows = csv_rows(capsys.readouterr().out)
        assert rows[0]["converged"] == "false"

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command in ("wasserstein", "nested", "verify")
        for flag in ("--tol", "--max-iter")
    ] + [("gen", flag) for flag in ("--r", "--tol", "--max-iter", "--output")])
    def test_removed_flag_is_status_two(self, tmp_path, capsys, command, flag):
        value = "csv" if flag == "--output" else "1"
        path_a, path_b = write_pair(tmp_path, split_timing_pair(0.1))
        args = (["--branching", "1,2"] if command == "gen"
                else ["--tree-a", path_a, "--tree-b", path_b])
        with pytest.raises(SystemExit) as exc:
            main([command, *args, flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    @pytest.mark.parametrize("command, setting, value, message", [
        ("nested-sinkhorn", "--lambda", "nan", "regularization parameter"),
        ("nested-sinkhorn", "--lambda", "inf", "regularization parameter"),
        ("sinkhorn", "--lambda", "nan", "regularization parameter"),
        ("nested-sinkhorn", "--tol", "nan", "tolerance"),
        ("sinkhorn", "--tol", "inf", "tolerance"),
        ("nested", "--r", "nan", "order r"),
        ("nested-sinkhorn", "--r", "inf", "order r"),
        ("wasserstein", "--r", "nan", "order r"),
    ])
    def test_non_finite_setting(self, tmp_path, capsys, command, setting, value, message):
        path_a, path_b = write_pair(tmp_path, height3_pair())
        assert main([command, "--tree-a", path_a, "--tree-b", path_b, setting, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and value in captured.err

    @pytest.mark.parametrize("command, args", [
        ("sweep", ["--lambdas", "1,nan"]),
        ("sweep", ["--lambdas", "inf"]),
        ("verify", ["--lambda", "nan"]),
        ("bench", ["--lambda", "nan"]),
        ("sweep", ["--tol", "nan"]),
        ("sweep", ["--max-iter", "0"]),
        ("bench", ["--tol", "nan"]),
        ("bench", ["--max-iter", "0"]),
    ])
    def test_non_finite_lambda_fails_before_the_exact_solve(self, tmp_path, capsys, monkeypatch,
                                                            command, args):
        # and so does every other bad solver setting
        message = {
            "--lambdas": "regularization parameter must be positive and finite",
            "--lambda": "regularization parameter must be positive and finite",
            "--tol": "tolerance must be positive and finite, got nan",
            "--max-iter": "max_iter must be an integer of at least 1, got 0",
        }[args[0]]
        calls = []
        monkeypatch.setattr(nested, "nested_exact", lambda *a, **k: calls.append(a))
        path_a, path_b = write_pair(tmp_path, height3_pair())
        trees = [] if command == "bench" else ["--tree-a", path_a, "--tree-b", path_b]
        assert main([command, *trees, *args]) == 2
        assert calls == []
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["wasserstein", "sinkhorn", "nested",
                                         "nested-sinkhorn", "sweep", "verify"])
    def test_overflowing_leaf_costs_are_status_two(self, tmp_path, capsys, command):
        path_a, path_b = write_pair(tmp_path, overflow_pair())
        assert main([command, "--tree-a", path_a, "--tree-b", path_b, "--r", "2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "trajectory costs overflow the float range at order r=2.0" in captured.err

    @pytest.mark.parametrize("grid", [",", ""])
    def test_empty_lambda_grid_is_status_two(self, tmp_path, capsys, grid):
        path_a, path_b = write_pair(tmp_path, height3_pair())
        assert main(["sweep", "--tree-a", path_a, "--tree-b", path_b, "--lambdas", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "lambda grid must be non-empty" in captured.err

    def test_empty_bench_is_status_two(self, capsys):
        assert main(["bench", "--max-stages", "0"]) == 2
        assert "--max-stages >= 1" in capsys.readouterr().err

    def test_short_bench_branching_fails_before_any_solve(self, capsys, monkeypatch):
        # the default branching lists serve 5 stages
        calls = []
        monkeypatch.setattr(cli, "lambda_sweep", lambda *a, **k: calls.append(a))
        assert main(["bench", "--max-stages", "6"]) == 2
        assert calls == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "benchmark branching lists are too short for 6 stages" in captured.err

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


# every option each command accepts; a flag no handler reads must not be listed
ACCEPTED_OPTIONS = {
    "wasserstein": {"--tree-a", "--tree-b", "--r", "--output", "--out"},
    "sinkhorn": {"--tree-a", "--tree-b", "--r", "--output", "--out", "--lambda", "--tol",
                 "--max-iter"},
    "nested": {"--tree-a", "--tree-b", "--r", "--output", "--out"},
    "nested-sinkhorn": {"--tree-a", "--tree-b", "--r", "--output", "--out", "--lambda",
                        "--tol", "--max-iter"},
    "sweep": {"--tree-a", "--tree-b", "--r", "--output", "--out", "--lambdas", "--tol",
              "--max-iter"},
    "verify": {"--tree-a", "--tree-b", "--r", "--output", "--out", "--lambda"},
    "gen": {"--branching", "--seed", "--out"},
    "bench": {"--r", "--output", "--out", "--lambda", "--tol", "--max-iter", "--branching-a",
              "--branching-b", "--max-stages", "--seed"},
}


def test_parser_is_built_once():
    assert cli._build_parser() is cli._build_parser()


def test_each_command_accepts_exactly_its_options():
    parser = cli._build_parser()
    (commands,) = [action.choices for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    accepted = {
        name: {flag for action in sub._actions for flag in action.option_strings} - {"-h", "--help"}
        for name, sub in commands.items()
    }
    assert accepted == ACCEPTED_OPTIONS
