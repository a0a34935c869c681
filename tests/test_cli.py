import argparse
import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import ptdep
from ptdep import ebayes, engine
from ptdep.cli import _check_level_sum, build_parser, read_matrix, run, write_result
from ptdep.diffscan import ExpressionMatrix
from ptdep.errors import EmptyMatrix, ParseError, RaggedRows
from ptdep.transforms import PairedSample

from test_readme_commands import run_case, write_fixtures


@pytest.fixture
def matrix_file(tmp_path):
    def make(text, name="m.csv"):
        path = tmp_path / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    return make


class TestReadMatrix:
    def test_basic_parse(self, matrix_file):
        m = read_matrix(matrix_file("a,b\n1,2\n3,4\n5,6\n7,8\n9,10\n"))
        assert m.n_samples == 5
        assert m.var_names == ("a", "b")
        assert m.values[0, 1] == 2.0

    def test_header_only_is_empty(self, matrix_file):
        with pytest.raises(EmptyMatrix):
            read_matrix(matrix_file("a,b\n"))

    def test_nan_cell_rejected_with_location(self, matrix_file):
        with pytest.raises(ParseError) as err:
            read_matrix(matrix_file("a,b\n1,2\n3,NaN\n"))
        assert err.value.line == 3
        assert err.value.column == 2

    def test_ragged_row(self, matrix_file):
        with pytest.raises(RaggedRows) as err:
            read_matrix(matrix_file("a,b\n1,2\n3\n"))
        assert err.value.line == 3

    def test_empty_cell(self, matrix_file):
        with pytest.raises(ParseError) as err:
            read_matrix(matrix_file("a,b\n1,\n"))
        assert err.value.line == 2

    def test_not_a_number(self, matrix_file):
        with pytest.raises(ParseError) as err:
            read_matrix(matrix_file("a,b\n1,x\n"))
        assert err.value.column == 2

    def test_byte_order_mark_ignored(self, tmp_path, capsys):
        text = "a,b\n1,2\n2,3.5\n3,1\n4,4\n5,4.5\n"
        plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert read_matrix(str(bom)).var_names == ("a", "b")
        outputs = []
        for path in (plain, bom):
            assert run(["test", str(path), "--x-col", "a", "--y-col", "b"]) == 0
            assert run(["scan", str(path)]) == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]

    def test_missing_file(self):
        with pytest.raises(ParseError):
            read_matrix("/nonexistent/file.csv")

    @pytest.mark.parametrize("text", ["a,b\n1,2\n3,4\n\n", "a,b\n\n1,2\n\n\n3,4\n",
                                      "a,b\r\n1,2\r\n\r\n3,4\r\n\r\n"])
    def test_blank_lines_skipped(self, matrix_file, text):
        assert read_matrix(matrix_file(text)).values.tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_error_after_blank_lines_counts_file_lines(self, matrix_file):
        with pytest.raises(RaggedRows) as err:
            read_matrix(matrix_file("a,b\n\n1,2\n\n3\n"))
        assert err.value.line == 5

    def test_error_after_quoted_line_break_counts_file_lines(self, matrix_file, capsys):
        # the quoted cell spans lines 2 and 3, so the short row is line 4
        path = matrix_file('a,b\n"1\n",2\n3\n')
        with pytest.raises(RaggedRows) as err:
            read_matrix(path)
        assert err.value.line == 4
        assert run(["test", path]) == 2
        assert capsys.readouterr().err == "error: expected 2 cells, found 1 (line 4)\n"

    def test_header_and_blank_lines_is_empty(self, matrix_file):
        with pytest.raises(EmptyMatrix):
            read_matrix(matrix_file("a,b\n\n\n"))

    @pytest.mark.parametrize("text, message", [
        ("", "file is empty (line 1)"),
        (",b\n1,2\n", "header contains an empty variable name (line 1)"),
        ("a, \n1,2\n", "header contains an empty variable name (line 1)"),
    ])
    def test_bad_header_exits_2_with_one_line(self, text, message, matrix_file, capsys):
        assert run(["test", matrix_file(text)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("text, error", [("a,b\n1,2\n  \n", RaggedRows),
                                             ("a\n1\n \n", ParseError)])
    def test_whitespace_line_is_an_error(self, matrix_file, text, error):
        with pytest.raises(error) as err:
            read_matrix(matrix_file(text))
        assert err.value.line == 3


def _write_matrix(m: ExpressionMatrix, path: str) -> None:
    """Inverse of read_matrix; 17-digit cells round-trip exactly."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(m.var_names)
        writer.writerows([format(float(v), ".17g") for v in row] for row in m.values)


class TestMatrixRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = ExpressionMatrix(
            values=rng.standard_normal((20, 3)) * 1e3, var_names=("a", "b", "c")
        )
        path = str(tmp_path / "round.csv")
        _write_matrix(m, path)
        back = read_matrix(path)
        assert back.var_names == m.var_names
        assert np.array_equal(back.values, m.values)


class TestTestCommand:
    def test_single_point_file(self, matrix_file, capsys):
        path = matrix_file("x,y\n1.5,2.5\n")
        assert run(["test", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["p_dependent"] == 0.5
        assert out["n"] == 1
        assert out["levels"] == []

    def test_constant_column_exits_3(self, matrix_file, capsys):
        path = matrix_file("x,y\n1,1\n1,2\n1,3\n")
        assert run(["test", path]) == 3
        assert "degenerate" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["basic", "ebayes"])
    def test_column_with_rounded_std_exits_3(self, method, matrix_file, capsys):
        xy = np.random.default_rng(17).normal(size=(200, 2)).tolist()
        rows = [f"{x!r},{y!r},3.85" for x, y in xy]
        path = matrix_file("a,b,c\n" + "\n".join(rows) + "\n")
        assert run(["test", path, "--x-col", "c", "--method", method]) == 3
        assert "zero spread" in capsys.readouterr().err

    def test_malformed_csv_exits_2(self, matrix_file, capsys):
        path = matrix_file("x,y\n1,2\n3\n")
        assert run(["test", path]) == 2
        assert "line 3" in capsys.readouterr().err

    def test_columns_by_name(self, matrix_file, capsys):
        rng = np.random.default_rng(1)
        rows = "\n".join(f"{x},{y},{x + y}" for x, y in rng.normal(size=(30, 2)))
        path = matrix_file("u,v,w\n" + rows + "\n")
        assert run(["test", path, "--x-col", "u", "--y-col", "w"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["n"] == 30

    @pytest.mark.parametrize("flag, value, message", [
        ("--x-col", "nope", "--x-col: no column named 'nope'"),
        ("--y-col", "9", "--y-col: column index 9 out of range (0..1)"),
        ("--x-col", "-1", "--x-col: column index -1 out of range (0..1)"),
    ])
    def test_column_not_in_the_file_exits_2(self, flag, value, message, matrix_file, capsys):
        path = matrix_file("x,y\n1,2\n2,3.5\n3,1\n")
        assert run(["test", path, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("grid", ["4.0", "quantile", "", "Midpoints"])
    def test_grid_neither_integer_nor_midpoints_exits_2(self, grid, matrix_file, capsys):
        path = matrix_file("x,y\n1,2\n2,3.5\n3,1\n")
        assert run(["test", path, "--method", "ebayes", "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: grid must be an integer or 'midpoints', got {grid!r}\n"

    @pytest.mark.parametrize("grid, accepted", [
        (1, False), (2, True), (2 ** 20, True), (2 ** 20 + 1, False), (True, False),
        (4.0, False), ("quantile", False), ("midpoints", True)])
    def test_grid_flag_and_config_accept_and_refuse_the_same(self, grid, accepted, matrix_file,
                                                             capsys):
        path = matrix_file("x,y\n1,2\n2,3.5\n3,1\n")
        code = run(["test", path, "--method", "ebayes", "--grid", str(grid)])
        err = capsys.readouterr().err
        if accepted:
            ebayes.ShiftSearchConfig(grid=grid)
            assert (code, err) == (0, "")
        else:
            with pytest.raises(ValueError, match="^grid must be "):
                ebayes.ShiftSearchConfig(grid=grid)
            assert code == 2 and err.startswith("error: grid must be "), err

    def test_levels_sum_matches_log_bf(self, matrix_file, capsys):
        rng = np.random.default_rng(2)
        rows = "\n".join(f"{x},{y}" for x, y in rng.normal(size=(100, 2)))
        path = matrix_file("x,y\n" + rows + "\n")
        assert run(["test", path]) == 0
        out = json.loads(capsys.readouterr().out)
        total = sum(lvl["B_k"] for lvl in out["levels"])
        assert total == pytest.approx(out["log_bf"], abs=1e-10 * max(1, len(out["levels"])))
        assert out["p_dependent"] + out["p_independent"] == pytest.approx(1.0, abs=1e-15)

    def test_ebayes_method_emits_delta(self, matrix_file, capsys):
        rng = np.random.default_rng(3)
        x = rng.uniform(-5, 5, 120)
        y = 2 * np.sin(x) + 0.3 * rng.standard_normal(120)
        rows = "\n".join(f"{a},{b}" for a, b in zip(x, y))
        path = matrix_file("x,y\n" + rows + "\n")
        assert run(["test", path, "--method", "ebayes"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["method"] == "ebayes"

    def test_flags_before_positional(self, matrix_file, capsys):
        path = matrix_file("x,y\n1.0,2.0\n")
        assert run(["test", "--x-col", "0", "--y-col", "1", path]) == 0
        assert json.loads(capsys.readouterr().out)["p_dependent"] == 0.5

    def test_wrap_axis_and_grid_flags(self, matrix_file, capsys):
        rng = np.random.default_rng(12)
        rows = "\n".join(f"{x},{y}" for x, y in rng.normal(size=(60, 2)))
        path = matrix_file("x,y\n" + rows + "\n")
        assert run(["test", path, "--method", "ebayes", "--wrap-axis", "xy",
                    "--grid", "midpoints"]) == 0
        assert json.loads(capsys.readouterr().out)["method"] == "ebayes"

    def test_csv_format(self, matrix_file, capsys):
        rng = np.random.default_rng(4)
        rows = "\n".join(f"{x},{y}" for x, y in rng.normal(size=(20, 2)))
        path = matrix_file("x,y\n" + rows + "\n")
        assert run(["test", path, "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert lines[0].startswith("n,method,c,prior_odds,log_bf,p_dependent")


class TestScanCommand:
    def test_scan_json(self, matrix_file, capsys):
        rng = np.random.default_rng(5)
        rows = "\n".join(",".join(map(str, r)) for r in rng.normal(size=(40, 3)))
        path = matrix_file("a,b,c\n" + rows + "\n")
        assert run(["scan", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out) == 3
        assert [o["var_a"] for o in out] == ["a", "a", "b"]

    def test_scan_worker_independence_byte_identical(self, matrix_file, tmp_path):
        rng = np.random.default_rng(6)
        rows = "\n".join(",".join(map(str, r)) for r in rng.normal(size=(50, 5)))
        path = matrix_file("a,b,c,d,e\n" + rows + "\n")
        out1 = str(tmp_path / "w1.json")
        out8 = str(tmp_path / "w8.json")
        assert run(["scan", path, "--workers", "1", "--output", out1]) == 0
        assert run(["scan", path, "--workers", "8", "--output", out8]) == 0
        assert Path(out1).read_bytes() == Path(out8).read_bytes()

    def test_workers_below_one_exits_2(self, matrix_file, capsys):
        path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n")
        assert run(["scan", path, "--workers", "-3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "workers must be >= 1" in captured.err

    def test_scan_csv_columns(self, matrix_file, capsys):
        rng = np.random.default_rng(7)
        rows = "\n".join(",".join(map(str, r)) for r in rng.normal(size=(30, 2)))
        path = matrix_file("a,b\n" + rows + "\n")
        assert run(["scan", path, "--format", "csv"]) == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "var_a,var_b,n,log_bf,p_dependent,p_independent,delta_star,truncated,error"


    def test_short_output_flag(self, matrix_file, tmp_path):
        rng = np.random.default_rng(7)
        rows = "\n".join(",".join(map(str, r)) for r in rng.normal(size=(30, 3)))
        path = matrix_file("a,b,c\n" + rows + "\n")
        short, long = str(tmp_path / "short.json"), str(tmp_path / "long.json")
        assert run(["scan", path, "-o", short]) == 0
        assert run(["scan", path, "--output", long]) == 0
        assert Path(short).read_bytes() == Path(long).read_bytes()

    @pytest.mark.parametrize("module", ["ptdep", "ptdep.cli"])
    def test_python_m_runs_the_command(self, module, matrix_file, tmp_path):
        path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
        out = tmp_path / "pairs.json"
        env = dict(os.environ, PYTHONPATH=str(Path(ptdep.__file__).resolve().parents[1]))
        proc = subprocess.run([sys.executable, "-m", module, "scan", path, "-o", str(out)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        rows = json.loads(out.read_text(encoding="utf-8"))
        assert [(r["var_a"], r["var_b"], r["n"]) for r in rows] == [("a", "b", 4)]


# One short run of each command; "{m}" stands for a small matrix file.
EVERY_COMMAND = [
    ["test", "{m}"],
    ["scan", "{m}"],
    ["diff", "{m}", "{m}"],
    ["simulate", "--model", "linear", "--n", "20", "--reps", "2"],
    ["power", "--model", "linear", "--n", "20", "--reps", "2"],
    ["sweep-c", "{m}"],
]


@pytest.mark.parametrize("command", EVERY_COMMAND, ids=lambda cmd: cmd[0])
def test_every_command_rejects_workers_below_one(command, matrix_file, capsys):
    path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
    argv = [arg.format(m=path) for arg in command]
    assert run(argv + ["--workers", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "workers must be >= 1, got -3" in captured.err


@pytest.mark.parametrize("flag, value", [("--grid", "6"), ("--grid", "midpoints"),
                                         ("--wrap-axis", "xy"), ("--wrap-axis", "x")])
@pytest.mark.parametrize("command", EVERY_COMMAND, ids=lambda cmd: cmd[0])
def test_every_command_refuses_a_search_flag_without_ebayes(command, flag, value, matrix_file,
                                                             capsys):
    # the flags set the ebayes centering search, which the basic test never runs
    path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
    argv = [arg.format(m=path) for arg in command] + [flag, value]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} applies only with --method ebayes\n"
    assert run(argv + ["--method", "ebayes"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", EVERY_COMMAND, ids=lambda cmd: cmd[0])
def test_every_command_checks_the_grid_before_the_method(command, matrix_file, capsys):
    path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
    assert run([arg.format(m=path) for arg in command] + ["--grid", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: grid must be >= 2 for the quantile grid\n"


# One short run of each command that draws random numbers, the only ones to read a seed.
DRAWING_COMMANDS = [
    ["simulate", "--model", "linear", "--n", "20", "--reps", "2"],
    ["power", "--model", "linear", "--n", "20", "--reps", "2"],
    ["sweep-c", "--model", "linear", "--n", "20", "--reps", "2", "--c-values", "1"],
]


@pytest.mark.parametrize("argv", DRAWING_COMMANDS, ids=lambda cmd: cmd[0])
def test_every_drawing_command_rejects_a_negative_seed(argv, capsys):
    assert run(argv + ["--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: --seed must be >= 0, got -1\n"


@pytest.mark.parametrize("flag, field", [("--c", "c"), ("--prior-odds", "prior_odds")])
def test_non_finite_config_exits_2_naming_the_field(flag, field, matrix_file, capsys):
    path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
    assert run(["test", path, flag, "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field} must be finite, got inf\n"


def test_c_outside_range_exits_2_naming_the_range(matrix_file, capsys):
    path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
    assert run(["test", path, "--c", "1e15"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: c must lie in [1e-300, 10000], got 1e+15\n"


@pytest.mark.parametrize("command", [["test"], ["scan", "--wrap-axis", "xy"]], ids=lambda c: c[0])
def test_ebayes_runs_on_a_margin_spanning_more_than_the_float_range(command, matrix_file, capsys):
    # every wrap of x overflows; those cuts are skipped, not an error about the input
    path = matrix_file("x,y\n-1e308,1\n0,2\n1e308,0.5\n5,3\n-3,-1\n2,4\n")
    assert run([command[0], path, "--method", "ebayes", *command[1:]]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out)
    assert (out if command[0] == "test" else out[0])["n"] == 6


class TestLevelSumGuard:
    def test_exact_sum_accepted_where_naive_sum_drifts(self):
        # naive left-to-right summation loses the 1.0 entirely
        levels = np.array([1e16, 1.0, -1e16, 3e-7])
        res = ebayes.winner_result((math.fsum(levels), None, "x", levels, False), 10**7,
                                   engine.PartitionConfig(), "basic")
        assert sum(res.level_contributions) != res.log_bf
        _check_level_sum(res)

    def test_inconsistent_result_refused(self):
        res = engine.test_dependence(PairedSample(x=[1.0, 2.0, 3.0], y=[1.0, 3.0, 2.0]))
        bad = dataclasses.replace(res, log_bf=res.log_bf + 1e-6)
        with pytest.raises(ValueError, match="refusing to write"):
            _check_level_sum(bad)


class TestDiffCommand:
    def test_identical_conditions_zero_edges(self, matrix_file, capsys):
        rng = np.random.default_rng(8)
        text = "a,b\n" + "\n".join(f"{x},{y}" for x, y in rng.normal(size=(60, 2))) + "\n"
        p1 = matrix_file(text, "a.csv")
        p2 = matrix_file(text, "b.csv")
        assert run(["diff", p1, p2]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_name_mismatch_exits_2(self, matrix_file, capsys):
        p1 = matrix_file("a,b\n1,2\n3,4\n", "a.csv")
        p2 = matrix_file("a,c\n1,2\n3,4\n", "b.csv")
        assert run(["diff", p1, p2]) == 2

    @pytest.mark.parametrize("threshold", ["nan", "-0.5", "1.5", "inf"])
    def test_threshold_outside_unit_interval_exits_2(self, threshold, matrix_file, capsys):
        text = "a,b\n1,2\n3,5\n4,4\n"
        p1 = matrix_file(text, "a.csv")
        p2 = matrix_file(text, "b.csv")
        assert run(["diff", p1, p2, "--edge-threshold", threshold]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "threshold must lie in [0, 1]" in captured.err

    def test_diff_csv_schema(self, matrix_file, capsys):
        rng = np.random.default_rng(9)
        x = rng.standard_normal(300)
        text_a = "a,b\n" + "\n".join(f"{v},{v + 0.05 * w}" for v, w in zip(x, rng.standard_normal(300))) + "\n"
        text_b = "a,b\n" + "\n".join(f"{v},{w}" for v, w in rng.normal(size=(300, 2))) + "\n"
        p1 = matrix_file(text_a, "a.csv")
        p2 = matrix_file(text_b, "b.csv")
        assert run(["diff", p1, p2, "--edge-threshold", "0.7", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "var_a,var_b,p_dep_A,p_dep_B,p_diff,class"
        assert len(lines) == 2
        assert lines[1].endswith("lost_in_B")


class TestSimulateCommand:
    def test_json_summary(self, capsys):
        assert run(["simulate", "--model", "circular", "--n", "80", "--reps", "10",
                    "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model"] == "circular"
        assert set(out["percentiles"]) == {"p5", "p25", "p50", "p75", "p95"}

    def test_csv_per_replicate(self, capsys):
        assert run(["simulate", "--model", "linear", "--n", "50", "--reps", "4",
                    "--seed", "1", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("rep,seed,p_dependent,log_bf,truncated,B_1")
        assert len(lines) == 5

    @pytest.mark.parametrize("flags, message", [
        (["--sigma=nan"], "sigma must be finite"),
        (["--x-min=-1e308", "--x-max=1e308"], "x_range must have finite ends and width"),
        (["--x-min=-inf", "--x-max=1"], "x_range must have finite ends and width"),
        (["--model", "parabolic", "--x-min=-1e200", "--x-max=1e200"],
         "the parabolic model gives non-finite values at sigma=2.0 "
         "and x_range=(-1e+200, 1e+200)"),
        (["--sigma", "1e308"],
         "the linear model gives non-finite values at sigma=1e+308 and x_range=(-2.0, 2.0)"),
    ])
    def test_non_finite_model_parameters_exit_2(self, flags, message, capfd):
        argv = ["simulate", "--model", "linear", "--n", "20", "--reps", "3", "--format", "csv"]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run(argv + flags) == 2
        assert [str(w.message) for w in caught] == []  # pytest would hide them from stderr
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert captured.err.count("\n") == 1


    @pytest.mark.parametrize("command", ["simulate", "power", "sweep-c"])
    @pytest.mark.parametrize("x_min, x_max", [("5", "1"), ("1", "1")])
    def test_x_range_out_of_order_names_the_flags(self, command, x_min, x_max, capsys):
        assert run([command, "--model", "linear", "--n", "20", "--reps", "2",
                    "--x-min", x_min, "--x-max", x_max]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: --x-min must be less than --x-max, "
                                f"got {float(x_min)!r} and {float(x_max)!r}\n")

    @pytest.mark.parametrize("command", ["simulate", "power", "sweep-c"])
    @pytest.mark.parametrize("flag", ["--x-min", "--x-max"])
    def test_x_range_end_alone_exits_2(self, command, flag, capsys):
        assert run([command, "--model", "linear", "--n", "20", "--reps", "2", flag, "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --x-min and --x-max must be given together\n"

    @pytest.mark.parametrize("flags, message", [
        (["--x-min", "-10", "--x-max", "10"], "x_range does not apply to the circular model"),
        (["--theta-variant", "unit"], "theta_range does not apply to the circular model"),
        (["--checker-pattern", "balanced"], "checker_pattern does not apply to the circular model"),
        (["--sigma", "1e308"], "the circular model gives non-finite values at sigma=1e+308"),
    ])
    def test_parameter_the_model_does_not_use_exits_2(self, flags, message, capsys):
        assert run(["simulate", "--model", "circular", "--n", "20", "--reps", "2", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"


class TestPowerCommand:
    def test_posterior_threshold(self, capsys):
        assert run(["power", "--model", "circular", "--n", "100", "--reps", "10",
                    "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["threshold"] == 0.5
        assert 0.0 <= out["tpr"] <= 1.0
        assert out["threshold_source"] == "posterior_0.5"

    def test_permutation_threshold(self, capsys):
        assert run(["power", "--model", "circular", "--n", "40", "--reps", "3",
                    "--threshold", "permutation", "--perms", "19", "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["threshold_source"] == "permutation_quantile"
        assert 0.0 <= out["threshold"] <= 1.0

    @pytest.mark.parametrize("threshold, flags, message", [
        ("permutation", ["--level", "7", "--perms", "-5"], "--perms must be >= 1, got -5"),
        ("permutation", ["--level", "7"], "--level must lie in (0, 1), got 7.0"),
        ("permutation", ["--level", "0"], "--level must lie in (0, 1), got 0.0"),
        ("permutation", ["--level", "nan", "--perms", "9"], "--level must lie in (0, 1), got nan"),
        # the posterior threshold reads neither flag, whatever its value
        ("posterior", ["--level", "7", "--perms", "-5"],
         "--perms applies only with --threshold permutation"),
        ("posterior", ["--level", "7"], "--level applies only with --threshold permutation"),
        ("posterior", ["--perms", "500"], "--perms applies only with --threshold permutation"),
    ])
    def test_bad_level_or_perms_exit_2_with_one_line(self, threshold, flags, message, capsys):
        assert run(["power", "--model", "linear", "--n", "20", "--reps", "2",
                    "--threshold", threshold, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_permutation_defaults_are_500_perms_at_level_0_05(self, capsys):
        argv = ["power", "--model", "linear", "--n", "20", "--reps", "2", "--threshold",
                "permutation"]
        assert run(argv) == 0
        default = capsys.readouterr().out
        assert run(argv + ["--perms", "500", "--level", "0.05"]) == 0
        assert capsys.readouterr().out == default

    def test_checker_pattern_flag(self, capsys):
        assert run(["power", "--model", "checkerboard", "--n", "60", "--reps", "5",
                    "--checker-pattern", "balanced", "--theta-variant", "unit",
                    "--seed", "0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["model"] == "checkerboard"


class TestSweepCCommand:
    def test_file_mode(self, matrix_file, capsys):
        rng = np.random.default_rng(10)
        rows = "\n".join(f"{x},{y}" for x, y in rng.normal(size=(60, 2)))
        path = matrix_file("x,y\n" + rows + "\n")
        assert run(["sweep-c", path]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [row["c"] for row in out] == [0.1, 1.0, 5.0, 10.0]

    def test_model_mode(self, capsys):
        assert run(["sweep-c", "--model", "linear", "--n", "40", "--reps", "5",
                    "--seed", "0", "--c-values", "1,5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert len(out) == 2
        assert {"c", "p50"} <= set(out[0])

    def test_needs_input_or_model(self, capsys):
        assert run(["sweep-c"]) == 2

    @pytest.mark.parametrize("flags", [["--model", "linear", "--n", "10"], ["--model", "linear"],
                                       ["--n", "10"]], ids=["model-and-n", "model", "n"])
    def test_input_with_model_flags_exits_2(self, flags, matrix_file, capsys):
        path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
        assert run(["sweep-c", path, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: sweep-c takes an input file or --model and --n, not both\n"

    @pytest.mark.parametrize("flag, value", [
        ("--sigma", "9"), ("--reps", "3"), ("--x-min", "0"), ("--x-max", "1"),
        ("--theta-variant", "unit"), ("--checker-pattern", "balanced"),
        ("--sigma", "2"), ("--theta-variant", "full"), ("--checker-pattern", "verbatim"),
    ])
    def test_input_with_other_model_flag_exits_2_naming_it(self, flag, value, matrix_file,
                                                           capsys):
        # a flag is refused when given, even at the model's default value
        path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
        assert run(["sweep-c", path, flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: sweep-c takes {flag} only with --model and --n, "
                                "not with an input file\n")

    @pytest.mark.parametrize("flag", ["--x-col", "--y-col"])
    def test_model_with_column_flag_exits_2_naming_it(self, flag, capsys):
        # a column flag is refused when given, even at its file default
        for value in ("7", "0" if flag == "--x-col" else "1"):
            assert run(["sweep-c", "--model", "linear", "--n", "20", "--reps", "2",
                        "--c-values", "1", flag, value]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (f"error: sweep-c takes {flag} only with an input file, "
                                    "not with --model and --n\n")

    @pytest.mark.parametrize("values, message", [
        ("1,a", "--c-values must be comma-separated numbers, got '1,a'"),
        (",", "--c-values is empty"),
        (" ", "--c-values is empty"),
    ])
    def test_c_values_not_numbers_exit_2(self, values, message, matrix_file, capsys):
        path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
        for source in ([path], ["--model", "linear", "--n", "20", "--reps", "2"]):
            assert run(["sweep-c", *source, "--c-values", values]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_file_mode_columns_default_to_0_and_1(self, matrix_file, capsys):
        rng = np.random.default_rng(11)
        rows = "\n".join(f"{x},{y},{z}" for x, y, z in rng.normal(size=(40, 3)))
        path = matrix_file("x,y,z\n" + rows + "\n")
        outputs = []
        for cols in ([], ["--x-col", "0", "--y-col", "1"], ["--x-col", "x", "--y-col", "y"],
                     ["--x-col", "2"]):
            assert run(["sweep-c", path, "--c-values", "1,5", *cols]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1] == outputs[2] != outputs[3]

    def test_model_mode_defaults_to_100_reps(self, capsys):
        assert run(["sweep-c", "--model", "checkerboard", "--n", "5", "--c-values", "1",
                    "--theta-variant", "unit", "--checker-pattern", "balanced"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert [(row["model"], row["reps"], row["sigma"]) for row in out] == [
            ("checkerboard", 100, 2.0)]


@pytest.mark.parametrize("target, reason", [
    ("missing/x.json", "No such file or directory"),
    (".", "Is a directory"),
], ids=["missing-folder", "folder"])
def test_unwritable_output_exits_2_with_one_line(target, reason, matrix_file, tmp_path,
                                                  capfd):
    path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
    out = str(tmp_path / target)
    assert run(["test", path, "-o", out]) == 2
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: {reason}\n"


class TestDeterministicOutput:
    def test_identical_config_byte_identical(self, tmp_path):
        rng = np.random.default_rng(11)
        text = "a,b\n" + "\n".join(f"{x},{y}" for x, y in rng.normal(size=(50, 2))) + "\n"
        path = tmp_path / "m.csv"
        path.write_text(text)
        o1, o2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
        assert run(["test", str(path), "--output", o1]) == 0
        assert run(["test", str(path), "--output", o2]) == 0
        assert Path(o1).read_bytes() == Path(o2).read_bytes()

    def test_seventeen_digit_serialisation(self, capsys):
        write_result({"value": 1.0 / 3.0}, None, "json")
        out = capsys.readouterr().out
        assert "0.33333333333333331" in out


@pytest.mark.parametrize("payload, out_format, error, message", [
    ({"x": float("nan")}, "json", ValueError, "cannot serialise non-finite number"),
    ([{"x": float("inf")}], "csv", ValueError, "cannot serialise non-finite number"),
    ({"x": object()}, "json", TypeError, "cannot serialise <class 'object'>"),
    ({"x": 1.0}, "xml", ValueError, "unknown format 'xml'"),
])
def test_write_result_refuses_what_it_cannot_write(payload, out_format, error, message,
                                                   capsys):
    with pytest.raises(error) as err:
        write_result(payload, None, out_format)
    assert str(err.value) == message
    assert capsys.readouterr().out == ""


# Each row adds one flag, with a value, to one of these runs of the six commands.
FLAG_BASES = {
    "test": ["test", "data.csv"],
    "test-ebayes": ["test", "matrix.csv", "--x-col", "f", "--y-col", "a", "--method", "ebayes"],
    "scan": ["scan", "matrix.csv"],
    "diff": ["diff", "normal.csv", "tumour.csv", "--edge-threshold", "0"],
    "power-posterior": ["power", "--model", "linear", "--n", "20", "--reps", "3"],
    "sweep-c": ["sweep-c", "data.csv", "--c-values", "1"],
}
# the commands that draw a model: as given, with an x range, and on the checkerboard
for _name, _head in [("simulate", ["simulate"]),
                     ("power", ["power", "--threshold", "permutation", "--perms", "9"]),
                     ("sweep-c-model", ["sweep-c", "--c-values", "1"])]:
    FLAG_BASES[_name] = _head + ["--model", "linear", "--n", "20", "--reps", "3"]
    FLAG_BASES[_name + "-range"] = FLAG_BASES[_name] + ["--x-min", "-3", "--x-max", "3"]
    FLAG_BASES[_name + "-checker"] = _head + ["--model", "checkerboard", "--n", "20", "--reps", "3"]

_COMMON_ROWS = [("--depth-cap", "2"), ("--prior-odds", "3"), ("--method", "ebayes"),
                ("--format", "csv"), ("--output", "out.json"), ("--grid", "midpoints"),
                ("--wrap-axis", "xy")]
_MODEL_ROWS = [("--model", "circular"), ("--n", "25"), ("--sigma", "0.5"), ("--reps", "2"),
               ("--seed", "9")]


def _model_rows(base: str) -> list[tuple[str, str, str]]:
    return ([(base, f, v) for f, v in _MODEL_ROWS]
            + [(base + "-range", "--x-min", "-1"), (base + "-range", "--x-max", "1"),
               (base + "-checker", "--theta-variant", "unit"),
               (base + "-checker", "--checker-pattern", "balanced")])


# (base, flag, value): every flag each command's parser defines, and --seed and --c where
# a command does not take them. --workers is the one flag left out: perfbench passes it
# to every scan, and it goes when the benchmark stops passing it.
FLAG_TABLE = (
    [("test", f, v) for f, v in _COMMON_ROWS + [("--c", "1"), ("--x-col", "1"),
                                                ("--y-col", "0"), ("--seed", "9")]]
    + [("test-ebayes", "--grid", "midpoints"), ("test-ebayes", "--wrap-axis", "xy")]
    + [("scan", f, v) for f, v in _COMMON_ROWS + [("--c", "1"), ("--seed", "9")]]
    + [("diff", f, v) for f, v in _COMMON_ROWS + [("--c", "1"), ("--edge-threshold", "0.5"),
                                                ("--seed", "9")]]
    + [("simulate", f, v) for f, v in _COMMON_ROWS + [("--c", "1")]] + _model_rows("simulate")
    + [("power", f, v) for f, v in _COMMON_ROWS + [("--c", "1"), ("--perms", "19"),
                                                 ("--level", "0.3")]]
    + _model_rows("power")
    + [("power-posterior", f, v) for f, v in [("--threshold", "permutation"), ("--perms", "7"),
                                              ("--level", "0.2")]]
    + [("sweep-c", f, v) for f, v in _COMMON_ROWS + [("--x-col", "1"), ("--y-col", "0"),
                                                   ("--c-values", "1,5"), ("--c", "1"),
                                                   ("--seed", "9")]]
    + [("sweep-c-model", "--c-values", "1,5")] + _model_rows("sweep-c-model")
)


def _parser_flags() -> set[tuple[str, str]]:
    """(command, longest option string) of every flag the parser defines, help aside."""
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {(name, max(action.option_strings, key=len))
            for name, parser in sub.choices.items() for action in parser._actions
            if action.option_strings and not isinstance(action, argparse._HelpAction)}


def test_flag_table_has_a_row_for_every_flag():
    rows = {(FLAG_BASES[base][0], flag) for base, flag, _ in FLAG_TABLE}
    commands = {command for command, _ in _parser_flags()}
    assert {FLAG_BASES[base][0] for base, _, _ in FLAG_TABLE} == commands
    assert rows >= _parser_flags() - {(command, "--workers") for command in commands}
    assert not any(flag == "--workers" for _, flag, _ in FLAG_TABLE)


@pytest.fixture(scope="module")
def flag_folder(tmp_path_factory):
    folder = tmp_path_factory.mktemp("flags")
    write_fixtures(folder)
    return folder, {}


def _flag_run(argv, folder) -> dict:
    """What ``argv`` printed, wrote and returned in ``folder``; its files are removed."""
    got = run_case(argv, folder)
    for name in got["files"]:
        (folder / name).unlink()
    return got


@pytest.mark.parametrize("base, flag, value", FLAG_TABLE,
                         ids=[f"{b}{f}" for b, f, _ in FLAG_TABLE])
def test_every_flag_changes_the_output_or_is_refused(base, flag, value, flag_folder,
                                                      monkeypatch):
    folder, seen = flag_folder
    monkeypatch.chdir(folder)
    argv = FLAG_BASES[base]
    if base not in seen:
        seen[base] = _flag_run(argv, folder)
        assert seen[base]["exit_code"] == 0, seen[base]["stderr"]
    got = _flag_run(argv + [flag, value], folder)
    if got["exit_code"] == 0:
        want = seen[base]
        assert (got["stdout"], got["files"]) != (want["stdout"], want["files"])
    else:
        # a refusal: one line naming the flag, or argparse's usage and its own error
        assert got["exit_code"] == 2 and got["stdout"] == ""
        assert flag in got["stderr"].splitlines()[-1]
