import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ptdep
from ptdep import engine
from ptdep.cli import _check_level_sum, read_matrix, run, write_matrix, write_result
from ptdep.diffscan import ExpressionMatrix
from ptdep.errors import EmptyMatrix, ParseError, RaggedRows
from ptdep.transforms import PairedSample


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


class TestMatrixRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        m = ExpressionMatrix(
            values=rng.standard_normal((20, 3)) * 1e3, var_names=("a", "b", "c")
        )
        path = str(tmp_path / "round.csv")
        write_matrix(m, path)
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


@pytest.mark.parametrize("command", [
    ["test", "{m}"],
    ["scan", "{m}"],
    ["diff", "{m}", "{m}"],
    ["simulate", "--model", "linear", "--n", "20", "--reps", "2"],
    ["power", "--model", "linear", "--n", "20", "--reps", "2"],
    ["sweep-c", "{m}"],
], ids=lambda cmd: cmd[0])
def test_every_command_rejects_workers_below_one(command, matrix_file, capsys):
    path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
    argv = [arg.format(m=path) for arg in command]
    assert run(argv + ["--workers", "-3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "workers must be >= 1, got -3" in captured.err


@pytest.mark.parametrize("flag, field", [("--c", "c"), ("--prior-odds", "prior_odds")])
def test_non_finite_config_exits_2_naming_the_field(flag, field, matrix_file, capsys):
    path = matrix_file("a,b\n1,2\n2,3.5\n3,1\n4,4\n")
    assert run(["test", path, flag, "inf"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {field} must be finite, got inf\n"


class TestLevelSumGuard:
    def test_exact_sum_accepted_where_naive_sum_drifts(self):
        # naive left-to-right summation loses the 1.0 entirely
        levels = np.array([1e16, 1.0, -1e16, 3e-7])
        res = engine._result(levels, False, 10**7, engine.PartitionConfig())
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

    def test_seed_env_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("PTDEP_SEED", "123")
        assert run(["simulate", "--model", "linear", "--n", "30", "--reps", "3"]) == 0
        first = capsys.readouterr().out
        monkeypatch.delenv("PTDEP_SEED")
        assert run(["simulate", "--model", "linear", "--n", "30", "--reps", "3",
                    "--seed", "123"]) == 0
        assert capsys.readouterr().out == first


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
