"""Command-line interface: file ingestion, configuration, report emission.

Commands
--------
test      evidence for dependence between two columns of a CSV file
scan      dependence test for every column pair of a matrix
diff      differential-dependence edges between two conditions
simulate  replicate experiments on the built-in generative models
power     true/false positive rates of the test under a model
sweep-c   sensitivity of the result to the concentration constant

Input matrices are UTF-8 CSV with a header row of variable names and one
sample per row; a leading byte-order mark is ignored. Output is JSON or CSV
with all numbers serialised to 17 significant digits, so identical
configurations produce byte-identical files and values round-trip exactly.

Exit codes: 0 success, 2 input or validation error, 3 degenerate data in
single-test mode.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import numpy as np

from .diffscan import DiffEdge, ExpressionMatrix, PairResult, diff_scan, pairwise_scan
from .ebayes import METHODS, ShiftSearchConfig, run_test
from .engine import PartitionConfig, TestResult
from .errors import DegenerateSample, EmptyMatrix, ParseError, PtdepError, RaggedRows
from .simulate import (
    MODEL_KINDS,
    SimModel,
    THETA_FULL,
    THETA_UNIT,
    power_experiment,
    replicate_experiment,
    run_replicates,
)
from .transforms import PairedSample

DEFAULT_C_SWEEP = (0.1, 1.0, 5.0, 10.0)

SCAN_CSV_COLUMNS = (
    "var_a", "var_b", "n", "log_bf", "p_dependent", "p_independent",
    "delta_star", "truncated", "error",
)
DIFF_CSV_COLUMNS = ("var_a", "var_b", "p_dep_A", "p_dep_B", "p_diff", "class")


@dataclass(frozen=True)
class RunConfig:
    """Validated per-invocation settings shared by the command handlers."""

    partition: PartitionConfig
    method: str
    shift: ShiftSearchConfig
    seed: int
    out_format: str
    output: str | None


# ---------------------------------------------------------------------------
# serialisation


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if not math.isfinite(v):
        raise ValueError("cannot serialise non-finite number")
    return format(v, ".17g")


def _json_value(obj) -> str:
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (bool, int, float, np.integer, np.floating)):
        return _fmt(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(_json_value(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = (json.dumps(str(k)) + ": " + _json_value(v) for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _csv_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, str):
        return v
    return _fmt(v)


def result_to_dict(res: TestResult) -> dict:
    d = {
        "n": res.n,
        "method": res.method,
        "c": res.config.c,
        "prior_odds": res.config.prior_odds,
        "log_bf": res.log_bf,
        "p_dependent": res.p_dependent,
        "p_independent": res.p_independent,
        "levels": [
            {"k": k + 1, "B_k": b} for k, b in enumerate(res.level_contributions)
        ],
    }
    if res.delta_star is not None:
        d["delta_star"] = res.delta_star
    d["truncated"] = res.truncated
    return d


def _check_level_sum(res: TestResult) -> None:
    total = math.fsum(res.level_contributions)
    tol = 1e-10 * max(1, len(res.level_contributions))
    if abs(total - res.log_bf) > tol:
        raise ValueError("level contributions do not sum to log_bf; refusing to write")


def pair_to_row(pr: PairResult) -> dict:
    if pr.result is None:
        return {
            "var_a": pr.var_a, "var_b": pr.var_b, "n": None, "log_bf": None,
            "p_dependent": None, "p_independent": None, "delta_star": None,
            "truncated": None, "error": pr.error,
        }
    r = pr.result
    return {
        "var_a": pr.var_a, "var_b": pr.var_b, "n": r.n, "log_bf": r.log_bf,
        "p_dependent": r.p_dependent, "p_independent": r.p_independent,
        "delta_star": r.delta_star, "truncated": r.truncated, "error": None,
    }


def edge_to_row(e: DiffEdge) -> dict:
    return {
        "var_a": e.var_a, "var_b": e.var_b, "p_dep_A": e.p_dep_a,
        "p_dep_B": e.p_dep_b, "p_diff": e.p_diff, "class": e.edge_class,
    }


def _emit(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _rows_to_csv(rows: list[dict], columns: tuple[str, ...]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_csv_cell(row.get(col)) for col in columns])
    return buf.getvalue()


def write_result(payload, path: str | None, out_format: str = "json",
                 columns: tuple[str, ...] | None = None) -> None:
    """Serialise a payload (dict or list of row dicts) to JSON or CSV."""
    if out_format == "json":
        _emit(_json_value(payload) + "\n", path)
    elif out_format == "csv":
        if isinstance(payload, dict):
            payload = [payload]
        cols = columns or tuple(payload[0].keys())
        _emit(_rows_to_csv(payload, cols), path)
    else:
        raise ValueError(f"unknown format {out_format!r}")


# ---------------------------------------------------------------------------
# matrix I/O


def read_matrix(path: str) -> ExpressionMatrix:
    """Parse a CSV matrix: header of variable names, one sample per row."""
    try:
        fh = open(path, encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise ParseError(f"cannot open {path}: {exc.strerror}") from exc
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError("file is empty", line=1) from None
        names = [h.strip() for h in header]
        if not names or any(n == "" for n in names):
            raise ParseError("header contains an empty variable name", line=1)
        data: list[list[float]] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(names):
                raise RaggedRows(
                    f"expected {len(names)} cells, found {len(row)}", line=line_no
                )
            parsed: list[float] = []
            for col_no, cell in enumerate(row, start=1):
                text = cell.strip()
                if text == "":
                    raise ParseError("empty cell", line=line_no, column=col_no)
                try:
                    value = float(text)
                except ValueError:
                    raise ParseError(
                        f"not a number: {text!r}", line=line_no, column=col_no
                    ) from None
                if not math.isfinite(value):
                    raise ParseError(
                        f"non-finite value: {text!r}", line=line_no, column=col_no
                    )
                parsed.append(value)
            data.append(parsed)
    if not data:
        raise EmptyMatrix("matrix has a header but no data rows", line=1)
    return ExpressionMatrix(values=np.array(data, dtype=np.float64), var_names=tuple(names))


def _pick_column(m: ExpressionMatrix, spec: str, flag: str) -> np.ndarray:
    if spec in m.var_names:
        return m.column(spec)
    try:
        idx = int(spec)
    except ValueError:
        raise ParseError(f"{flag}: no column named {spec!r}") from None
    if not (0 <= idx < m.n_vars):
        raise ParseError(f"{flag}: column index {idx} out of range (0..{m.n_vars - 1})")
    return m.values[:, idx]


# ---------------------------------------------------------------------------
# argument parsing


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--c", type=float, default=5.0, help="concentration constant (default 5)")
    p.add_argument("--depth-cap", type=int, default=20, help="partition depth cap (default 20)")
    p.add_argument("--prior-odds", type=float, default=1.0,
                   help="prior odds of independence over dependence (default 1)")
    p.add_argument("--method", choices=METHODS, default="basic")
    p.add_argument("--grid", default="4",
                   help="shift grid: an integer quantile count or 'midpoints' (default 4)")
    p.add_argument("--wrap-axis", choices=("x", "xy"), default="x",
                   help="axes searched by the ebayes centering (default x)")
    p.add_argument("--seed", type=int, default=None,
                   help="RNG seed (falls back to env PTDEP_SEED, then 0)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and checked to be at least 1; "
                        "has no effect, every command runs on one thread")
    p.add_argument("--format", dest="out_format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")


def _add_model(p: argparse.ArgumentParser, required: bool = True) -> None:
    p.add_argument("--model", required=required, choices=MODEL_KINDS)
    p.add_argument("--n", type=int, required=required, help="sample size per replicate")
    p.add_argument("--sigma", type=float, default=2.0)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--x-min", type=float, default=None, help="lower end of the x range")
    p.add_argument("--x-max", type=float, default=None, help="upper end of the x range")
    p.add_argument("--theta-variant", choices=("full", "unit"), default="full",
                   help="checkerboard offset range: full = [0, 2pi), unit = [0, 1)")
    p.add_argument("--checker-pattern", choices=("verbatim", "balanced"), default="verbatim",
                   help="checkerboard row rule: verbatim (2u mod i_x) or balanced "
                        "(alternating block rows)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptdep",
        description="Analytic Bayesian nonparametric dependence testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test two columns of a CSV file for dependence")
    p_test.add_argument("input", help="CSV file (header row, one sample per row)")
    p_test.add_argument("--x-col", default="0", help="column name or 0-based index (default 0)")
    p_test.add_argument("--y-col", default="1", help="column name or 0-based index (default 1)")
    _add_common(p_test)

    p_scan = sub.add_parser("scan", help="test every column pair of a matrix")
    p_scan.add_argument("input")
    _add_common(p_scan)

    p_diff = sub.add_parser("diff", help="differential dependence between two conditions")
    p_diff.add_argument("input_a", help="condition A matrix")
    p_diff.add_argument("input_b", help="condition B matrix")
    p_diff.add_argument("--edge-threshold", type=float, default=0.95,
                        help="report edges with p_diff at or above this value, in [0, 1] "
                             "(default 0.95)")
    _add_common(p_diff)

    p_sim = sub.add_parser("simulate", help="replicate experiment on a generative model")
    _add_model(p_sim)
    _add_common(p_sim)

    p_pow = sub.add_parser("power", help="TPR/FPR of the test under a generative model")
    _add_model(p_pow)
    p_pow.add_argument("--threshold", choices=("posterior", "permutation"),
                       default="posterior")
    p_pow.add_argument("--level", type=float, default=0.05,
                       help="significance level for the permutation threshold")
    p_pow.add_argument("--perms", type=int, default=500,
                       help="permutations per replicate (default 500)")
    _add_common(p_pow)

    p_sweep = sub.add_parser("sweep-c", help="sensitivity to the concentration constant")
    p_sweep.add_argument("input", nargs="?", default=None,
                         help="CSV file to test per c (omit to sweep a simulated model)")
    p_sweep.add_argument("--x-col", default="0")
    p_sweep.add_argument("--y-col", default="1")
    p_sweep.add_argument("--c-values", default=",".join(str(v) for v in DEFAULT_C_SWEEP),
                         help="comma-separated c values (default 0.1,1,5,10)")
    _add_model(p_sweep, required=False)
    p_sweep.set_defaults(reps=100)
    _add_common(p_sweep)

    return parser


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("PTDEP_SEED", "").strip()
    if env:
        try:
            return int(env)
        except ValueError:
            raise ParseError(f"PTDEP_SEED must be an integer, got {env!r}") from None
    return 0


def _run_config(args) -> RunConfig:
    if args.workers < 1:
        raise ValueError(f"workers must be >= 1, got {args.workers}")
    grid_raw = str(args.grid).strip().lower()
    if grid_raw == "midpoints":
        shift = ShiftSearchConfig(axis_policy=args.wrap_axis, grid="midpoints")
    else:
        try:
            size = int(grid_raw)
        except ValueError:
            raise ParseError(f"--grid must be an integer or 'midpoints', got {args.grid!r}") from None
        shift = ShiftSearchConfig(axis_policy=args.wrap_axis, grid="quantile", grid_size=size)
    partition = PartitionConfig(
        c=args.c, depth_cap=args.depth_cap, prior_odds=args.prior_odds
    )
    return RunConfig(
        partition=partition,
        method=args.method,
        shift=shift,
        seed=_resolve_seed(args),
        out_format=args.out_format,
        output=args.output,
    )


def _sim_model(args) -> SimModel:
    kwargs = {"kind": args.model, "sigma": args.sigma}
    if args.x_min is not None or args.x_max is not None:
        if args.x_min is None or args.x_max is None:
            raise ParseError("--x-min and --x-max must be given together")
        kwargs["x_range"] = (args.x_min, args.x_max)
    kwargs["theta_range"] = THETA_FULL if args.theta_variant == "full" else THETA_UNIT
    kwargs["checker_pattern"] = args.checker_pattern
    return SimModel(**kwargs)


def _read_pair(args) -> PairedSample:
    """The two columns ``--x-col`` and ``--y-col`` of the input file."""
    m = read_matrix(args.input)
    return PairedSample(
        x=_pick_column(m, args.x_col, "--x-col"),
        y=_pick_column(m, args.y_col, "--y-col"),
    )


# ---------------------------------------------------------------------------
# command handlers


def _cmd_test(args, rc: RunConfig) -> int:
    res = run_test(_read_pair(args), rc.method, rc.partition, rc.shift)
    _check_level_sum(res)
    d = result_to_dict(res)
    if rc.out_format == "csv":
        d = {k: v for k, v in d.items() if k != "levels"}
    write_result(d, rc.output, rc.out_format)
    return 0


def _cmd_scan(args, rc: RunConfig) -> int:
    m = read_matrix(args.input)
    results = pairwise_scan(m, rc.partition, method=rc.method, scfg=rc.shift)
    rows = [pair_to_row(pr) for pr in results]
    write_result(rows, rc.output, rc.out_format, SCAN_CSV_COLUMNS)
    return 0


def _cmd_diff(args, rc: RunConfig) -> int:
    m_a = read_matrix(args.input_a)
    m_b = read_matrix(args.input_b)
    edges = diff_scan(m_a, m_b, rc.partition, threshold=args.edge_threshold,
                      method=rc.method, scfg=rc.shift)
    rows = [edge_to_row(e) for e in edges]
    write_result(rows, rc.output, rc.out_format, DIFF_CSV_COLUMNS)
    return 0


def _cmd_simulate(args, rc: RunConfig) -> int:
    model = _sim_model(args)
    if rc.out_format == "csv":
        results = run_replicates(model, args.n, args.reps, rc.partition, rc.seed,
                                 method=rc.method, scfg=rc.shift)
        payload = []
        for r, res in enumerate(results):
            row = {
                "rep": r, "seed": rc.seed + r, "p_dependent": res.p_dependent,
                "log_bf": res.log_bf, "truncated": res.truncated,
            }
            for k in range(1, 6):
                row[f"B_{k}"] = res.level_contribution(k)
            payload.append(row)
    else:
        summary = replicate_experiment(model, args.n, args.reps, rc.partition, rc.seed,
                                       method=rc.method, scfg=rc.shift)
        payload = {
            "model": summary.model, "n": summary.n, "sigma": summary.sigma,
            "reps": summary.reps, "method": summary.method,
            "percentiles": {
                "p5": summary.p5, "p25": summary.p25, "p50": summary.p50,
                "p75": summary.p75, "p95": summary.p95,
            },
        }
    write_result(payload, rc.output, rc.out_format)
    return 0


def _cmd_power(args, rc: RunConfig) -> int:
    model = _sim_model(args)
    source = "posterior_0.5" if args.threshold == "posterior" else "permutation_quantile"
    report = power_experiment(
        model, args.n, args.reps, rc.partition, rc.seed,
        method=rc.method, scfg=rc.shift, threshold_source=source,
        level=args.level, n_perm=args.perms,
    )
    row = {
        "model": report.model, "n": report.n, "sigma": report.sigma,
        "reps": report.reps, "method": report.method, "tpr": report.tpr,
        "fpr": report.fpr, "threshold": report.threshold,
        "threshold_source": report.threshold_source,
    }
    write_result(row, rc.output, rc.out_format)
    return 0


def _cmd_sweep_c(args, rc: RunConfig) -> int:
    try:
        c_values = [float(v) for v in str(args.c_values).split(",") if v.strip()]
    except ValueError:
        raise ParseError(f"--c-values must be comma-separated numbers, got {args.c_values!r}") from None
    if not c_values:
        raise ParseError("--c-values is empty")
    rows = []
    if args.input is not None:
        sample = _read_pair(args)
        for c in c_values:
            res = run_test(sample, rc.method, replace(rc.partition, c=c), rc.shift)
            rows.append({
                "c": c, "n": res.n, "log_bf": res.log_bf,
                "p_dependent": res.p_dependent, "p_independent": res.p_independent,
            })
    else:
        if args.model is None or args.n is None:
            raise ParseError("sweep-c needs an input file or --model and --n")
        model = _sim_model(args)
        for c in c_values:
            s = replicate_experiment(
                model, args.n, args.reps, replace(rc.partition, c=c), rc.seed,
                method=rc.method, scfg=rc.shift,
            )
            rows.append({
                "c": c, "model": s.model, "n": s.n, "sigma": s.sigma,
                "reps": s.reps, "p5": s.p5, "p25": s.p25, "p50": s.p50,
                "p75": s.p75, "p95": s.p95,
            })
    write_result(rows, rc.output, rc.out_format)
    return 0


_HANDLERS = {
    "test": _cmd_test,
    "scan": _cmd_scan,
    "diff": _cmd_diff,
    "simulate": _cmd_simulate,
    "power": _cmd_power,
    "sweep-c": _cmd_sweep_c,
}


def run(argv=None) -> int:
    """Parse arguments and execute one command; returns the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        rc = _run_config(args)
        return _HANDLERS[args.command](args, rc)
    except DegenerateSample as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return 3
    except (PtdepError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
