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

Each command's handler computes a payload (a dict or an iterable of row
dicts) and the CSV columns it fixes, if any; ``scan`` and ``diff`` check
their input and settings, then hand over rows that are scored as they are
written. Only the model commands load :mod:`ptdep.simulate`. Settings are
passed to the library as given, and the library refuses a bad value.
Output goes out in blocks as it is formatted: a command that fails after
its first block removes the file it wrote (a regular file only), and on
stdout leaves the blocks before the failure.
:func:`run` alone writes the payload, names the flag of a refused setting
and maps errors to exit codes:
0 success, 2 input or validation error or an output path that cannot be
written, 3 degenerate data in single-test mode.
"""

from __future__ import annotations

import argparse
import csv
import gc
import json
import math
import os
import stat
import sys
from contextlib import suppress
from dataclasses import asdict, astuple, replace
from functools import lru_cache
from itertools import chain, islice
from json.encoder import encode_basestring
from types import SimpleNamespace

import numpy as np

from ._models import CHECKER_PATTERNS, MODEL_KINDS, THETA_FULL, THETA_UNIT
from .diffscan import DiffEdge, ExpressionMatrix, PairResult, _edge_stream, _pair_stream
from .ebayes import METHODS, ShiftSearchConfig, run_test
from .engine import PartitionConfig, TestResult
from .errors import DegenerateSample, EmptyMatrix, ParseError, PtdepError, RaggedRows
from .transforms import PairedSample

DEFAULT_C_SWEEP = (0.1, 1.0, 5.0, 10.0)

SCAN_CSV_COLUMNS = (
    "var_a", "var_b", "n", "log_bf", "p_dependent", "p_independent",
    "delta_star", "truncated", "error",
)
DIFF_CSV_COLUMNS = ("var_a", "var_b", "p_dep_A", "p_dep_B", "p_diff", "class")

# Library names that a flag of another name sets; any other setting's flag is its
# name with dashes. A library refusal opens with the name of the setting it
# refuses, which run replaces by its flag, and the permutation threshold source
# is replaced wherever a refusal names it.
_FLAGS = {"n_perm": "--perms", "x_range": "--x-min/--x-max", "threshold": "--edge-threshold",
          "axis_policy": "--wrap-axis", "theta_range": "--theta-variant",
          "threshold_source 'permutation_quantile'": "--threshold permutation"}


# ---------------------------------------------------------------------------
# serialisation


def _float(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError("cannot serialise non-finite number")
    return "%.17g" % v


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return _float(float(x))


def _json_value(obj) -> str:
    return _JSON_TYPES.get(type(obj), _json_other)(obj)


def _json_other(obj) -> str:
    """A numpy number, or an instance of a subclass of a type of :data:`_JSON_TYPES`."""
    if isinstance(obj, (np.integer, np.floating)):
        return _fmt(obj)
    for kind, encode in _JSON_TYPES.items():
        if isinstance(obj, kind):
            return encode(obj)
    raise TypeError(f"cannot serialise {type(obj)!r}")


def _json_array(obj) -> str:
    return "[" + ", ".join(map(_json_value, obj)) + "]"


def _json_object(obj: dict) -> str:
    # _json_value inlined: a scan writes one dict per pair
    values = [_JSON_TYPES.get(type(v), _json_other)(v) for v in obj.values()]
    return _json_template(tuple(obj)) % tuple(values)


# The encoder of each type that JSON output holds: a str as json.dumps gives it
# with ensure_ascii=False, an int by its digits even where a subclass renames it.
_JSON_TYPES = {type(None): lambda _: "null", str: encode_basestring, bool: _fmt,
               int: int.__repr__, float: _float, list: _json_array, tuple: _json_array,
               dict: _json_object}


@lru_cache(maxsize=64)
def _json_template(keys: tuple) -> str:
    """The JSON text of a dict with ``keys``, each value a ``%s``, so that rows of one
    set of columns encode their keys once. Every payload's keys are str."""
    items = (json.dumps(str(k)).replace("%", "%%") + ": %s" for k in keys)
    return "{" + ", ".join(items) + "}"


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
        raise ValueError("the level contributions do not sum to log_bf; refusing to write")


def pair_to_row(pr: PairResult) -> dict:
    """The pair's names and error, and its result's fields: None for a skipped pair."""
    own = ("var_a", "var_b", "error")
    return {col: getattr(pr if col in own else pr.result, col, None) for col in SCAN_CSV_COLUMNS}


def edge_to_row(e: DiffEdge) -> dict:
    return dict(zip(DIFF_CSV_COLUMNS, astuple(e)))


# Lines of output formatted before they are written, at most: one block of rows.
_BLOCK_LINES = 1024


def _json_lines(rows):
    """The JSON array of ``rows``, one row at a time, with its brackets and separators."""
    lead = "["
    for row in rows:
        yield lead + _json_value(row)
        lead = ", "
    yield ("[]" if lead == "[" else "]") + "\n"


def _csv_lines(rows, columns: tuple[str, ...] | None):
    """The CSV header ``columns`` (None: the first row's keys), then each row's line."""
    rows = iter(rows)
    if columns is None:
        first = next(rows)
        rows, columns = chain([first], rows), tuple(first)
    line = []
    writer = csv.writer(SimpleNamespace(write=line.append), lineterminator="\n")
    for cells in chain([columns], ([_csv_cell(row.get(c)) for c in columns] for row in rows)):
        writer.writerow(cells)
        yield line.pop()


def _emit(lines, path: str | None) -> None:
    """Write ``lines`` to ``path``, or to stdout if None, in blocks of :data:`_BLOCK_LINES`.

    The file is opened once the first block is formatted, so output that
    fails to format by then leaves no file; a later failure removes it if the
    path names a regular file, not a link, a device or a pipe. Stdout gets
    each block as it is formatted, so a failure after the first block leaves
    the blocks before it there.
    """
    lines = iter(lines)
    blocks = iter(lambda: "".join(islice(lines, _BLOCK_LINES)), "")
    if path is None:
        for block in blocks:
            sys.stdout.write(block)
        return
    first = next(blocks, "")
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
        opened = os.fstat(fh.fileno())
    except OSError as exc:
        raise PtdepError(f"cannot write {path}: {exc.strerror}") from exc
    try:
        with fh:
            fh.writelines(chain([first], blocks))
    except BaseException as exc:
        with suppress(OSError):  # the failure reported is the write's, not the removal's
            if stat.S_ISREG(opened.st_mode) and os.path.samestat(opened, os.lstat(path)):
                os.remove(path)
        if isinstance(exc, OSError):
            raise PtdepError(f"cannot write {path}: {exc.strerror}") from exc
        raise


def write_result(payload, path: str | None, out_format: str = "json",
                 columns: tuple[str, ...] | None = None) -> None:
    """Serialise a payload, a dict or an iterable of row dicts, to JSON or CSV.

    Rows are formatted as they are read and written in blocks, so a stream
    of rows is never held whole.
    """
    if out_format == "json":
        lines = [_json_value(payload) + "\n"] if isinstance(payload, dict) else _json_lines(payload)
    elif out_format == "csv":
        lines = _csv_lines([payload] if isinstance(payload, dict) else payload, columns)
    else:
        raise ValueError(f"unknown format {out_format!r}")
    _emit(lines, path)


# ---------------------------------------------------------------------------
# matrix I/O


def read_matrix(path: str) -> ExpressionMatrix:
    """Parse a CSV matrix: header of variable names, one sample per row.

    Blank lines are skipped; error line numbers count them, and every line
    of a quoted cell that spans lines. A record's errors name its last line.
    """
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
        for row in reader:
            line_no = reader.line_num
            if not row:  # a blank line, skipped as numpy.loadtxt skips it
                continue
            if len(row) != len(names):
                raise RaggedRows(
                    f"expected {len(names)} cells, found {len(row)}", line=line_no
                )
            try:  # a row of finite numbers, the common case, in one pass
                parsed = list(map(float, row))
                finite = math.isfinite(sum(parsed))
            except ValueError:
                finite = False
            data.append(parsed if finite else _parse_cells(row, line_no))
    if not data:
        raise EmptyMatrix("matrix has a header but no data rows", line=1)
    return ExpressionMatrix(values=np.array(data, dtype=np.float64), var_names=tuple(names))


def _parse_cells(row: list[str], line_no: int) -> list[float]:
    """The cells of a row as finite floats, checked one by one: the first cell that
    is empty, not a number or not finite raises a :class:`ParseError`."""
    parsed: list[float] = []
    for col_no, cell in enumerate(row, start=1):
        text = cell.strip()
        if text == "":
            raise ParseError("empty cell", line=line_no, column=col_no)
        try:
            value = float(text)
        except ValueError:
            raise ParseError(f"not a number: {text!r}", line=line_no, column=col_no) from None
        if not math.isfinite(value):
            raise ParseError(f"non-finite value: {text!r}", line=line_no, column=col_no)
        parsed.append(value)
    return parsed


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


def _add_common(p: argparse.ArgumentParser, c: bool = True) -> None:
    if c:  # sweep-c takes its c values from --c-values
        p.add_argument("--c", type=float, default=5.0, help="concentration constant (default 5)")
    p.add_argument("--depth-cap", type=int, default=20, help="partition depth cap (default 20)")
    p.add_argument("--prior-odds", type=float, default=1.0,
                   help="prior odds of independence over dependence (default 1)")
    p.add_argument("--method", choices=METHODS, default="basic")
    p.add_argument("--grid", default=None,
                   help="ebayes shift grid: an integer quantile count or 'midpoints' "
                        "(default 4)")
    p.add_argument("--wrap-axis", choices=("x", "xy"), default=None,
                   help="axes searched by the ebayes centering (default x)")
    p.add_argument("--workers", type=int, default=1,
                   help="accepted for compatibility and checked to be at least 1; "
                        "has no effect, every command runs on one thread")
    p.add_argument("--format", dest="out_format", choices=("json", "csv"), default="json")
    p.add_argument("-o", "--output", default=None, help="output path (default stdout)")


# The flags that describe a simulated model and its draws, besides --model and --n.
_MODEL_FLAGS = ("--sigma", "--reps", "--x-min", "--x-max", "--theta-variant", "--checker-pattern",
                "--seed")


def _add_model(p: argparse.ArgumentParser, required: bool = True) -> None:
    """Add the model flags. All but --reps default to None, so a flag not given
    keeps its SimModel default and is told apart from one given."""
    p.add_argument("--model", required=required, choices=MODEL_KINDS)
    p.add_argument("--n", type=int, required=required, help="sample size per replicate")
    p.add_argument("--sigma", type=float)
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--x-min", type=float, help="lower end of the x range")
    p.add_argument("--x-max", type=float, help="upper end of the x range")
    p.add_argument("--theta-variant", choices=("full", "unit"),
                   help="checkerboard offset range: full = [0, 2pi), unit = [0, 1)")
    p.add_argument("--checker-pattern", choices=CHECKER_PATTERNS,
                   help="checkerboard row rule: verbatim (2u mod i_x) or balanced "
                        "(alternating block rows)")
    p.add_argument("--seed", type=int, help="RNG seed (default 0)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ptdep",
        description="Analytic Bayesian nonparametric dependence testing",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_test = sub.add_parser("test", help="test two columns of a CSV file for dependence")
    p_test.add_argument("input", help="CSV file (header row, one sample per row)")
    p_test.add_argument("--x-col", help="column name or 0-based index (default 0)")
    p_test.add_argument("--y-col", help="column name or 0-based index (default 1)")
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
    # None marks --level and --perms unset: the library refuses them under --threshold posterior
    p_pow.add_argument("--level", type=float,
                       help="significance level of the permutation threshold (default 0.05)")
    p_pow.add_argument("--perms", type=int,
                       help="permutations per replicate of the permutation threshold "
                            "(default 500)")
    _add_common(p_pow)

    p_sweep = sub.add_parser("sweep-c", help="sensitivity to the concentration constant")
    p_sweep.add_argument("input", nargs="?", default=None,
                         help="CSV file to test per c (omit to sweep a simulated model)")
    # None marks a column flag unset, so it is refused next to --model
    p_sweep.add_argument("--x-col", help="input file column (default 0)")
    p_sweep.add_argument("--y-col", help="input file column (default 1)")
    p_sweep.add_argument("--c-values", default=",".join(str(v) for v in DEFAULT_C_SWEEP),
                         help="comma-separated c values (default 0.1,1,5,10)")
    _add_model(p_sweep, required=False)
    # reps: 100 for a model, None marks it unset next to a file; c: replaced per --c-values
    p_sweep.set_defaults(reps=None, c=5.0)
    _add_common(p_sweep, c=False)

    return parser


def _refuse(args, flags, message: str) -> None:
    """Refuse the first of ``flags`` given (not None), by ``message`` with the flag for ``{}``."""
    for flag in flags:
        if getattr(args, flag[2:].replace("-", "_")) is not None:
            raise ParseError(message.format(flag))


def _run_config(args) -> None:
    """Store the settings' configs on ``args``; their configs refuse a bad value.

    The CLI refuses only --workers, which sets nothing, and --grid or
    --wrap-axis without ``--method ebayes``: both set one library setting,
    ``scfg``, so the library's refusal could name neither flag.
    """
    if args.workers < 1:
        raise ParseError(f"--workers must be >= 1, got {args.workers}")
    grid = 4 if args.grid is None else args.grid
    try:
        grid = int(grid)
    except ValueError:
        pass  # "midpoints", or text the config refuses
    args.shift = ShiftSearchConfig(axis_policy=args.wrap_axis or "x", grid=grid)
    if args.method != "ebayes":  # after the grid check, so a bad grid is reported first
        _refuse(args, ("--grid", "--wrap-axis"), "{} applies only with --method ebayes")
        args.shift = None
    args.partition = PartitionConfig(c=args.c, depth_cap=args.depth_cap,
                                     prior_odds=args.prior_odds)


def _sim_model(args):
    """The model the flags describe and the seed of its draws; a flag not given
    keeps the SimModel default."""
    from .simulate import SimModel

    seed = 0 if args.seed is None else args.seed
    if (args.x_min is None) != (args.x_max is None):
        raise ParseError("--x-min and --x-max must be given together")
    given = {"sigma": args.sigma,
             "x_range": None if args.x_min is None else (args.x_min, args.x_max),
             "theta_range": {"full": THETA_FULL, "unit": THETA_UNIT}.get(args.theta_variant),
             "checker_pattern": args.checker_pattern}
    return SimModel(kind=args.model, **{k: v for k, v in given.items() if v is not None}), seed


def _read_pair(args) -> PairedSample:
    """The two columns ``--x-col`` and ``--y-col`` (default 0 and 1) of the input file."""
    m = read_matrix(args.input)
    return PairedSample(
        x=_pick_column(m, "0" if args.x_col is None else args.x_col, "--x-col"),
        y=_pick_column(m, "1" if args.y_col is None else args.y_col, "--y-col"),
    )


# ---------------------------------------------------------------------------
# command handlers: each returns its payload and its CSV columns (None: the
# keys of the first row)


def _cmd_test(args):
    res = run_test(_read_pair(args), args.method, args.partition, args.shift)
    _check_level_sum(res)
    d = result_to_dict(res)
    if args.out_format == "csv":
        del d["levels"]
    return d, None


def _cmd_scan(args):
    pairs = _pair_stream(read_matrix(args.input), args.partition, args.method, args.shift)
    return map(pair_to_row, pairs), SCAN_CSV_COLUMNS


def _cmd_diff(args):
    edges = _edge_stream(read_matrix(args.input_a), read_matrix(args.input_b), args.partition,
                         args.edge_threshold, args.method, args.shift)
    return map(edge_to_row, edges), DIFF_CSV_COLUMNS


def _cmd_simulate(args):
    from .simulate import replicate_experiment, run_replicates

    model, seed = _sim_model(args)
    if args.out_format == "csv":
        results = run_replicates(model, args.n, args.reps, args.partition, seed,
                                 method=args.method, scfg=args.shift)
        payload = []
        for r, res in enumerate(results):
            row = {"rep": r, "seed": seed + r, "p_dependent": res.p_dependent,
                   "log_bf": res.log_bf, "truncated": res.truncated}
            for k in range(1, 6):
                row[f"B_{k}"] = res.level_contribution(k)
            payload.append(row)
        return payload, None
    summary = asdict(replicate_experiment(model, args.n, args.reps, args.partition, seed,
                                          method=args.method, scfg=args.shift))
    percentiles = {k: summary.pop(k) for k in list(summary) if k.startswith("p")}
    return {**summary, "percentiles": percentiles}, None


def _cmd_power(args):
    from .simulate import power_experiment

    source = "posterior_0.5" if args.threshold == "posterior" else "permutation_quantile"
    model, seed = _sim_model(args)
    report = power_experiment(model, args.n, args.reps, args.partition, seed, method=args.method,
                              scfg=args.shift, threshold_source=source,
                              level=args.level, n_perm=args.perms)
    return asdict(report), None


def _cmd_sweep_c(args):
    try:
        c_values = [float(v) for v in str(args.c_values).split(",") if v.strip()]
    except ValueError:
        raise ParseError(f"--c-values must be comma-separated numbers, got {args.c_values!r}") from None
    if not c_values:
        raise ParseError("--c-values is empty")
    rows = []
    if args.input is not None:
        if args.model is not None or args.n is not None:
            raise ParseError("sweep-c takes an input file or --model and --n, not both")
        _refuse(args, _MODEL_FLAGS, "sweep-c takes {} only with --model and --n, "
                                    "not with an input file")
        sample = _read_pair(args)
        for c in c_values:
            res = run_test(sample, args.method, replace(args.partition, c=c), args.shift)
            rows.append({
                "c": c, "n": res.n, "log_bf": res.log_bf,
                "p_dependent": res.p_dependent, "p_independent": res.p_independent,
            })
    else:
        if args.model is None or args.n is None:
            raise ParseError("sweep-c needs an input file or --model and --n")
        _refuse(args, ("--x-col", "--y-col"), "sweep-c takes {} only with an input file, "
                                              "not with --model and --n")
        from .simulate import replicate_experiment

        (model, seed), reps = _sim_model(args), 100 if args.reps is None else args.reps
        for c in c_values:
            s = replicate_experiment(
                model, args.n, reps, replace(args.partition, c=c), seed,
                method=args.method, scfg=args.shift,
            )
            row = {"c": c, **asdict(s)}
            del row["method"]
            rows.append(row)
    return rows, None


_HANDLERS = {
    "test": _cmd_test,
    "scan": _cmd_scan,
    "diff": _cmd_diff,
    "simulate": _cmd_simulate,
    "power": _cmd_power,
    "sweep-c": _cmd_sweep_c,
}


def _name_flags(message: str, args) -> str:
    """``message`` with the setting it opens with, and the permutation threshold source,
    named by the flags that set them.

    ``c`` is named ``--c-values`` under sweep-c; another setting by
    :data:`_FLAGS`, or, if the command has a flag of its name, by that flag.
    A message that opens with no setting keeps its first word.
    """
    name, space, rest = message.partition(" ")
    flags = {**_FLAGS, "c": "--c-values"} if args.command == "sweep-c" else _FLAGS
    name = flags.get(name, "--" + name.replace("_", "-") if name in vars(args) else name)
    source = "threshold_source 'permutation_quantile'"
    return name + space + rest.replace(source, _FLAGS[source])


def run(argv=None) -> int:
    """Parse arguments and execute one command; returns the exit code."""
    args = build_parser().parse_args(argv)
    try:
        _run_config(args)
        payload, columns = _HANDLERS[args.command](args)
        write_result(payload, args.output, args.out_format, columns)
    except DegenerateSample as exc:
        print(f"error: degenerate data: {exc}", file=sys.stderr)
        return 3
    except (PtdepError, ValueError) as exc:
        print(f"error: {_name_flags(str(exc), args)}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    # The modules loaded by now live until exit, so the cyclic collector, which
    # also runs at exit, need not walk them again.
    gc.freeze()
    sys.exit(run())


if __name__ == "__main__":
    main()
