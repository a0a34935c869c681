"""The four benchmark workloads: inputs from a seed, one op, and its checks.

Inputs are continuous, so no workload holds tied or zero-inflated values.
In-process workloads cycle through a pool of six samples, one per generative
model; a pass over the pool is one block.  ``scan`` runs the CLI as a
subprocess on one generated matrix, one command per block.

Each workload offers:

* ``inputs(seed)``: the pool, made before anything is timed;
* ``op(input)``: one user-level call, the unit that is timed;
* ``items(out)``: dependence results the op completed;
* ``fingerprint(out)``: equal for outputs that must be identical;
* ``check(index, input, out)``: problems found in one output, including the
  reference comparison on the inputs ``reference_indices`` selects.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import threading
from pathlib import Path

import numpy as np

import ptdep.diffscan as diffscan
import ptdep.ebayes as ebayes
import ptdep.engine as engine
import ptdep.simulate as simulate
from ptdep.transforms import PairedSample

import checks

# Fixed here rather than read from the package, so kinds added to the
# package later (tied or zero-inflated controls) do not enter the workloads.
MODELS = ("linear", "parabolic", "sinusoidal", "circular", "checkerboard", "independent")

SIZES = {
    "full": {"calib_n": 150, "n_perm": 200, "ebayes_n": 4000, "large_n": 100_000,
             "scan_rows": 200, "scan_groups": 7, "scan_indep": 5},
    # For the smoke test only: every code path, a fraction of the work.
    "tiny": {"calib_n": 150, "n_perm": 20, "ebayes_n": 300, "large_n": 3000,
             "scan_rows": 30, "scan_groups": 1, "scan_indep": 1},
}

CLI_CODE = "from ptdep.cli import main; main()"
CLI_TIMEOUT_S = 150


def _model_pool(n: int, seed: int) -> list[PairedSample]:
    return [simulate.generate(simulate.SimModel(kind=kind), n, seed * 1000 + i)
            for i, kind in enumerate(MODELS)]


def _result_key(res) -> tuple:
    return (res.log_bf, res.level_contributions, res.truncated, res.delta_star)


class InProcess:
    """Shared plumbing of the workloads that call the package directly."""

    n_key = ""
    calibration = "array"

    def __init__(self, size: str):
        self.sizes = SIZES[size]
        self.n = self.sizes[self.n_key]
        self.seed = 0

    def inputs(self, seed: int) -> list[PairedSample]:
        self.seed = seed
        return _model_pool(self.n, seed)

    def items(self, out) -> int:
        return 1

    def fingerprint(self, out):
        return _result_key(out)

    def reference_indices(self, pool_size: int) -> list[int]:
        return list(range(pool_size))

    def check(self, index: int, sample, out) -> list[str]:
        problems = checks.check_result(out)
        if index in self.reference_indices(len(MODELS)):
            problems += checks.check_reference(
                out, checks.reference_for(sample.x, sample.y, out.config))
        return problems


class Calib(InProcess):
    """n = 150: one test plus a 200-permutation null; per-call overhead dominates."""

    name = "calib"
    n_key = "calib_n"
    calibration = "small"

    def op(self, sample):
        return (engine.test_dependence(sample),
                simulate.permutation_null(sample, n_perm=self.sizes["n_perm"]))

    def items(self, out) -> int:
        return 1 + len(out[1].null_stats)

    def fingerprint(self, out):
        res, null = out
        return _result_key(res) + (null.null_stats.tobytes(), null.threshold)

    def check(self, index, sample, out) -> list[str]:
        return super().check(index, sample, out[0]) + checks.check_null(out[1], self.sizes["n_perm"])


class EBayes(InProcess):
    """n = 4000: the default centering search, five candidates per test."""

    name = "ebayes"
    n_key = "ebayes_n"

    def op(self, sample):
        return ebayes.ebayes_test(sample)

    def check(self, index, sample, out) -> list[str]:
        problems = checks.check_result(out)
        if out.method != "ebayes":
            problems.append(f"method is {out.method!r}")
        return problems + checks.check_ebayes_reference(sample.x, sample.y, out)


class LargeN(InProcess):
    """n = 100 000: one kernel call per op, where the per-point cost dominates."""

    name = "large_n"
    n_key = "large_n"

    def op(self, sample):
        return engine.test_dependence(sample)

    def reference_indices(self, pool_size: int) -> list[int]:
        # The reference costs about a second here; check one model per run,
        # a different one for each seed.
        return [self.seed % pool_size]


def scan_matrix(seed: int, rows: int, groups: int, indep: int) -> tuple[np.ndarray, list[str]]:
    """Columns in groups of a base and its linear, quadratic, sine and |.| partners.

    Groups are independent of each other, and ``indep`` extra columns are
    independent of everything; every column carries continuous noise.
    """
    rng = np.random.default_rng(seed)
    cols, names = [], []
    for g in range(groups):
        x = rng.uniform(-2.0, 2.0, rows)
        cols += [x,
                 2.0 * x / 3.0 + rng.normal(0.0, 0.5, rows),
                 x * x + rng.normal(0.0, 0.5, rows),
                 2.0 * np.sin(2.0 * x) + rng.normal(0.0, 0.5, rows),
                 np.abs(x) + rng.normal(0.0, 0.3, rows)]
        names += [f"g{g}_x", f"g{g}_lin", f"g{g}_quad", f"g{g}_sin", f"g{g}_abs"]
    for j in range(indep):
        cols.append(rng.standard_normal(rows))
        names.append(f"ind{j}")
    return np.column_stack(cols), names


def run_child(argv: list[str], env: dict, cwd: Path, err_path: Path) -> int:
    """Run a process to its end and return its exit code; stderr goes to ``err_path``.

    The wait blocks instead of polling, which would round the time it took
    up to 50 ms; a timer kills a process that outlives ``CLI_TIMEOUT_S``.
    """
    with open(err_path, "w", encoding="utf-8") as err:
        proc = subprocess.Popen(argv, env=env, cwd=cwd, stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            return proc.wait()
        finally:
            timer.cancel()


def scan_argv(matrix, output) -> list[str]:
    return ["scan", str(matrix), "--output", str(output), "--method", "basic", "--workers", "1"]


def _row_of(pair) -> dict:
    res = pair.result
    if res is None:
        return {"var_a": pair.var_a, "var_b": pair.var_b, "error": pair.error}
    return {"var_a": pair.var_a, "var_b": pair.var_b, "n": res.n, "log_bf": res.log_bf,
            "p_dependent": res.p_dependent, "p_independent": res.p_independent,
            "delta_star": res.delta_star, "truncated": res.truncated, "error": None}


class Scan:
    """``ptdep scan`` on a 200 x 40 matrix, one CLI process per op.

    The console script is not assumed to be installed, and ``python -m
    ptdep.cli`` does not run the CLI, so the op calls ``main`` through
    ``python -c``.  An op whose output file is missing or empty fails.
    """

    name = "scan"
    calibration = "small"

    def __init__(self, size: str, python: str, env: dict, root: Path, work: Path):
        self.sizes = SIZES[size]
        self.python, self.env, self.root, self.work = python, env, root, work
        self.count = 0
        self.matrix = None
        self.expected: list[dict] | None = None  # in-process rows, made by the first check
        self.baseline_problems: list[str] = []

    def inputs(self, seed: int) -> list[Path]:
        s = self.sizes
        values, names = scan_matrix(seed, s["scan_rows"], s["scan_groups"], s["scan_indep"])
        self.matrix = (values, names)
        path = self.work / "matrix.csv"
        lines = [",".join(names)] + [",".join(format(v, ".17g") for v in row) for row in values]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return [path]

    def next_output(self) -> Path:
        self.count += 1
        return self.work / f"scan-{self.count}.json"

    def spawn(self, argv: list[str], output: Path):
        """Run one command; the output path and exit code are the op's output."""
        return run_child(argv, self.env, self.root, output.with_suffix(".err")), output

    def op(self, matrix: Path):
        output = self.next_output()
        return self.spawn([self.python, "-c", CLI_CODE, *scan_argv(matrix, output)], output)

    def items(self, out) -> int:
        return len(self.expected or ())

    def fingerprint(self, out):
        code, output = out
        data = output.read_bytes() if output.is_file() else b""
        return code, hashlib.sha256(data).hexdigest()

    def _expect(self) -> list[str]:
        """In-process scan of the same matrix, checked in full; rows to match."""
        values, names = self.matrix
        m = diffscan.ExpressionMatrix(values=values, var_names=tuple(names))
        results = diffscan.pairwise_scan(m)
        self.expected = [_row_of(pair) for pair in results]
        problems = []
        name_index = {name: i for i, name in enumerate(names)}
        for k, pair in enumerate(results):
            if pair.result is None:
                problems.append(f"in-process pair {pair.var_a},{pair.var_b} skipped")
                continue
            problems += checks.check_result(pair.result)
            if k % 13 == 0:
                x = values[:, name_index[pair.var_a]]
                y = values[:, name_index[pair.var_b]]
                problems += checks.check_reference(
                    pair.result, checks.reference_for(x, y, pair.result.config))
        return problems

    def check(self, index, matrix, out) -> list[str]:
        if self.expected is None:
            self.baseline_problems = self._expect()
        code, output = out
        if code != 0:
            return [f"exit code {code}"]
        if not output.is_file() or output.stat().st_size == 0:
            return ["output file missing or empty"]
        try:
            rows = json.loads(output.read_text(encoding="utf-8"))
        except ValueError as exc:
            return [f"output is not JSON: {exc}"]
        if not isinstance(rows, list) or len(rows) != len(self.expected):
            return ["output does not hold one row per pair"]
        problems = list(self.baseline_problems)
        for row, want in zip(rows, self.expected):
            problems += checks.check_row(row)
            if {k: row.get(k) for k in want} != want:
                problems.append(f"row {row.get('var_a')},{row.get('var_b')} differs from in-process")
        return problems


IN_PROCESS = {cls.name: cls for cls in (Calib, EBayes, LargeN)}
