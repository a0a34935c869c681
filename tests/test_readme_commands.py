"""Every CLI command in the README, plus edge branches, against golden outputs.

The README's CLI block is parsed here, so each line shown there runs as
shown, on fixed-seed fixture files named as in the README (``data.csv``,
``matrix.csv``, ``normal.csv``, ``tumour.csv``), plus ``const.csv``, whose
constant column pins the rows of a pair the tests skip. Stdout, stderr, every file
a command writes and the exit code must equal ``tests/golden/<case>.json``
exactly.

The goldens were captured with Python 3.11.7, numpy 2.4.6 and scipy 1.17.1;
other versions may change last digits (and Python's argparse wording).
Recapture, after checking that a change is intended, with::

    PYTHONPATH=src python tests/test_readme_commands.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import numpy as np
import pytest

from ptdep.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"


def readme_commands() -> list[list[str]]:
    """argv of every ``ptdep`` line in the README's CLI block, comments dropped."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```", 2)[1]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("ptdep ")]


EXTRA = {
    "test-csv-ebayes-xy": "test data.csv --format csv --method ebayes --wrap-axis xy",
    "scan-ebayes-midpoints-csv": "scan matrix.csv --method ebayes --grid midpoints --format csv",
    "diff-ebayes": "diff normal.csv tumour.csv --method ebayes --edge-threshold 0.5",
    "simulate-checker-json": "simulate --model checkerboard --n 60 --reps 20 --seed 3 "
                             "--theta-variant unit --checker-pattern balanced",
    "power-permutation-basic-csv": "power --model linear --n 40 --reps 10 --seed 1 "
                                   "--threshold permutation --perms 49 --format csv "
                                   "--x-min -3 --x-max 3",
    "power-permutation-ebayes": "power --model circular --n 40 --reps 5 --seed 2 "
                                "--threshold permutation --perms 19 --method ebayes",
    "sweep-c-model": "sweep-c --model linear --n 40 --reps 10 --c-values 1,5",
    "sweep-c-ebayes-csv": "sweep-c data.csv --method ebayes --format csv",
    "error-grid-1": "test data.csv --grid 1",
    "error-search-flags-basic": "test data.csv --wrap-axis xy --grid midpoints",
    "error-sweep-c-bare": "sweep-c",
    "error-method-bogus": "scan matrix.csv --method bogus",
    "scan-const": "scan const.csv",
    "scan-const-csv": "scan const.csv --format csv",
    "error-test-const": "test const.csv --y-col k",
    "error-output-missing-folder": "test data.csv -o missing/out.json",
    # one table of about 2 000 candidate rows at n = 1000, many kernel calls' worth
    "test-midpoints-xy-large": "test normal.csv --x-col g1 --y-col g2 --method ebayes "
                               "--grid midpoints --wrap-axis xy",
    "scan-ebayes-xy": "scan matrix.csv --method ebayes --wrap-axis xy",
    # each exits 2 with one line on stderr
    "error-power-level-perms": "power --model linear --n 20 --reps 2 --threshold permutation "
                               "--level 7 --perms -5",
    "error-simulate-overflow": "simulate --model parabolic --x-min=-1e200 --x-max=1e200 "
                               "--n 5 --reps 2",
    "error-simulate-x-range-unused": "simulate --model circular --x-min -1 --x-max 1 "
                                     "--n 5 --reps 2",
    "error-simulate-negative-seed": "simulate --model linear --n 5 --reps 2 --seed -1",
    "error-sweep-c-file-sigma": "sweep-c data.csv --sigma 9",
    "error-wrap-axis-basic": "test data.csv --wrap-axis xy",
    "error-sweep-c-model-x-col": "sweep-c --model linear --n 20 --reps 2 --x-col 7",
}

CASES = {f"readme-{i}": argv for i, argv in enumerate(readme_commands(), start=1)}
CASES.update((name, shlex.split(line)) for name, line in EXTRA.items())


def _csv(path: Path, names, columns) -> None:
    rows = [",".join(format(float(v), ".17g") for v in row) for row in zip(*columns)]
    path.write_text(",".join(names) + "\n" + "\n".join(rows) + "\n", encoding="utf-8")


def write_fixtures(folder: Path) -> None:
    """The README's input files and ``const.csv``, from a fixed seed."""
    rng = np.random.default_rng(20150602)
    x = rng.uniform(-2.0, 2.0, 150)
    _csv(folder / "data.csv", ("x", "y"), (x, x * x + 0.5 * rng.standard_normal(150)))

    base = rng.standard_normal(60)
    _csv(folder / "matrix.csv", ("a", "b", "c", "d", "e", "f"), (
        base, base + 0.3 * rng.standard_normal(60), np.sin(2.0 * base) + 0.2 * rng.standard_normal(60),
        rng.standard_normal(60), rng.standard_normal(60), np.abs(base) + 0.3 * rng.standard_normal(60),
    ))

    genes = ("g1", "g2", "g3", "g4", "g5")
    for name, linked in (("normal.csv", (0, 1)), ("tumour.csv", (2, 3))):
        cols = [rng.standard_normal(1000) for _ in genes]
        i, j = linked
        cols[j] = cols[i] + 0.2 * rng.standard_normal(1000)
        _csv(folder / name, genes, cols)

    # drawn last, so that the files above stay as they were before it existed
    x = rng.standard_normal(40)
    _csv(folder / "const.csv", ("x", "k", "y"), (x, np.ones(40), x + rng.standard_normal(40)))


def run_case(argv: list[str], folder: Path) -> dict:
    """Run one command in ``folder``; what it printed, wrote and returned."""
    before = set(os.listdir(folder))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
    written = sorted(set(os.listdir(folder)) - before)
    return {
        "argv": argv,
        "exit_code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "files": {name: (folder / name).read_text(encoding="utf-8") for name in written},
    }


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    write_fixtures(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("PTDEP_SEED", raising=False)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage to the terminal width
    return tmp_path


def test_readme_block_found():
    assert len(readme_commands()) >= 7
    assert all(argv[0] in ("test", "scan", "diff", "simulate", "power", "sweep-c")
               for argv in readme_commands())


def test_every_golden_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_command_matches_golden(name, workdir):
    want = json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))
    got = run_case(CASES[name], workdir)
    assert got["argv"] == want["argv"], "README command changed: recapture its golden"
    assert got["exit_code"] == want["exit_code"]
    assert got["stderr"] == want["stderr"]
    assert got["stdout"] == want["stdout"]
    assert got["files"] == want["files"]


def _capture(folder: Path) -> None:
    write_fixtures(folder)
    os.chdir(folder)
    os.environ.pop("PTDEP_SEED", None)
    os.environ["COLUMNS"] = "80"
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for name, argv in CASES.items():
        record = run_case(argv, folder)
        text = json.dumps(record, indent=1, ensure_ascii=False) + "\n"
        (GOLDEN / f"{name}.json").write_text(text, encoding="utf-8")
        print(f"{name}: exit {record['exit_code']}", file=sys.__stdout__)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        _capture(Path(scratch))
