"""The package's public names: each one exported resolves, removed ones are gone, and
each setting a public callable takes changes its result or is refused."""

import ast
import dataclasses
import importlib
import inspect
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import ptdep
from ptdep import PartitionConfig, ShiftSearchConfig, SimModel

# Helpers that once duplicated routes the package keeps one copy of.
REMOVED = {
    "ptdep": ("ShiftSpec", "shift_wrap", "normal_cdf", "UnitPoints", "to_unit_square",
              "abs_pearson"),
    "ptdep.transforms": ("ShiftSpec", "shift_wrap", "normal_cdf", "UnitPoints", "to_unit_square"),
    "ptdep.kernels": ("logbf_levels",),
    "ptdep.engine": ("_evaluate", "unit_points"),
    "ptdep.simulate": ("default_statistic", "abs_pearson"),
}


def test_every_exported_name_resolves():
    assert len(set(ptdep.__all__)) == len(ptdep.__all__)
    for name in ptdep.__all__:
        assert getattr(ptdep, name) is not None, name


def test_removed_names_are_gone():
    for module, names in REMOVED.items():
        mod = importlib.import_module(module)
        for name in names:
            assert not hasattr(mod, name), f"{module}.{name}"
            assert name not in getattr(mod, "__all__", ())


def _private_definitions(module: ast.Module):
    """(name, node) of each private top-level function and constant of a module."""
    for node in module.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        yield from ((name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _references(node: ast.AST):
    """Each name that ``node`` reads: a bare name, an attribute or an imported name."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and not isinstance(sub.ctx, ast.Store):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_every_private_helper_is_used():
    # a helper that a refactor leaves behind is referred to only by its own definition
    modules = [ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(Path(ptdep.__file__).parent.glob("*.py"))]
    used = Counter(name for module in modules for name in _references(module))
    unused = [name for module in modules for name, node in _private_definitions(module)
              if used[name] == Counter(_references(node))[name]]
    assert not unused


def test_the_permutation_route_takes_no_statistic():
    # both score the package's test; a comparator loops over rng.permutation itself
    assert list(inspect.signature(ptdep.permutation_null).parameters) == \
        ["sample", "n_perm", "cfg", "seed", "level"]
    assert "statistic" not in inspect.signature(ptdep.power_experiment).parameters


_SAMPLE = ptdep.generate(SimModel(kind="sinusoidal", sigma=1.0), 40, 3)


def _matrix(seed: int) -> ptdep.ExpressionMatrix:
    """Four columns of 40 samples: a linked pair, a sine of the first, and noise."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(40)
    return ptdep.ExpressionMatrix(
        values=np.column_stack([base, base + 0.5 * rng.standard_normal(40),
                                np.sin(2.0 * base) + 0.3 * rng.standard_normal(40),
                                rng.standard_normal(40)]),
        var_names=("a", "b", "c", "d"))


_MODEL = SimModel(kind="linear")
# Each row calls one of these with a base's settings, then with one setting changed.
_CALLS = {
    "test_dependence": partial(ptdep.test_dependence, _SAMPLE),
    "ebayes_test": partial(ptdep.ebayes_test, _SAMPLE),
    "posterior_dependence": partial(ptdep.posterior_dependence, -1.0),
    "pairwise_scan": partial(ptdep.pairwise_scan, _matrix(1)),
    "diff_scan": partial(ptdep.diff_scan, _matrix(1), _matrix(2)),
    "generate": partial(ptdep.generate, _MODEL, n=20, seed=1),
    "run_replicates": partial(ptdep.run_replicates, _MODEL, n=20, reps=3),
    "replicate_experiment": partial(ptdep.replicate_experiment, _MODEL, n=20, reps=5),
    "permutation_null": partial(ptdep.permutation_null, _SAMPLE),
    "power_experiment": partial(ptdep.power_experiment, _MODEL, n=20, reps=3),
    # a config's fields, through a call that reads them
    "PartitionConfig": lambda **kw: ptdep.test_dependence(_SAMPLE, PartitionConfig(**kw)),
    # the sine's x against its y: a cut of y, searched only under "xy", finds the shape
    "ShiftSearchConfig": lambda **kw: ptdep.ebayes_test(
        ptdep.PairedSample(x=_SAMPLE.y, y=_SAMPLE.x), scfg=ShiftSearchConfig(**kw)),
    "SimModel": lambda **kw: ptdep.generate(SimModel(**kw), 20, 1),
}

_C1 = PartitionConfig(c=1.0)
_MIDPOINTS = ShiftSearchConfig(grid="midpoints", axis_policy="xy")
_EBAYES = {"method": "ebayes"}
_PERMUTATION = {"threshold_source": "permutation_quantile", "n_perm": 9}
_REPLICATE_ROWS = [("cfg", _C1, {}), ("seed", 9, {}), ("method", "ebayes", {}),
                   ("scfg", _MIDPOINTS, _EBAYES), ("n", 2.5, {}), ("reps", 2.5, {}),
                   ("seed", True, {"seed": 1})]

# (callable, parameter, value, base settings)
LIBRARY_TABLE = (
    [("test_dependence", "cfg", _C1, {}),
     ("ebayes_test", "cfg", _C1, {}), ("ebayes_test", "scfg", _MIDPOINTS, {}),
     ("posterior_dependence", "prior_odds", 3.0, {}),
     ("pairwise_scan", "cfg", _C1, {}), ("pairwise_scan", "method", "ebayes", {}),
     ("pairwise_scan", "scfg", _MIDPOINTS, _EBAYES),
     ("diff_scan", "cfg", _C1, {"threshold": 0.0}), ("diff_scan", "threshold", 0.0, {}),
     ("diff_scan", "method", "ebayes", {"threshold": 0.0}),
     ("diff_scan", "scfg", _MIDPOINTS, {"threshold": 0.0, **_EBAYES})]
    + [("run_replicates", *row) for row in _REPLICATE_ROWS]
    + [("replicate_experiment", *row) for row in _REPLICATE_ROWS]
    + [("permutation_null", p, v, {}) for p, v in [("n_perm", 20), ("cfg", _C1), ("seed", 9),
                                                    ("level", 0.3)]]
    + [("power_experiment", p, v, _PERMUTATION) for p, v in [
        ("cfg", _C1), ("seed", 9), ("method", "ebayes"), ("level", 0.3), ("n_perm", 19)]]
    + [("power_experiment", "scfg", _MIDPOINTS, {**_PERMUTATION, **_EBAYES}),
       ("power_experiment", "threshold_source", "permutation_quantile", {})]
    + [("PartitionConfig", "c", 1.0, {}), ("PartitionConfig", "depth_cap", 2, {}),
       ("PartitionConfig", "prior_odds", 3.0, {}),
       ("ShiftSearchConfig", "axis_policy", "xy", {}),
       ("ShiftSearchConfig", "grid", "midpoints", {}),
       ("ShiftSearchConfig", "grid", 16, {"grid": "midpoints"})]
    + [("SimModel", p, v, {"kind": kind}) for p, v, kind in [
        ("kind", "circular", "linear"), ("sigma", 0.5, "linear"),
        ("x_range", (-1.0, 1.0), "linear"), ("theta_range", (0.0, 1.0), "checkerboard"),
        ("checker_pattern", "balanced", "checkerboard")]]
    # settings the call would not read, each refused
    + [("power_experiment", "level", 0.3, {}), ("power_experiment", "n_perm", 19, {}),
       # a count or a seed that is not an integer, or a seed below 0
       ("generate", "n", 2.5, {}), ("generate", "seed", -1, {}),
       ("power_experiment", "n", 2.5, {}), ("power_experiment", "reps", 2.5, {}),
       # a bool, which would otherwise run as the number 1 it equals
       ("permutation_null", "n_perm", True, {"n_perm": 1}),
       ("permutation_null", "seed", True, {"seed": 1}),
       ("PartitionConfig", "c", True, {"c": 1.0}),
       ("PartitionConfig", "prior_odds", True, {"prior_odds": 1.0}),
       ("SimModel", "sigma", True, {"kind": "linear", "sigma": 1.0}),
       ("diff_scan", "threshold", True, {"threshold": 1.0}),
       # text or None where a number is meant, a range of bools or of other than two ends
       ("power_experiment", "level", "0.1", {**_PERMUTATION, "level": 0.05}),
       ("permutation_null", "level", None, {"level": 0.05}),
       ("SimModel", "x_range", ("a", "b"), {"kind": "parabolic"}),
       ("SimModel", "theta_range", ("a", "b"), {"kind": "checkerboard",
                                                "checker_pattern": "balanced"}),
       ("SimModel", "x_range", (False, True), {"kind": "linear", "x_range": (0, 1)}),
       ("SimModel", "x_range", (1, 2, 3), {"kind": "sinusoidal"}),
       # a number too large for a float, refused before anything converts it
       ("PartitionConfig", "prior_odds", Fraction(10**400), {"prior_odds": 2.0}),
       ("SimModel", "x_range", (0, 10**400), {"kind": "linear", "x_range": (-1, 1)}),
       ("SimModel", "x_range", (0.0, 10**400), {"kind": "linear", "x_range": (-1.0, 1.0)}),
       ("SimModel", "x_range", (0.5, Fraction(10**400)), {"kind": "linear", "x_range": (0.5, 1)})]
)


def _settings() -> set[tuple[str, str]]:
    """(callable, parameter) of each exported function's parameter with a default or an
    ``int`` annotation, and (config, field) of each field of the three configs."""
    functions = [name for name in ptdep.__all__ if inspect.isfunction(getattr(ptdep, name))]
    return ({(name, p.name) for name in functions
             for p in inspect.signature(getattr(ptdep, name)).parameters.values()
             if p.default is not p.empty or p.annotation == "int"}
            | {(cls.__name__, f.name) for cls in (PartitionConfig, ShiftSearchConfig, SimModel)
               for f in dataclasses.fields(cls)})


def test_library_table_has_a_row_for_every_setting():
    assert {(call, param) for call, param, _, _ in LIBRARY_TABLE} == _settings()


# Fields of a result that echo a setting back, so they change with it whether it is read or not.
_ECHOES = {"config", "method", "model", "n", "reps", "sigma", "level", "threshold_source"}


def _outcome(value):
    """``value`` compared by value: arrays as bytes, floats by their bits, echoes left out."""
    if dataclasses.is_dataclass(value):
        return tuple((f.name, _outcome(getattr(value, f.name)))
                     for f in dataclasses.fields(value) if f.name not in _ECHOES)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return tuple(map(_outcome, value))
    return float(value).hex() if isinstance(value, float) else value


def _row_id(call, param, value, base) -> str:
    given = (f"{k}={v}" for k, v in base.items())
    return "-".join([call, param, *(["with", *given] if base else [])])


@pytest.mark.parametrize("call, param, value, base", LIBRARY_TABLE,
                         ids=[_row_id(*row) for row in LIBRARY_TABLE])
def test_every_setting_changes_the_result_or_is_refused(call, param, value, base):
    want = _outcome(_CALLS[call](**base))
    try:
        got = _outcome(_CALLS[call](**{**base, param: value}))
    except ValueError as exc:  # a refusal: its message opens with the parameter's name
        assert str(exc).split()[0] == param, exc
    else:
        assert got != want


def test_the_simulator_loads_on_first_use():
    # a fresh interpreter: this process has long loaded every module
    code = """if True:
        import sys
        import ptdep
        assert "ptdep.simulate" not in sys.modules
        names = {}
        exec("from ptdep import *", names)
        assert "ptdep.simulate" in sys.modules
        assert all(names[name] is getattr(ptdep, name) for name in ptdep.__all__)
        assert ptdep.SimModel is sys.modules["ptdep.simulate"].SimModel
        try:
            ptdep.no_such_name
        except AttributeError as exc:
            assert str(exc) == "module 'ptdep' has no attribute 'no_such_name'"
        else:
            raise AssertionError("no AttributeError")
    """
    env = dict(os.environ, PYTHONPATH=str(Path(ptdep.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
