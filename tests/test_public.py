"""The package's public names: each one exported resolves, removed ones are gone."""

import importlib

import ptdep

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
