"""Analytic Bayesian nonparametric dependence testing on recursive quadrant partitions.

The names of :mod:`ptdep.simulate` are loaded on first use, so a program
that only tests or scans data never loads the simulator.
"""

from importlib import import_module

from .transforms import (
    PairedSample,
    RobustStats,
    robust_location_scale,
)
from .diffscan import (
    DiffEdge,
    ExpressionMatrix,
    PairResult,
    classify_edge,
    diff_scan,
    p_diff,
    pairwise_scan,
)
from .ebayes import ShiftSearchConfig, delta_candidates, ebayes_test
from .engine import (
    PartitionConfig,
    TestResult,
    log_cell_evidence,
    posterior_dependence,
    test_dependence,
)
from .errors import (
    DegenerateSample,
    EmptyMatrix,
    ParseError,
    PtdepError,
    RaggedRows,
    VarMismatch,
)

_SIMULATE_NAMES = ("PermutationNull", "PowerReport", "ReplicateSummary", "SimModel", "generate",
                   "permutation_null", "power_experiment", "replicate_experiment",
                   "run_replicates")

__version__ = "0.1.0"

__all__ = [
    "DegenerateSample",
    "DiffEdge",
    "EmptyMatrix",
    "ExpressionMatrix",
    "PairResult",
    "PairedSample",
    "ParseError",
    "PartitionConfig",
    "PermutationNull",
    "PowerReport",
    "PtdepError",
    "RaggedRows",
    "ReplicateSummary",
    "RobustStats",
    "ShiftSearchConfig",
    "SimModel",
    "TestResult",
    "VarMismatch",
    "classify_edge",
    "delta_candidates",
    "diff_scan",
    "ebayes_test",
    "generate",
    "log_cell_evidence",
    "p_diff",
    "pairwise_scan",
    "permutation_null",
    "posterior_dependence",
    "power_experiment",
    "replicate_experiment",
    "robust_location_scale",
    "run_replicates",
    "test_dependence",
]


def __getattr__(name: str):
    """A name of :mod:`ptdep.simulate`, which is imported on the first such lookup."""
    if name not in _SIMULATE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(".simulate", __name__), name)
    globals()[name] = value
    return value
