"""Analytic Bayesian nonparametric dependence testing on recursive quadrant partitions."""

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
from .simulate import (
    PermutationNull,
    PowerReport,
    ReplicateSummary,
    SimModel,
    generate,
    permutation_null,
    power_experiment,
    replicate_experiment,
    run_replicates,
)
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
