"""Closed-form norm bounds and noncommutativity certificates for weighted
bipartite tensor sums of self-adjoint contractions.

The central objects are B_c = sum_i c_i x_i (x) y_i, its pairwise
interaction magnitudes phi_ij built from commutator and anticommutator
norms, and graph-restricted variants whose constant depends only on the
minimum degree. An exact dense reference path validates every bound, and
inverse certificates convert an observed correlation value into lower
bounds on how many pairs must substantially fail to commute.
"""

from .bounds import (
    BoundReport,
    DominationCheck,
    DominationError,
    DominationReport,
    ExtremeSpectrum,
    InstanceValidationError,
    PhiTable,
    TensorSumInstance,
    build_report,
    check_domination,
    exact_reference,
    extreme_spectrum,
    phi_table,
    require_domination,
)
from .certificates import (
    CertificateReport,
    CountingBound,
    PhiThresholdBound,
    build_certificate_report,
)
from .families import (
    ContractionCertificate,
    clifford_generators,
    pauli,
    random_operator,
    validate,
)
from .graphs import (
    InteractionGraph,
    IsolatedVertexError,
    chain_graph,
    complete_graph,
    graph_constant,
    random_graph_min_degree_one,
    star_graph,
)
from .instance_io import (
    SCHEMA_VERSION,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    save_instance,
)
from .linalg import (
    DEFAULT_DIM_CAP,
    DimensionCapError,
    LanczosResult,
    SpectralSummary,
    as_operator,
    lanczos_extremes,
    spectral_norm,
)
from .sweep import SweepConfig, SweepResult, run_sweep

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CertificateReport",
    "ContractionCertificate",
    "CountingBound",
    "DEFAULT_DIM_CAP",
    "DimensionCapError",
    "DominationCheck",
    "DominationError",
    "DominationReport",
    "ExtremeSpectrum",
    "InstanceValidationError",
    "InteractionGraph",
    "IsolatedVertexError",
    "LanczosResult",
    "PhiTable",
    "PhiThresholdBound",
    "SCHEMA_VERSION",
    "SpectralSummary",
    "SweepConfig",
    "SweepResult",
    "TensorSumInstance",
    "as_operator",
    "build_certificate_report",
    "build_report",
    "chain_graph",
    "check_domination",
    "clifford_generators",
    "complete_graph",
    "exact_reference",
    "extreme_spectrum",
    "graph_constant",
    "instance_from_dict",
    "instance_to_dict",
    "lanczos_extremes",
    "load_instance",
    "pauli",
    "phi_table",
    "random_graph_min_degree_one",
    "random_operator",
    "require_domination",
    "run_sweep",
    "save_instance",
    "spectral_norm",
    "star_graph",
    "validate",
]
