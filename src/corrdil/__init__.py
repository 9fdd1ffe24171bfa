"""corrdil: numerical dilation toolkit for graph C*-correspondences with
finite-group gauge actions.

The package models the correspondence of a finite directed graph (functions
on edges as a Hilbert module over functions on vertices), finite-dimensional
representations of it, and unitary gauge symmetries, and provides
constructive dilation procedures — one-step isometric and Cuntz-Krieger
steps, minimal isometric coextension, and a Cuntz-Pimsner pipeline — whose
corner guarantees are machine-checkable defect reports.  A separate module
reproduces an exact two-part norm computation exhibiting an operator-algebra
cover to which a circle action does not extend.
"""

from .exceptions import (
    ConfigurationError,
    ContractivityError,
    CorrdilError,
    DimensionError,
    GraphLookupError,
    ParseError,
    PositivityError,
    ResourceCapError,
    StructureError,
)
from .linalg import (
    DEFAULT_TOL,
    HALMOS_CONSTANT,
    Subspace,
    Tolerance,
    as_cmatrix,
    defect_sqrt,
    is_psd,
    op_norm,
    orthonormal_closure,
    psd_sqrt,
)
from .graph import (
    DirectedGraph,
    Edge,
    edge_bucket,
    finite_receivers,
    range_fiber,
    satisfies_hyperrigidity_criterion,
)
from .correspondence import (
    CoeffElement,
    CorrElement,
    delta_edge,
    delta_vertex,
    inner_product,
    left_action,
    right_action,
)
from .gauge import (
    CheckResult,
    FiniteGroup,
    GaugeAction,
    act_on_coeff,
    act_on_element,
    trivial_action,
    verify_action,
    verify_group,
)
from .representation import (
    CheckLine,
    DefectReport,
    GraphRep,
    RowContractionReport,
    VertexContraction,
    apply_t,
    ck_defect,
    covariance_defect,
    induced_regular_rep,
    row_contraction_check,
    toeplitz_defect,
    validate,
)
from .dilation import (
    DilationStep,
    PipelineReport,
    StageRecord,
    cp_dilate,
    iterate_ck,
    iterate_coextension,
    minimal_reduce,
    moment_signature,
    one_step_ck,
    one_step_isometric,
)
from .disc import (
    CoverElement,
    admissibility_gap,
    cover_norm,
    embed_poly,
    mobius_coeffs,
    relation_defect,
)
from .io import ProblemFile, load_problem, parse_problem, problem_text, save_problem

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ContractivityError",
    "CorrdilError",
    "DimensionError",
    "GraphLookupError",
    "ParseError",
    "PositivityError",
    "ResourceCapError",
    "StructureError",
    "DEFAULT_TOL",
    "HALMOS_CONSTANT",
    "Subspace",
    "Tolerance",
    "as_cmatrix",
    "defect_sqrt",
    "is_psd",
    "op_norm",
    "orthonormal_closure",
    "psd_sqrt",
    "DirectedGraph",
    "Edge",
    "edge_bucket",
    "finite_receivers",
    "range_fiber",
    "satisfies_hyperrigidity_criterion",
    "CoeffElement",
    "CorrElement",
    "delta_edge",
    "delta_vertex",
    "inner_product",
    "left_action",
    "right_action",
    "CheckResult",
    "FiniteGroup",
    "GaugeAction",
    "act_on_coeff",
    "act_on_element",
    "trivial_action",
    "verify_action",
    "verify_group",
    "CheckLine",
    "DefectReport",
    "GraphRep",
    "RowContractionReport",
    "VertexContraction",
    "apply_t",
    "ck_defect",
    "covariance_defect",
    "induced_regular_rep",
    "row_contraction_check",
    "toeplitz_defect",
    "validate",
    "DilationStep",
    "PipelineReport",
    "StageRecord",
    "cp_dilate",
    "iterate_ck",
    "iterate_coextension",
    "minimal_reduce",
    "moment_signature",
    "one_step_ck",
    "one_step_isometric",
    "CoverElement",
    "admissibility_gap",
    "cover_norm",
    "embed_poly",
    "mobius_coeffs",
    "relation_defect",
    "ProblemFile",
    "load_problem",
    "parse_problem",
    "problem_text",
    "save_problem",
    "__version__",
]
