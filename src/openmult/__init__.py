"""Constructive factorization of perturbed products in discretized function
algebras, with certified norm bounds and empirical openness probes."""

from .errors import (
    BoundaryMismatch,
    ClaimViolation,
    CoverInfeasible,
    DegeneratePair,
    DomainMismatch,
    EqualModulusRoots,
    NonConvergence,
    NonUnimodularInput,
    NormBudgetExceeded,
    OpenMultError,
    PerturbationTooLarge,
    PreconditionViolated,
    VertexInconsistency,
    ZeroArgument,
)
from .finite import (
    DiagonalAlgebraElement,
    diagonal_open_mult,
    nondeg_approx,
    open_mult_finite,
    scalar_factor,
)
from .functions import (
    FiniteSpaceFunction,
    GraphDomain,
    GraphFunction,
    GridFunction,
    IntervalDomain,
    conjugate,
    function_from_json,
    grid_function_from_csv,
    load_function,
    min_modulus_sum,
    pointwise_product,
    refine,
    sup_norm,
)
from .graphs import (
    EdgePlan,
    GraphFactorizationResult,
    open_mult_graph,
    plan_edges,
    refine_partition,
    slice_graph_function,
)
from .interval import (
    EndpointPin,
    FactorizationResult,
    IntervalCover,
    PipelineConfig,
    circle_extend,
    delta0,
    factor_halfboundary,
    factor_interval,
    nondeg_phases,
    open_mult_interval,
    perturb_nondegenerate,
    phase_offset,
    plan_interval,
    plan_intervals,
    quadratic_correction,
    shift_budget,
    solve_interval,
    solve_intervals,
    sublevel_cover,
)
from .probe import ProbeReport, brute_scalar_delta, probe_pipeline
from .quadratic import QuadraticTriple, has_distinct_moduli, roots, smaller_root
from .scheme import (
    AlgebraModel,
    SchemeParams,
    SchemeTrace,
    audit_claims,
    diagonal_algebra_model,
    inverse_norm_bound,
    run_scheme,
    scheme_params,
    sup_algebra_model,
)

__version__ = "0.1.0"
