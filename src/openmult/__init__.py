"""Constructive factorization of perturbed products in discretized function
algebras, with certified norm bounds and empirical openness probes.

The public names below are resolved on first access (PEP 562), so
`import openmult` loads neither numpy nor a submodule until a name is used.
"""

import importlib

_EXPORTS = {
    "errors": (
        "BoundaryMismatch", "ClaimViolation", "CoverInfeasible", "DegeneratePair", "DomainMismatch",
        "EqualModulusRoots", "InternalInvariantError", "NonConvergence", "NonUnimodularInput",
        "NormBudgetExceeded", "OpenMultError", "PerturbationTooLarge", "PreconditionViolated",
        "VertexInconsistency", "ZeroArgument",
    ),
    "finite": ("DiagonalAlgebraElement", "diagonal_open_mult", "nondeg_approx", "open_mult_finite", "scalar_factor"),
    "functions": (
        "FiniteSpaceFunction", "GraphDomain", "GraphFunction", "GridFunction", "IntervalDomain", "conjugate",
        "function_from_json", "grid_function_from_csv", "load_function", "min_modulus_sum", "pointwise_product",
        "refine", "sup_norm",
    ),
    "graphs": (
        "EdgePlan", "GraphFactorizationResult", "open_mult_graph", "plan_edges", "refine_partition",
        "slice_graph_function",
    ),
    "interval": (
        "EndpointPin", "FactorizationResult", "IntervalCover", "PinTable", "PipelineConfig", "circle_extend", "delta0",
        "factor_halfboundary", "factor_interval", "nondeg_phases", "open_mult_interval", "perturb_nondegenerate",
        "phase_offset", "plan_interval", "plan_intervals", "quadratic_correction", "shift_budget",
        "solve_interval", "solve_intervals", "sublevel_cover",
    ),
    "probe": ("ProbeReport", "brute_scalar_delta", "probe_pipeline"),
    "quadratic": ("QuadraticTriple", "has_distinct_moduli", "roots", "smaller_root"),
    "scheme": (
        "AlgebraModel", "SchemeParams", "SchemeTrace", "audit_claims", "diagonal_algebra_model",
        "inverse_norm_bound", "run_scheme", "scheme_params", "sup_algebra_model",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
