"""The refusal rules every entry point shares: inputs on different domains are
refused through the sample base's one check, and every refusal the library
raises names the bound it violates."""

import ast
from pathlib import Path

import numpy as np
import pytest

import openmult
import openmult.errors as errors
from openmult import (
    DiagonalAlgebraElement,
    DomainMismatch,
    FiniteSpaceFunction,
    GraphDomain,
    GraphFunction,
    GridFunction,
    IntervalDomain,
    PreconditionViolated,
    nondeg_approx,
    nondeg_phases,
    open_mult_finite,
    open_mult_graph,
    open_mult_interval,
    perturb_nondegenerate,
    probe_pipeline,
    quadratic_correction,
)


def _graph(names, n=5):
    return GraphDomain(names, tuple((names[0], w, IntervalDomain(0.0, 1.0, n)) for w in names[1:]))


def _on_graph(graph, value):
    return GraphFunction(graph, (np.full(graph.edges[0][2].n, value, dtype=complex),) * len(graph.edges))


GRID = IntervalDomain(0.0, 1.0, 9)
ONES = np.ones(GRID.n, dtype=complex)

# Per caller: a call over its sample arguments, valid inputs for them (so
# that the domain rule is the only one broken), and per mismatched pairing a
# sample of another type or of another domain of the same type.
CALLERS = {
    "open_mult_interval": (lambda f, g, d: open_mult_interval(f, g, d, 0.7), "grid", 3),
    "nondeg_phases": (lambda h1, h2: nondeg_phases(h1, h2, 0.5), "grid", 2),
    "perturb_nondegenerate": (lambda h1, h2, d: perturb_nondegenerate(h1, h2, d, 0.5, 0.5), "grid", 3),
    "quadratic_correction": (lambda f, g, d: quadratic_correction(f, g, d, 0.5, 0.5), "grid", 3),
    "probe_pipeline": (lambda f, g: probe_pipeline(f, g, 0.7, trials=1, seed=0), "grid", 2),
    "open_mult_graph": (lambda f, g, d: open_mult_graph(f, g, d, 0.7), "graph", 3),
    "open_mult_finite": (lambda a, b, d: open_mult_finite(a, b, d, 0.5), "finite", 3),
    "nondeg_approx": (lambda f, g: nondeg_approx(f, g, 0.5), "finite", 2),
    "DiagonalAlgebraElement": (lambda a, b: a + b, "diagonal", 2),
}
SAMPLES = {  # kind: (a valid sample, {pairing: a sample that breaks the domain rule against it})
    "grid": (GridFunction(GRID, ONES), {
        "other type": FiniteSpaceFunction(ONES),
        "other ends": GridFunction(IntervalDomain(0.0, 2.0, GRID.n), ONES),
        "other node count": GridFunction(IntervalDomain(0.0, 1.0, 2 * GRID.n - 1), np.ones(2 * GRID.n - 1)),
    }),
    "graph": (_on_graph(_graph("abc"), 1.0), {
        "other type": GridFunction(IntervalDomain(0.0, 1.0, 5), np.ones(5)),
        "other graph": _on_graph(_graph("abcd"), 1.0),
        "other edge grids": _on_graph(_graph("abc", 9), 1.0),
    }),
    "finite": (FiniteSpaceFunction([1.0, 1.0]), {
        "other type": GridFunction(IntervalDomain(0.0, 1.0, 2), [1.0, 1.0]),
        "other point count": FiniteSpaceFunction([1.0]),
    }),
    "diagonal": (DiagonalAlgebraElement(1.0, np.array([0.5]), np.array([1.0])), {
        "other weights": DiagonalAlgebraElement(1.0, np.array([0.5]), np.array([2.0])),
        "other weight count": DiagonalAlgebraElement(1.0, np.array([0.5, 0.5]), np.array([1.0, 1.0])),
    }),
}
# The valid third sample of each kind where the caller needs a small one: d.
SMALL = {"grid": GridFunction(GRID, np.zeros(GRID.n)), "graph": _on_graph(_graph("abc"), 0.0),
         "finite": FiniteSpaceFunction([0.0, 0.0])}


def _cases():
    for name, (_call, kind, arity) in CALLERS.items():
        for pairing in SAMPLES[kind][1]:
            for at in range(arity):
                yield pytest.param(name, pairing, at, id=f"{name}-{pairing}-arg{at}")


@pytest.mark.parametrize("name,pairing,at", _cases())
def test_every_caller_refuses_inputs_on_different_domains(name, pairing, at):
    call, kind, arity = CALLERS[name]
    valid, mismatched = SAMPLES[kind]
    args = [valid, valid, SMALL.get(kind)][:arity]
    args[at] = mismatched[pairing]
    with pytest.raises(DomainMismatch) as exc:
        call(*args)
    assert exc.value.bound == "common domain"
    assert isinstance(exc.value, PreconditionViolated) and exc.value.exit_code == 2


def test_every_caller_accepts_the_valid_inputs():
    # the valid samples above pass the domain rule: a refusal there is the mismatch's
    for name, (call, kind, arity) in CALLERS.items():
        valid = SAMPLES[kind][0]
        call(*[valid, valid, SMALL.get(kind)][:arity])


# ---------------------------------------------------------------------------
# Every refusal names its bound

SRC = Path(openmult.__file__).resolve().parent
# Internal failures are bugs, not refusals; EqualModulusRoots sets its own bound.
EXEMPT = {"EqualModulusRoots"} | {
    name for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, errors.InternalInvariantError)
}
REFUSALS = {
    name for name, cls in vars(errors).items() if isinstance(cls, type) and issubclass(cls, errors.OpenMultError)
} - EXEMPT


def _refusals_without_bound():
    """`file:line` of each `raise C(...)` in src/openmult of a refusal class
    C that passes no `bound=`."""
    sites = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise) and isinstance(node.exc, ast.Call):
                func = node.exc.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in REFUSALS and not any(kw.arg == "bound" for kw in node.exc.keywords):
                    sites.append((path.name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(sites)]


def test_every_refusal_names_its_bound():
    assert _refusals_without_bound() == []


def test_the_bound_scan_sees_every_refusal_class():
    # the scan reads the classes from openmult.errors: a refusal class added
    # there is scanned too, and none of the exempt ones is a refusal
    assert {"PreconditionViolated", "DomainMismatch", "CoverInfeasible", "ZeroArgument"} <= REFUSALS
    assert all(getattr(errors, name).exit_code == 2 for name in REFUSALS)
    assert {"InternalInvariantError", "VertexInconsistency", "ClaimViolation", "NonConvergence"} <= EXEMPT
