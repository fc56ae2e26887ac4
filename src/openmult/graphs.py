"""Factorization on a finite graph with consistent vertex values.

Vertex values of the perturbations are fixed first from the canonical samples
(so every incident edge sees the same number), then the interval pipeline
runs once over all edges laid end to end, each with those values pinned at
its endpoints and with the bits it gets alone.  The certified radius is the
same delta0 as on a single interval, for every graph.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import OpenMultError, PreconditionViolated
from .functions import GraphDomain, GraphFunction, IntervalDomain, sup_norm
from .interval import (
    EndpointPin,
    FactorizationResult,
    PipelineConfig,
    factorize_interval_arrays,
    phase_offset,
    plan_intervals,
    root_pair,
    solve_intervals,
)
from .quadratic import smaller_root_vec


def refine_partition(graph: GraphDomain) -> GraphDomain:
    """Turn declared interior crossing points into vertices.

    Each crossing group becomes one new vertex; the edges listed in the group
    are split at the given node indices.  Function values transfer exactly via
    slice_graph_function since sub-edges reuse the parent's node samples.
    """
    if not graph.crossings:
        return graph
    taken = set(graph.vertices)
    new_names = []
    i = 0
    for _ in graph.crossings:
        while f"x{i}" in taken:
            i += 1
        name = f"x{i}"
        taken.add(name)
        new_names.append(name)
    splits = {}  # edge index -> list of (node index, vertex name)
    for group, name in zip(graph.crossings, new_names):
        for ei, k in group:
            bucket = splits.setdefault(ei, [])
            if any(k == kk for kk, _ in bucket):
                raise ValueError(f"edge {ei} split twice at node {k}")
            bucket.append((k, name))
    edges = []
    slices = []
    for ei, (u, v, dom) in enumerate(graph.edges):
        cuts = sorted(splits.get(ei, []))
        nodes = dom.nodes()
        lo, left_vertex = 0, u
        for k, name in cuts:
            edges.append((left_vertex, name, IntervalDomain(float(nodes[lo]), float(nodes[k]), k - lo + 1)))
            slices.append((ei, lo, k))
            lo, left_vertex = k, name
        edges.append((left_vertex, v, IntervalDomain(float(nodes[lo]), float(nodes[-1]), dom.n - lo)))
        slices.append((ei, lo, dom.n - 1))
    return GraphDomain(
        vertices=tuple(graph.vertices) + tuple(new_names),
        edges=tuple(edges),
        crossings=(),
        parent_slices=tuple(slices),
    )


def slice_graph_function(fn: GraphFunction, refined: GraphDomain) -> GraphFunction:
    """Carry a function across refine_partition; values are reused bit-exactly."""
    if refined.parent_slices is None:
        if refined == fn.domain:
            return fn
        raise ValueError("refined domain carries no parentage")
    values = tuple(fn.edge_values[ei][lo:hi + 1] for ei, lo, hi in refined.parent_slices)
    return GraphFunction(refined, values)


@dataclass(frozen=True)
class EdgePlan:
    """Boundary assignments for one edge: the pins its endpoints must honor.

    Plans for edges sharing a vertex carry identical assignments there, since
    every pin is computed once from the canonical vertex samples.
    """

    edge: int
    left: EndpointPin
    right: EndpointPin


def _vertex_pins(f, g, d, cfg):
    graph = f.domain
    return {
        v: _vertex_pin(f.vertex_value(v), g.vertex_value(v), d.vertex_value(v), cfg)
        for v in graph.vertices
        if graph.incident(v)
    }


def plan_edges(f: GraphFunction, g: GraphFunction, d: GraphFunction, eps0: float) -> tuple:
    """Vertex-first assignment: one pin per vertex, shared by incident edges."""
    cfg = PipelineConfig.for_target(eps0)
    pins = _vertex_pins(f, g, d, cfg)
    return tuple(
        EdgePlan(edge=ei, left=pins[u], right=pins[v])
        for ei, (u, v, _dom) in enumerate(f.domain.edges)
    )


@dataclass(frozen=True)
class GraphFactorizationResult:
    d1: GraphFunction
    d2: GraphFunction
    edge_results: tuple
    vertex_report: dict = field(compare=False)
    residual: float = 0.0
    bound1: float = 0.0
    bound2: float = 0.0

    def to_json(self) -> dict:
        return {
            "edges": [r.to_json() for r in self.edge_results],
            "vertices": {
                str(v): {
                    "kind": rep["kind"],
                    "d1": [rep["d1"].real, rep["d1"].imag],
                    "d2": [rep["d2"].real, rep["d2"].imag],
                    "agreement": repr(rep["agreement"]),
                }
                for v, rep in self.vertex_report.items()
            },
            "residual": repr(self.residual),
            "bound1": repr(self.bound1),
            "bound2": repr(self.bound2),
        }


def _vertex_pin(fval, gval, dval, cfg: PipelineConfig) -> EndpointPin:
    h = abs(fval) ** 2 + abs(gval) ** 2
    if h < cfg.eta2:
        za, wa = root_pair(fval * gval + dval)
        return EndpointPin(kind="cover", d1=za - fval, d2=wa - gval, za=za, wa=wa)
    if fval != 0 and gval != 0:
        beta2 = phase_offset(fval, gval)
    else:
        beta2 = 1j  # one factor vanishes: any rotation keeps |f + beta2*g| = sqrt(h)
    f_quad = fval + beta2 * gval
    phi = complex(smaller_root_vec(-dval, f_quad, beta2))
    return EndpointPin(kind="nondeg", d1=beta2 * phi, d2=phi, beta2=beta2)


def open_mult_graph(
    f: GraphFunction, g: GraphFunction, d: GraphFunction, eps0: float
) -> GraphFactorizationResult:
    """Per-edge factorization of f*g + d with exact agreement at vertices.

    Vertices are classified against the cover threshold of the interval
    pipeline: jointly degenerate vertices get direct-factorization boundary
    data, the rest get a globally fixed rotation phase, and every edge is
    solved with those pins so the values at a vertex are assigned once.  One
    plan and one solve cover all edges; a refusal is that of the first edge,
    in edge order, that refuses on its own.
    """
    if not (f.domain == g.domain == d.domain):
        raise PreconditionViolated("f, g, d must live on the same graph")
    graph = f.domain
    if graph.crossings:
        raise PreconditionViolated("run refine_partition first: graph declares unresolved crossings")
    cfg = PipelineConfig.for_target(eps0)
    supd = sup_norm(d)
    cfg.check_radius(supd)

    if supd == 0.0:
        # No pipeline runs; every vertex is "trivial", isolated ones included.
        results = tuple(FactorizationResult.zero(dom, cfg) for _u, _v, dom in graph.edges)
        report = {
            v: {"kind": "trivial", "d1": 0j, "d2": 0j, "agreement": 0.0}
            for v in graph.vertices
        }
    else:
        pins = _vertex_pins(f, g, d, cfg)
        ends = tuple((pins[u], pins[v]) for u, v, _dom in graph.edges)
        offsets = np.cumsum([0] + [dom.n for _u, _v, dom in graph.edges])
        try:
            d1, d2, rows = solve_intervals(
                plan_intervals(np.concatenate(f.edge_values), np.concatenate(g.edge_values), eps0, offsets, ends),
                np.concatenate(d.edge_values),
            )
        except (OpenMultError, RuntimeError):
            # The refusal is that of the first edge that refuses alone.
            for parts, (pin_left, pin_right) in zip(zip(f.edge_values, g.edge_values, d.edge_values), ends):
                factorize_interval_arrays(*parts, eps0, pin_left=pin_left, pin_right=pin_right)
            raise
        bounds = offsets.tolist()
        results = tuple(
            FactorizationResult.of(dom, (d1[a:b], d2[a:b], *row))
            for (_u, _v, dom), a, b, row in zip(graph.edges, bounds, bounds[1:], rows)
        )
        sides = ([r.d1.values for r in results], [r.d2.values for r in results])
        report = {}
        for v, pin in pins.items():
            inc = graph.incident(v)
            spread = 0.0
            for edges in sides:
                samples = [edges[ei][side] for ei, side in inc]
                for s in samples[1:]:
                    spread = max(spread, abs(s - samples[0]))
            report[v] = {
                "kind": pin.kind,
                "d1": complex(pin.d1),
                "d2": complex(pin.d2),
                "agreement": spread,
            }
    return GraphFactorizationResult(
        d1=GraphFunction._trusted(graph, tuple(r.d1.values for r in results)),
        d2=GraphFunction._trusted(graph, tuple(r.d2.values for r in results)),
        edge_results=results,
        vertex_report=report,
        residual=max(r.residual for r in results),
        bound1=max(r.bound1 for r in results),
        bound2=max(r.bound2 for r in results),
    )
