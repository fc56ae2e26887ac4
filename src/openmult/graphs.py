"""Factorization on a finite graph with consistent vertex values.

Vertex values of the perturbations are fixed first from the canonical samples
(so every incident edge sees the same number), then the interval pipeline
runs once over all edges laid end to end, each edge end holding its vertex's
canonical samples and pinned values, and each edge with the bits it gets
alone.  The certified radius is the same delta0 as on a single interval, for
every graph.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import count

import numpy as np

from . import pyarith
from .errors import EqualModulusRoots, PreconditionViolated
from .functions import GraphDomain, GraphFunction, IntervalDomain
from .interval import PIN_KINDS, Certificate, EndpointPin, FactorizationResult, PinTable, PipelineConfig
from .interval import phase_offsets, plan_intervals, solve_intervals
from .interval import factorize_interval_arrays  # noqa: F401  traced under this name by perfbench/layers.py
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
    fresh = (name for name in map("x{}".format, count()) if name not in taken)  # x0, x1, ... not yet vertices
    new_names = [next(fresh) for _ in graph.crossings]
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


class VertexPins(Mapping):
    """A PinTable of a graph's vertices with edges, in vertex order, read as a
    Mapping from vertex name to EndpointPin, each built on read; `index` maps
    each name to its row (GraphDomain._layout.index)."""

    def __init__(self, index: dict, table: PinTable):
        self.index, self.table = index, table

    def __getitem__(self, vertex) -> EndpointPin:
        return self.table.pin(self.index[vertex])

    def __iter__(self):
        return iter(self.index)

    def __len__(self) -> int:
        return len(self.index)


def _vertex_pins(f, g, d, cfg) -> VertexPins:
    """The pin of each vertex with edges, in vertex order, from the canonical
    samples f, g, d take there.

    Jointly degenerate vertices (|f|^2 + |g|^2 < eta2, in plan_intervals'
    formula, so each edge end classifies as its vertex) get the square-root
    pair of f*g + d; the others the rotation beta2 = phase_offsets(f, g) and
    the smaller root phi of beta2*phi^2 + (f + beta2*g)*phi = d.  All vertices
    run at once; the pins have the bits of the per-vertex scalar arithmetic (pyarith).
    A refusal is that of the first refusing vertex in vertex order: an
    overflowing |f|^2 + |g|^2 or tied root moduli.
    """
    graph = f.domain
    layout = graph._layout
    at = layout.canonical
    fv, gv, dv = f.values[at], g.values[at], d.values[at]
    names = list(layout.index)
    with np.errstate(all="ignore"):
        h = np.abs(fv) ** 2 + np.abs(gv) ** 2
    overflow = ~np.isfinite(h)
    stop = int(np.argmax(overflow)) if overflow.any() else len(names)
    cover = h < cfg.eta2
    d1, d2, za, wa, beta2 = np.zeros((5, len(names)), dtype=np.complex128)

    c = np.flatnonzero(cover)
    psi = pyarith.mul(fv[c], gv[c]) + dv[c]
    za[c] = np.sqrt(psi)
    wa[c] = np.where(za[c] != 0, pyarith.quot(psi, za[c]), 0)
    d1[c] = za[c] - fv[c]
    d2[c] = wa[c] - gv[c]

    nd = np.flatnonzero(~cover & ~overflow)
    beta2[nd] = phase_offsets(fv[nd], gv[nd])
    f_quad = fv[nd] + pyarith.mul(beta2[nd], gv[nd])
    phi, ties = smaller_root_vec(-dv[nd], f_quad, beta2[nd])
    if ties.size and nd[ties[0]] < stop:  # else the overflow at `stop` comes first
        raise EqualModulusRoots(f"root moduli tie at vertex {names[nd[ties[0]]]!r}", value=names[nd[ties[0]]])
    if stop < len(names):
        raise PreconditionViolated(
            f"|f|^2 + |g|^2 overflows at vertex {names[stop]!r}", bound="|f|^2 + |g|^2 finite at vertex",
        )
    d1[nd] = pyarith.mul(beta2[nd], phi)
    d2[nd] = phi
    kind = np.where(cover, PIN_KINDS.index("cover"), PIN_KINDS.index("nondeg"))
    return VertexPins(layout.index, PinTable(kind, d1, d2, za, wa, beta2))


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
    """d1, d2, the ragged solve's Certificate (one entry per edge) and the
    vertex pins (None where d = 0 and no pipeline ran); the rows (meta,
    residual, bound1, bound2), edge_results and vertex_report are built on
    first read."""

    d1: GraphFunction
    d2: GraphFunction
    certificate: Certificate = field(compare=False)
    pins: VertexPins | None = field(compare=False)
    residual: float = 0.0
    bound1: float = 0.0
    bound2: float = 0.0

    @cached_property
    def rows(self) -> tuple:
        return self.certificate.rows()

    @cached_property
    def edge_results(self) -> tuple:
        edges, d1, d2 = self.d1.domain.edges, self.d1.edge_values, self.d2.edge_values
        return tuple(FactorizationResult.of(e[2], (a, b, *row)) for e, a, b, row in zip(edges, d1, d2, self.rows))

    @cached_property
    def vertex_report(self) -> dict:
        # agreement is 0.0: each end of a vertex is solved to its one pin, or VertexInconsistency is raised
        rows = zip(self.pins, *(x.tolist() for x in self.pins.table[:3])) if self.pins is not None else ()
        pinned = {v: {"kind": PIN_KINDS[k], "d1": a, "d2": b, "agreement": 0.0} for v, k, a, b in rows}
        trivial = {"kind": "trivial", "d1": 0j, "d2": 0j, "agreement": 0.0}  # where d = 0, or at a vertex with no edges
        return {v: pinned.get(v, trivial).copy() for v in self.d1.domain.vertices}

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


def open_mult_graph(
    f: GraphFunction, g: GraphFunction, d: GraphFunction, eps0: float
) -> GraphFactorizationResult:
    """Per-edge factorization of f*g + d with exact agreement at vertices.

    Vertices are classified against the cover threshold of the interval
    pipeline: jointly degenerate vertices get direct-factorization boundary
    data, the rest get a globally fixed rotation phase, and every edge is
    solved with those pins so the values at a vertex are assigned once.  Every
    edge end takes its vertex's canonical samples of f, g and d, the numbers
    its pin was computed from, so the identity at a vertex is certified for
    those.  One plan and one solve cover all edges; a refusal names the first
    edge, in edge order, that refuses.
    """
    if not (f.domain == g.domain == d.domain):
        raise PreconditionViolated("f, g, d must live on the same graph", bound="common graph")
    graph = f.domain
    if graph.crossings:
        raise PreconditionViolated("run refine_partition first: graph declares unresolved crossings")
    cfg = PipelineConfig.for_target(eps0)
    supd = float(np.max(np.abs(d.values), initial=0.0))
    cfg.check_radius(supd)

    layout = graph._layout
    if supd == 0.0:  # no pipeline runs
        d1 = d2 = np.zeros(d.values.size, dtype=np.complex128)
        cert, pins = Certificate.zero(cfg, layout.offsets), None
    else:
        pins = _vertex_pins(f, g, d, cfg)
        canonical = layout.canonical[layout.slot]  # per edge end: its vertex's canonical sample
        fv, gv, dv = (x.values for x in (f, g, d))
        if any(not np.array_equal(x[layout.ends].view(np.uint64), x[canonical].view(np.uint64)) for x in (fv, gv, dv)):
            fv, gv, dv = (x.copy() for x in (fv, gv, dv))  # as bits: an end at -0.0 for a canonical 0.0 is rewritten
            fv[layout.ends], gv[layout.ends], dv[layout.ends] = fv[canonical], gv[canonical], dv[canonical]
        ends = PinTable(*(x[layout.slot.reshape(-1, 2)] for x in pins.table))  # per edge end: its vertex's pin
        d1, d2, cert = solve_intervals(plan_intervals(fv, gv, eps0, layout.offsets, ends), dv)
    return GraphFactorizationResult(
        d1=GraphFunction._trusted(graph, d1),
        d2=GraphFunction._trusted(graph, d2),
        certificate=cert,
        pins=pins,
        residual=max(cert.residual, default=0.0),
        bound1=max(cert.bound1, default=0.0),
        bound2=max(cert.bound2, default=0.0),
    )
