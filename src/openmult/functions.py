"""Discretized complex-valued functions on intervals, finite spaces, and graphs.

Functions are represented by node samples with sup-norm semantics; algebraic
identities are asserted exactly at nodes and between-node behaviour is
piecewise linear by convention.  All values are immutable after construction.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainMismatch

VERTEX_TOL = 1e-9


def _as_complex_array(values, n=None):
    arr = np.asarray(values, dtype=np.complex128)
    if arr.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if n is not None and arr.size != n:
        raise ValueError(f"expected {n} values, got {arr.size}")
    if arr.size == 0:
        raise ValueError("values must be nonempty")
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class IntervalDomain:
    """Uniform grid on a closed interval: nodes a + k*(b-a)/(n-1)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        if not self.a < self.b:
            raise ValueError("require a < b")
        if self.n < 2:
            raise ValueError("require n >= 2")

    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)

    @property
    def step(self) -> float:
        return (self.b - self.a) / (self.n - 1)


@dataclass(frozen=True)
class GridFunction:
    """Complex node samples on an IntervalDomain."""

    domain: IntervalDomain
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex_array(self.values, self.domain.n))

    @classmethod
    def from_callable(cls, domain: IntervalDomain, fn) -> "GridFunction":
        return cls(domain, np.asarray([fn(t) for t in domain.nodes()]))

    @classmethod
    def constant(cls, domain: IntervalDomain, c) -> "GridFunction":
        return cls(domain, np.full(domain.n, c, dtype=np.complex128))

    def with_values(self, values) -> "GridFunction":
        return GridFunction(self.domain, values)

    def restrict(self, lo: int, hi: int) -> "GridFunction":
        """Closed node-index range [lo, hi] as a new GridFunction."""
        if not (0 <= lo < hi <= self.domain.n - 1):
            raise ValueError("invalid index range")
        nodes = self.domain.nodes()
        sub = IntervalDomain(float(nodes[lo]), float(nodes[hi]), hi - lo + 1)
        return GridFunction(sub, self.values[lo:hi + 1])

    def _binop(self, other, op):
        if isinstance(other, GridFunction):
            if other.domain != self.domain:
                raise DomainMismatch("grid functions live on different domains")
            return GridFunction(self.domain, op(self.values, other.values))
        return GridFunction(self.domain, op(self.values, other))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __radd__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    def __rmul__(self, other):
        return self._binop(other, np.multiply)

    def __neg__(self):
        return GridFunction(self.domain, -self.values)

    def to_json(self) -> dict:
        return {
            "domain": {"type": "interval", "a": self.domain.a, "b": self.domain.b, "n": self.domain.n},
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }


@dataclass(frozen=True)
class FiniteSpaceFunction:
    """Complex values indexed by the points of a finite discrete space."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex_array(self.values))

    @property
    def n(self) -> int:
        return self.values.size

    def _binop(self, other, op):
        if isinstance(other, FiniteSpaceFunction):
            if other.n != self.n:
                raise DomainMismatch("finite-space functions have different sizes")
            return FiniteSpaceFunction(op(self.values, other.values))
        return FiniteSpaceFunction(op(self.values, other))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    def __rmul__(self, other):
        return self._binop(other, np.multiply)

    def __neg__(self):
        return FiniteSpaceFunction(-self.values)

    def to_json(self) -> dict:
        return {
            "domain": {"type": "finite", "n": self.n},
            "values": [[float(v.real), float(v.imag)] for v in self.values],
        }


@dataclass(frozen=True)
class GraphDomain:
    """A finite 1-complex: vertices, edges carrying interval grids.

    Each edge is (u, v, IntervalDomain); the (u, v) pair is the incidence map
    from edge endpoints to vertices (node 0 of the edge grid sits at u, node
    n-1 at v).  `crossings` optionally declares interior intersection points:
    each group is a tuple of (edge_index, node_index) locations that denote a
    single geometric point, to be turned into a vertex by refine_partition.
    `parent_slices` records, for domains produced by refine_partition, which
    (parent_edge, lo, hi) node range each edge was cut from.
    """

    vertices: tuple
    edges: tuple
    crossings: tuple = ()
    parent_slices: tuple | None = field(default=None, compare=False)
    _incidence: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        incidence = {v: [] for v in self.vertices}
        edges = []
        for i, e in enumerate(self.edges):
            u, v, dom = e
            if u not in incidence or v not in incidence:
                raise ValueError(f"edge endpoint {u!r} or {v!r} is not a vertex")
            if not isinstance(dom, IntervalDomain):
                raise ValueError("edge grid must be an IntervalDomain")
            edges.append((u, v, dom))
            incidence[u].append((i, 0))
            incidence[v].append((i, -1))
        object.__setattr__(self, "edges", tuple(edges))
        object.__setattr__(self, "_incidence", incidence)
        groups = []
        for group in self.crossings:
            cleaned = []
            for ei, k in group:
                u, v, dom = self.edges[ei]
                if not (0 < k < dom.n - 1):
                    raise ValueError("crossing node must be interior to its edge")
                cleaned.append((int(ei), int(k)))
            groups.append(tuple(cleaned))
        object.__setattr__(self, "crossings", tuple(groups))

    def incident(self, vertex):
        """(edge_index, side) pairs touching `vertex`; side is 0 or -1."""
        return list(self._incidence.get(vertex, ()))


@dataclass(frozen=True)
class GraphFunction:
    """Per-edge grid samples with matching values at shared vertices."""

    domain: GraphDomain
    edge_values: tuple

    def __post_init__(self):
        if len(self.edge_values) != len(self.domain.edges):
            raise ValueError("need one value array per edge")
        arrays = tuple(
            _as_complex_array(vals, dom.n)
            for (u, v, dom), vals in zip(self.domain.edges, self.edge_values)
        )
        object.__setattr__(self, "edge_values", arrays)
        self._check_vertex_agreement()

    def _check_vertex_agreement(self):
        for vertex in self.domain.vertices:
            samples = [self.edge_values[ei][side] for ei, side in self.domain.incident(vertex)]
            for s in samples[1:]:
                if abs(s - samples[0]) > VERTEX_TOL * (1.0 + abs(samples[0])):
                    raise ValueError(f"vertex {vertex!r} values disagree beyond tolerance")

    def vertex_value(self, vertex):
        """Canonical sample at a vertex (first incident edge in edge order)."""
        inc = self.domain.incident(vertex)
        if not inc:
            raise ValueError(f"vertex {vertex!r} has no incident edges")
        ei, side = inc[0]
        return complex(self.edge_values[ei][side])

    def edge_function(self, i: int) -> GridFunction:
        return GridFunction(self.domain.edges[i][2], self.edge_values[i])

    def _binop(self, other, op):
        if isinstance(other, GraphFunction):
            if other.domain != self.domain:
                raise DomainMismatch("graph functions live on different graphs")
            return GraphFunction(self.domain, tuple(op(a, b) for a, b in zip(self.edge_values, other.edge_values)))
        return GraphFunction(self.domain, tuple(op(a, other) for a in self.edge_values))

    def __add__(self, other):
        return self._binop(other, np.add)

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    def __rmul__(self, other):
        return self._binop(other, np.multiply)

    def to_json(self) -> dict:
        return {
            "domain": {
                "type": "graph",
                "vertices": list(self.domain.vertices),
                "edges": [
                    {"u": u, "v": v, "a": dom.a, "b": dom.b, "n": dom.n}
                    for u, v, dom in self.domain.edges
                ],
            },
            "values": [
                [[float(v.real), float(v.imag)] for v in vals] for vals in self.edge_values
            ],
        }


# ---------------------------------------------------------------------------
# Pointwise algebra and norms


def sup_norm(f) -> float:
    """Max of |value| over all nodes."""
    if isinstance(f, GraphFunction):
        return max(float(np.max(np.abs(vals))) for vals in f.edge_values)
    return float(np.max(np.abs(f.values)))


def pointwise_product(f, g):
    """Node-wise complex product; domains must match."""
    return f * g


def conjugate(f):
    """Node-wise complex conjugation (the involution of the algebra)."""
    if isinstance(f, GridFunction):
        return GridFunction(f.domain, np.conj(f.values))
    if isinstance(f, FiniteSpaceFunction):
        return FiniteSpaceFunction(np.conj(f.values))
    if isinstance(f, GraphFunction):
        return GraphFunction(f.domain, tuple(np.conj(v) for v in f.edge_values))
    raise TypeError(f"unsupported function type {type(f)!r}")


def min_modulus_sum(f, g, squared: bool = False) -> float:
    """Min over nodes of |f| + |g|, or of |f|^2 + |g|^2 with squared=True."""
    if isinstance(f, GraphFunction) or isinstance(g, GraphFunction):
        if f.domain != g.domain:
            raise DomainMismatch("graph functions live on different graphs")
        pairs = zip(f.edge_values, g.edge_values)
        return min(_min_modulus_arrays(a, b, squared) for a, b in pairs)
    if type(f) is not type(g):
        raise DomainMismatch("mixed function types")
    if isinstance(f, GridFunction) and f.domain != g.domain:
        raise DomainMismatch("grid functions live on different domains")
    if isinstance(f, FiniteSpaceFunction) and f.n != g.n:
        raise DomainMismatch("finite-space functions have different sizes")
    return _min_modulus_arrays(f.values, g.values, squared)


def _min_modulus_arrays(a, b, squared):
    fa, fb = np.abs(a), np.abs(b)
    if squared:
        return float(np.min(fa * fa + fb * fb))
    return float(np.min(fa + fb))


def refine(f: GridFunction, factor: int) -> GridFunction:
    """Refined grid with (n-1)*factor + 1 nodes.

    Original nodes keep their stored values bit-exactly; new nodes carry
    linear interpolants of the neighbouring samples.
    """
    if factor < 2:
        raise ValueError("refinement factor must be >= 2")
    n = f.domain.n
    new_n = (n - 1) * factor + 1
    out = np.empty(new_n, dtype=np.complex128)
    out[::factor] = f.values
    left, right = f.values[:-1], f.values[1:]
    for j in range(1, factor):
        s = j / factor
        out[j::factor] = left * (1.0 - s) + right * s
    return GridFunction(IntervalDomain(f.domain.a, f.domain.b, new_n), out)


# ---------------------------------------------------------------------------
# JSON / CSV interchange


def function_from_json(obj) -> GridFunction | FiniteSpaceFunction | GraphFunction:
    """Parse the wire format {"domain": {...}, "values": [...]}."""
    dom = obj["domain"]
    kind = dom["type"]
    if kind == "interval":
        domain = IntervalDomain(float(dom["a"]), float(dom["b"]), int(dom["n"]))
        return GridFunction(domain, _values_from_pairs(obj["values"]))
    if kind == "finite":
        values = _values_from_pairs(obj["values"])
        if "n" in dom and int(dom["n"]) != values.size:
            raise ValueError("declared size disagrees with values")
        return FiniteSpaceFunction(values)
    if kind == "graph":
        edges = tuple(
            (e["u"], e["v"], IntervalDomain(float(e.get("a", 0.0)), float(e.get("b", 1.0)), int(e["n"])))
            for e in dom["edges"]
        )
        graph = GraphDomain(tuple(dom["vertices"]), edges)
        return GraphFunction(graph, tuple(_values_from_pairs(v) for v in obj["values"]))
    raise ValueError(f"unknown domain type {kind!r}")


def _values_from_pairs(pairs):
    return np.asarray([complex(re, im) for re, im in pairs], dtype=np.complex128)


def function_to_json(f) -> dict:
    return f.to_json()


def load_function(path) -> GridFunction | FiniteSpaceFunction | GraphFunction:
    with open(path, "r", encoding="utf-8") as fh:
        return function_from_json(json.load(fh))


def grid_function_from_csv(path) -> GridFunction:
    """CSV import with columns t, re, im on a uniform grid."""
    ts, vals = [], []
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            ts.append(float(row["t"]))
            vals.append(complex(float(row["re"]), float(row["im"])))
    if len(ts) < 2:
        raise ValueError("need at least two rows")
    t = np.asarray(ts)
    steps = np.diff(t)
    if np.any(steps <= 0) or np.max(np.abs(steps - steps[0])) > 1e-9 * (1.0 + abs(steps[0])):
        raise ValueError("t column must be a uniform increasing grid")
    return GridFunction(IntervalDomain(float(t[0]), float(t[-1]), len(ts)), np.asarray(vals))
