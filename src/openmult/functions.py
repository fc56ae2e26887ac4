"""Discretized complex-valued functions on intervals, finite spaces, and graphs.

Functions are represented by node samples with sup-norm semantics; algebraic
identities are asserted exactly at nodes and between-node behaviour is
piecewise linear by convention.  All values are immutable after construction.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import NamedTuple

import numpy as np

from . import pyarith
from .errors import DomainMismatch

VERTEX_TOL = 1e-9


def _check_shape(arr, n=None):
    """Refuse an array that is not one-dimensional with n entries (any
    nonzero number of entries when n is None)."""
    if arr.ndim != 1:
        raise ValueError("values must be one-dimensional")
    if n is not None and arr.size != n:
        raise ValueError(f"expected {n} values, got {arr.size}")
    if n is None and arr.size == 0:
        raise ValueError("values must be nonempty")


def _as_complex_array(values, n=None):
    arr = np.asarray(values, dtype=np.complex128)
    _check_shape(arr, n)
    if not np.isfinite(arr).all():
        raise ValueError("values must be finite")
    arr = arr.copy()
    arr.setflags(write=False)
    return arr


def values_to_json(values) -> list:
    """The wire form [[re, im], ...] of a complex array: its float64 pairs as
    they are stored, with no arithmetic on them."""
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.float64).reshape(-1, 2).tolist()


def values_from_json(pairs) -> np.ndarray:
    """Inverse of values_to_json; anything but a list of pairs of numbers
    (strings included) is refused with ValueError."""
    arr = np.asarray(pairs)
    if arr.shape == (0,):
        return np.empty(0, dtype=np.complex128)
    if arr.dtype.kind not in "biuf" or arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError("values must be a list of [re, im] pairs of numbers")
    return np.ascontiguousarray(arr, dtype=np.float64).view(np.complex128).ravel()


class _Samples:
    """Pointwise arithmetic shared by the sampled function types.

    Every sample type holds its samples as one validated, read-only complex
    array, `values`, and builds a sample on its own domain from a new array
    with `_like(values)`.  Two samples combine node by node only when they
    have the same type and equal `domain`, and compare equal when, besides,
    their values are equal node by node.  Samples are not hashable.
    """

    __hash__ = None

    def __eq__(self, other):
        return type(other) is type(self) and other.domain == self.domain and np.array_equal(other.values, self.values)

    @classmethod
    def _trusted(cls, *fields):
        """An instance around an array the library made itself, taken as it
        is: no copy, no finiteness scan, no vertex-agreement check.  The array
        is made read-only.  Public construction keeps every check."""
        obj = object.__new__(cls)
        for name, value in zip(cls.__dataclass_fields__, fields):
            object.__setattr__(obj, name, value)
        obj.values.setflags(write=False)
        return obj

    def _check_domain(self, other):
        if type(other) is not type(self) or other.domain != self.domain:
            names = f"{type(self).__name__} and {type(other).__name__}"
            raise DomainMismatch(f"{names} live on different domains", bound="common domain")

    def _binop(self, other, op):
        if isinstance(other, _Samples):
            self._check_domain(other)
            other = other.values
        return self._like(op(self.values, other))

    def __add__(self, other):
        return self._binop(other, np.add)

    __radd__ = __add__

    def __sub__(self, other):
        return self._binop(other, np.subtract)

    def __rsub__(self, other):
        return self._binop(other, lambda a, b: b - a)

    def __mul__(self, other):
        return self._binop(other, np.multiply)

    __rmul__ = __mul__

    def __neg__(self):
        return self._like(-self.values)


@dataclass(frozen=True)
class IntervalDomain:
    """Uniform grid on a closed interval: nodes a + k*(b-a)/(n-1)."""

    a: float
    b: float
    n: int

    def __post_init__(self):
        try:
            ok = self.a < self.b and math.isfinite(self.b - self.a)
        except OverflowError:  # a span of Python ints past the float range
            ok = False
        if not ok:
            raise ValueError("require a < b, with b - a finite")
        if self.n < 2:
            raise ValueError("require n >= 2")

    def nodes(self) -> np.ndarray:
        return np.linspace(self.a, self.b, self.n)


@dataclass(frozen=True, eq=False)
class GridFunction(_Samples):
    """Complex node samples on an IntervalDomain."""

    domain: IntervalDomain
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex_array(self.values, self.domain.n))

    @classmethod
    def constant(cls, domain: IntervalDomain, c) -> "GridFunction":
        return cls(domain, np.full(domain.n, c, dtype=np.complex128))

    def restrict(self, lo: int, hi: int) -> "GridFunction":
        """Closed node-index range [lo, hi] as a new GridFunction."""
        if not (0 <= lo < hi <= self.domain.n - 1):
            raise ValueError("invalid index range")
        nodes = self.domain.nodes()
        sub = IntervalDomain(float(nodes[lo]), float(nodes[hi]), hi - lo + 1)
        return GridFunction(sub, self.values[lo:hi + 1])

    def _like(self, values):
        return GridFunction(self.domain, values)

    def to_json(self) -> dict:
        return {
            "domain": {"type": "interval", "a": self.domain.a, "b": self.domain.b, "n": self.domain.n},
            "values": values_to_json(self.values),
        }


@dataclass(frozen=True, eq=False)
class FiniteSpaceFunction(_Samples):
    """Complex values indexed by the points of a finite discrete space."""

    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _as_complex_array(self.values))

    @property
    def n(self) -> int:
        return self.values.size

    domain = n  # the space {0, ..., n-1}, identified by its number of points

    def _like(self, values):
        return FiniteSpaceFunction(values)

    def to_json(self) -> dict:
        return {"domain": {"type": "finite", "n": self.n}, "values": values_to_json(self.values)}


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

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        names = set(self.vertices)
        if len(names) < len(self.vertices):
            raise ValueError("vertex names must be distinct")
        edges = []
        for u, v, dom in self.edges:
            if u not in names or v not in names:
                raise ValueError(f"edge endpoint {u!r} or {v!r} is not a vertex")
            if not isinstance(dom, IntervalDomain):
                raise ValueError("edge grid must be an IntervalDomain")
            edges.append((u, v, dom))
        object.__setattr__(self, "edges", tuple(edges))
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
        """(edge_index, side) pairs touching `vertex`, in edge order; side is 0 or -1."""
        layout = self._layout
        ends = np.flatnonzero(layout.slot == layout.index.get(vertex, -1)).tolist()
        return [(j // 2, -(j % 2)) for j in ends]

    @cached_property
    def _layout(self) -> "_EndLayout":
        """The incidence map as index arrays (see _EndLayout)."""
        index = {v: k for k, v in enumerate(self.vertices)}
        offsets = np.cumsum([0] + [dom.n for _u, _v, dom in self.edges])
        ends = np.column_stack((offsets[:-1], offsets[1:] - 1)).ravel()
        uv = [edge[0] for edge in self.edges] + [edge[1] for edge in self.edges]  # every u, then every v
        owner = np.fromiter(map(index.__getitem__, uv), np.intp, len(uv)).reshape(2, -1).T.ravel()
        present, first_end, slot = np.unique(owner, return_index=True, return_inverse=True)
        names = [self.vertices[k] for k in present.tolist()]
        return _EndLayout(offsets, ends, slot, ends[first_end], dict(zip(names, range(len(names)))))


class _EndLayout(NamedTuple):
    """A GraphDomain's edge ends as indices into the edges' samples laid end
    to end, edge i owning samples offsets[i]:offsets[i+1].

    ends[2i], ends[2i+1] index edge i's first and last node; `index` maps
    the name of each vertex with edges, in vertex order, to its row k; end j
    touches the vertex of row slot[j]; canonical[k] indexes the canonical
    sample of the vertex of row k, its first end in edge order (as in
    GraphFunction.vertex_value).
    """

    offsets: np.ndarray
    ends: np.ndarray
    slot: np.ndarray
    canonical: np.ndarray
    index: dict

    def split(self, values) -> tuple:
        """Each edge's stretch of `values`, as views."""
        bounds = self.offsets.tolist()
        return tuple(values[a:b] for a, b in zip(bounds, bounds[1:]))


@dataclass(frozen=True, init=False, eq=False)
class GraphFunction(_Samples):
    """Per-edge grid samples with matching values at shared vertices.

    `values` holds the edges laid end to end (see GraphDomain._layout);
    `edge_values` are read-only views into it, one per edge.
    """

    domain: GraphDomain
    values: np.ndarray

    def __init__(self, domain: GraphDomain, edge_values):
        if len(edge_values) != len(domain.edges):
            raise ValueError("need one value array per edge")
        try:  # one cast (asarray's) and one size compare for all edges; the empty 1-d part takes zero edges
            values = np.concatenate((*edge_values, ()), dtype=np.complex128, casting="unsafe")
            fits = np.array_equal(np.fromiter(map(len, edge_values), np.intp), np.diff(domain._layout.offsets))
        except (TypeError, ValueError):  # a 0-d or 2-d edge, or a value no cast takes
            fits = False
        if not fits:  # edge by edge, to refuse the first misfit in edge order
            for vals, (_u, _v, dom) in zip(edge_values, domain.edges):
                _check_shape(np.asarray(vals, dtype=np.complex128), dom.n)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "values", _as_complex_array(values, values.size))
        self._check_vertex_agreement()

    def _check_vertex_agreement(self):
        layout = self.domain._layout
        first = self.values[layout.canonical[layout.slot]]
        bad = pyarith.cabs(self.values[layout.ends] - first) > VERTEX_TOL * (1.0 + pyarith.cabs(first))
        if bad.any():
            vertex = list(layout.index)[layout.slot[bad].min()]
            raise ValueError(f"vertex {vertex!r} values disagree beyond tolerance")

    @cached_property
    def edge_values(self) -> tuple:
        return self.domain._layout.split(self.values)

    def vertex_value(self, vertex):
        """Canonical sample at a vertex (first incident edge in edge order)."""
        layout = self.domain._layout
        k = layout.index.get(vertex)
        if k is None:
            raise ValueError(f"vertex {vertex!r} has no incident edges")
        return complex(self.values[layout.canonical[k]])

    def edge_function(self, i: int) -> GridFunction:
        return GridFunction(self.domain.edges[i][2], self.edge_values[i])

    def _like(self, values):
        return GraphFunction(self.domain, self.domain._layout.split(values))

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
            "values": [values_to_json(vals) for vals in self.edge_values],
        }


# ---------------------------------------------------------------------------
# Pointwise algebra and norms


def sup_norm(f) -> float:
    """Max of |value| over all nodes."""
    return float(np.max(np.abs(f.values)))


def pointwise_product(f, g):
    """Node-wise complex product; domains must match."""
    return f * g


def conjugate(f):
    """Node-wise complex conjugation (the involution of the algebra)."""
    return f._like(np.conj(f.values))


def min_modulus_sum(f, g, squared: bool = False) -> float:
    """Min over nodes of |f| + |g|, or of |f|^2 + |g|^2 with squared=True; inf past the float range."""
    f._check_domain(g)
    fa, fb = np.abs(f.values), np.abs(g.values)
    with np.errstate(over="ignore"):
        return float(np.min(fa * fa + fb * fb if squared else fa + fb))


def refine(f: GridFunction, factor: int) -> GridFunction:
    """Refined grid with (n-1)*factor + 1 nodes.

    Original nodes keep their stored values bit-exactly; new nodes carry
    linear interpolants of the neighbouring samples.
    """
    if factor < 2:
        raise ValueError("refinement factor must be >= 2")
    n = f.domain.n
    new_n = (n - 1) * factor + 1
    v = f.values
    s = np.arange(1, factor) / factor
    out = np.empty(new_n, dtype=np.complex128)
    np.add(v[:-1, None] * (1.0 - s), v[1:, None] * s, out=out[:-1].reshape(n - 1, factor)[:, 1:])
    out[::factor] = v
    return GridFunction(IntervalDomain(f.domain.a, f.domain.b, new_n), out)


# ---------------------------------------------------------------------------
# JSON / CSV interchange


def _json_number(value, key, kinds=(int, float)):
    """A domain entry read as a JSON number (a JSON integer with kinds=int);
    a bool, a string or any other value is refused."""
    if not isinstance(value, kinds) or isinstance(value, bool):
        kind = "integer" if kinds is int else "number"
        raise TypeError(f"domain {key!r} must be a JSON {kind}, got {value!r}")
    return value


def _interval_from_json(a, b, n):
    return IntervalDomain(float(_json_number(a, "a")), float(_json_number(b, "b")), _json_number(n, "n", int))


def function_from_json(obj) -> GridFunction | FiniteSpaceFunction | GraphFunction:
    """Parse the wire format {"domain": {...}, "values": [...]}."""
    dom = obj["domain"]
    kind = dom["type"]
    if kind == "interval":
        domain = _interval_from_json(dom["a"], dom["b"], dom["n"])
        return GridFunction(domain, values_from_json(obj["values"]))
    if kind == "finite":
        values = values_from_json(obj["values"])
        if "n" in dom and _json_number(dom["n"], "n", int) != values.size:
            raise ValueError("declared size disagrees with values")
        return FiniteSpaceFunction(values)
    if kind == "graph":
        edges = tuple(
            (e["u"], e["v"], _interval_from_json(e.get("a", 0.0), e.get("b", 1.0), e["n"])) for e in dom["edges"]
        )
        graph = GraphDomain(tuple(dom["vertices"]), edges)
        return GraphFunction(graph, tuple(values_from_json(v) for v in obj["values"]))
    raise ValueError(f"unknown domain type {kind!r}")


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
