import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openmult import (
    DomainMismatch,
    FiniteSpaceFunction,
    GraphDomain,
    GraphFunction,
    GridFunction,
    IntervalDomain,
    conjugate,
    function_from_json,
    grid_function_from_csv,
    min_modulus_sum,
    open_mult_interval,
    pointwise_product,
    refine,
    sup_norm,
)
from openmult.functions import values_from_json, values_to_json

DOM = IntervalDomain(0.0, 1.0, 101)
T = DOM.nodes()


def rand_grid(seed, dom=DOM):
    rng = np.random.default_rng(seed)
    return GridFunction(dom, rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n))


complex_lists = st.lists(
    st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    min_size=3, max_size=16,
)


class TestDomains:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            IntervalDomain(1.0, 0.0, 10)
        with pytest.raises(ValueError):
            IntervalDomain(0.0, 1.0, 1)

    @pytest.mark.parametrize("a, b", [(0.0, np.inf), (-np.inf, 0.0), (0.0, np.nan), (-1e308, 1e308)])
    def test_interval_ends_and_width_finite(self, a, b):
        with pytest.raises(ValueError, match="b - a finite"):
            IntervalDomain(a, b, 5)

    @pytest.mark.parametrize("a, b", [(0, 10**400), (0.0, 10**400), (-(10**400), 0)], ids=("int", "float", "negative"))
    def test_interval_span_past_float_range(self, a, b):
        # Python ints whose span no float holds: a ValueError, not numpy's or math's TypeError/OverflowError
        with pytest.raises(ValueError, match=r"^require a < b, with b - a finite$"):
            IntervalDomain(a, b, 5)

    def test_nodes_endpoints_exact(self):
        d = IntervalDomain(-2.0, 3.0, 7)
        nodes = d.nodes()
        assert nodes[0] == -2.0 and nodes[-1] == 3.0

    def test_values_must_be_finite(self):
        with pytest.raises(ValueError):
            GridFunction(DOM, np.full(DOM.n, np.nan + 0j))

    def test_values_length_checked(self):
        with pytest.raises(ValueError):
            GridFunction(DOM, np.zeros(5, dtype=complex))


class TestSupNorm:
    def test_zero_function(self):
        assert sup_norm(GridFunction.constant(DOM, 0)) == 0.0

    def test_identity_function(self):
        f = GridFunction(DOM, T.astype(complex))
        assert sup_norm(f) == 1.0

    def test_unimodular_exponential(self):
        # oracle: |e^{2 pi i t}| evaluated at every node
        vals = np.exp(2j * np.pi * T)
        expected = max(abs(complex(v)) for v in vals)
        f = GridFunction(DOM, vals)
        assert sup_norm(f) == pytest.approx(expected, rel=1e-15)
        assert abs(sup_norm(f) - 1.0) <= 1e-12

    @given(complex_lists, st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False))
    @settings(max_examples=100)
    def test_absolute_homogeneity(self, values, c):
        f = FiniteSpaceFunction(values)
        lhs = sup_norm(f * c)
        rhs = abs(c) * sup_norm(f)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)

    @given(complex_lists)
    @example([0j, 5e-324 + 5e-324j, 0j])  # |a+b| = 1.5e-323 > |a| + |b| = 1e-323, both correctly rounded
    @settings(max_examples=100)
    def test_triangle_inequality(self, values):
        # holds in floating point up to an absolute rounding of the subnormal moduli
        f = FiniteSpaceFunction(values)
        g = FiniteSpaceFunction(list(reversed(values)))
        assert sup_norm(f + g) <= (sup_norm(f) + sup_norm(g)) * (1 + 1e-12) + 2 * math.ulp(0.0)

    @given(complex_lists)
    @settings(max_examples=100)
    def test_submultiplicative(self, values):
        f = FiniteSpaceFunction(values)
        g = FiniteSpaceFunction(list(reversed(values)))
        assert sup_norm(f * g) <= sup_norm(f) * sup_norm(g) * (1 + 1e-12)


class TestInvolution:
    def test_norm_preserved(self):
        f = rand_grid(0)
        assert sup_norm(conjugate(f)) == sup_norm(f)

    def test_multiplicative(self):
        f, g = rand_grid(1), rand_grid(2)
        lhs = conjugate(f * g)
        rhs = conjugate(f) * conjugate(g)
        assert np.max(np.abs(lhs.values - rhs.values)) == 0.0


class TestPointwiseProduct:
    def test_identity_element(self):
        one = GridFunction.constant(DOM, 1)
        g = rand_grid(3)
        assert np.array_equal(pointwise_product(one, g).values, g.values)

    def test_squares_on_three_nodes(self):
        dom = IntervalDomain(0.0, 1.0, 3)
        f = GridFunction(dom, np.array([0.0, 0.5, 1.0], dtype=complex))
        out = pointwise_product(f, f)
        assert np.array_equal(out.values, np.array([0.0, 0.25, 1.0], dtype=complex))

    def test_matches_per_node_oracle(self):
        # vectorized multiply may differ from the scalar oracle by one ulp
        f, g = rand_grid(4), rand_grid(5)
        out = pointwise_product(f, g)
        for k in range(DOM.n):
            expected = complex(f.values[k]) * complex(g.values[k])
            assert out.values[k] == pytest.approx(expected, rel=1e-12)

    def test_domain_mismatch(self):
        other = GridFunction.constant(IntervalDomain(0.0, 2.0, 101), 1)
        with pytest.raises(DomainMismatch):
            pointwise_product(rand_grid(6), other)


def _graph_fn(n):
    return GraphFunction(star_graph(n), (np.ones(n, dtype=complex), np.ones(n, dtype=complex)))


class TestDomainCheck:
    """Every sample type refuses a partner of another type or domain, in
    arithmetic and in min_modulus_sum alike."""

    MISMATCHED = [
        (lambda: rand_grid(0), lambda: rand_grid(1, IntervalDomain(0.0, 2.0, DOM.n))),
        (lambda: FiniteSpaceFunction(np.ones(4)), lambda: FiniteSpaceFunction(np.ones(5))),
        (lambda: _graph_fn(9), lambda: _graph_fn(11)),
        (lambda: FiniteSpaceFunction(np.ones(DOM.n)), lambda: rand_grid(2)),
        (lambda: rand_grid(3), lambda: _graph_fn(9)),
    ]

    @pytest.mark.parametrize("make_a,make_b", MISMATCHED)
    def test_mismatch_refused(self, make_a, make_b):
        a, b = make_a(), make_b()
        for combine in (lambda x, y: x + y, lambda x, y: x - y, lambda x, y: x * y, min_modulus_sum):
            with pytest.raises(DomainMismatch):
                combine(a, b)
            with pytest.raises(DomainMismatch):
                combine(b, a)

    @pytest.mark.parametrize("make_a,make_b", MISMATCHED)
    def test_mismatch_compares_unequal(self, make_a, make_b):
        a, b = make_a(), make_b()
        assert a != b and b != a and not a == b

    def test_equality_on_every_type(self):
        # values compared node by node, on functions of more than one node
        for make in (lambda: rand_grid(5), lambda: FiniteSpaceFunction([1.0, 2j, 3.0]), lambda: _graph_fn(9)):
            a, b = make(), make()
            assert a == b and not a != b
            assert a != a + 1 and a != a.values
            with pytest.raises(TypeError):
                hash(a)

    def test_equal_results_compare_equal(self):
        f = GridFunction(IntervalDomain(0.0, 1.0, 5), [1.0, 1.1, 1.2, 1.3, 1.4])
        d = GridFunction(f.domain, np.full(5, 1e-4))
        assert open_mult_interval(f, f, d, 0.7) == open_mult_interval(f, f, d, 0.7)
        assert open_mult_interval(f, f, d, 0.7) != open_mult_interval(f, f, d * 2, 0.7)

    def test_scalar_operands_on_every_type(self):
        for fn in (rand_grid(4), FiniteSpaceFunction([1.0, 2j]), _graph_fn(9)):
            for arrays, expected in (
                ((2 - fn).values, [2 - a for a in fn.values]),
                ((fn + 1).values, [a + 1 for a in fn.values]),
                ((-fn).values, [-a for a in fn.values]),
                (conjugate(fn).values, [np.conj(a) for a in fn.values]),
            ):
                assert all(np.array_equal(x, y) for x, y in zip(arrays, expected))


class TestMinModulusSum:
    def test_constants(self):
        one = GridFunction.constant(DOM, 1)
        zero = GridFunction.constant(DOM, 0)
        assert min_modulus_sum(one, zero) == 1.0

    def test_common_zero_on_grid(self):
        f = GridFunction(DOM, (T - 0.5).astype(complex))
        assert min_modulus_sum(f, f) == 0.0  # odd grid hits t = 1/2 exactly

    def test_against_brute_scan(self):
        f, g = rand_grid(7), rand_grid(8)
        expected = min(abs(complex(a)) + abs(complex(b)) for a, b in zip(f.values, g.values))
        assert min_modulus_sum(f, g) == expected
        expected_sq = min(abs(complex(a)) ** 2 + abs(complex(b)) ** 2 for a, b in zip(f.values, g.values))
        assert min_modulus_sum(f, g, squared=True) == pytest.approx(expected_sq, rel=1e-12)


class TestRefine:
    def test_constant(self):
        f = GridFunction.constant(DOM, 3 - 2j)
        r = refine(f, 2)
        assert r.domain.n == 201
        assert np.all(r.values == 3 - 2j)

    def test_linear_exact(self):
        dom = IntervalDomain(0.0, 1.0, 2)
        f = GridFunction(dom, np.array([0.0, 1.0], dtype=complex))
        r = refine(f, 2)
        assert np.array_equal(r.values, np.array([0.0, 0.5, 1.0], dtype=complex))

    def test_restriction_bit_exact(self):
        f = rand_grid(9)
        r = refine(f, 4)
        assert np.array_equal(r.values[::4], f.values)

    def test_factor_validated(self):
        with pytest.raises(ValueError):
            refine(rand_grid(10), 1)

    @pytest.mark.parametrize("n, factor", [(2, 2), (9, 3), (33, 7), (5, 64), (3, 1000), (2, 2**16)])
    def test_matches_the_per_factor_formula(self, n, factor):
        # every new node is left*(1 - j/factor) + right*(j/factor), bit for bit
        rng = np.random.default_rng(factor)
        v = (rng.standard_normal(n) + 1j * rng.standard_normal(n)) * 10.0 ** rng.uniform(-200, 200, n)
        v.real[::3] = -0.0
        f = GridFunction(IntervalDomain(0.0, 1.0, n), v)
        want = np.empty((n - 1) * factor + 1, dtype=np.complex128)
        want[::factor] = v
        for j in range(1, factor):
            s = j / factor
            want[j::factor] = v[:-1] * (1.0 - s) + v[1:] * s
        r = refine(f, factor)
        assert r.domain.n == (n - 1) * factor + 1
        assert np.array_equal(r.values.view(np.uint64), want.view(np.uint64))


class TestRestrict:
    def test_values_sliced_exactly(self):
        f = rand_grid(20)
        sub = f.restrict(10, 30)
        assert sub.domain.n == 21
        assert np.array_equal(sub.values, f.values[10:31])
        assert sub.domain.a == pytest.approx(T[10])
        assert sub.domain.b == pytest.approx(T[30])

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            rand_grid(21).restrict(5, 5)


def star_graph(n=33):
    dom = IntervalDomain(0.0, 1.0, n)
    return GraphDomain(("c", "a", "b"), (("c", "a", dom), ("c", "b", dom)))


class TestGraphFunctions:
    def test_vertex_agreement_enforced(self):
        g = star_graph()
        n = g.edges[0][2].n
        ok = GraphFunction(g, (np.full(n, 1 + 0j), np.full(n, 1 + 0j)))
        assert ok.vertex_value("c") == 1 + 0j
        bad_edge = np.full(n, 1 + 0j)
        bad_edge[0] = 2.0
        with pytest.raises(ValueError):
            GraphFunction(g, (np.full(n, 1 + 0j), bad_edge))

    def test_vertex_value_is_the_first_end_in_edge_order(self):
        from openmult.functions import VERTEX_TOL

        dom = IntervalDomain(0.0, 1.0, 5)
        g = GraphDomain(("a", "c", "b", "lone"), (("a", "c", dom), ("c", "b", dom), ("b", "c", dom)))
        first, near = 1.0 + 0.5j, 1.0 + 0.5j + 0.5 * VERTEX_TOL  # within tolerance, not equal
        e0, e1, e2 = (np.linspace(0.0, 1.0, 5).astype(complex) for _ in range(3))
        e0[-1], e1[0], e2[-1] = first, near, near  # c: the last node of edge 0 comes first
        e1[-1] = e2[0] = 2j
        fn = GraphFunction(g, (e0, e1, e2))
        assert fn.vertex_value("c") == first and near != first
        assert (fn.vertex_value("a"), fn.vertex_value("b")) == (0j, 2j)
        for name in ("lone", "nowhere"):
            with pytest.raises(ValueError, match="has no incident edges"):
                fn.vertex_value(name)

    def test_vertex_lookup_on_a_large_star(self):
        # every vertex of a 1001-vertex star by name, against the layout's canonical samples
        dom = IntervalDomain(0.0, 1.0, 3)
        leaves = tuple(f"v{i}" for i in range(1000))
        g = GraphDomain(("c",) + leaves + ("lone",), tuple(("c", v, dom) for v in leaves))
        fn = GraphFunction(g, tuple(np.array([1.0, 0.5 + k, k * 1j]) for k in range(1000)))
        layout = g._layout
        want = [complex(z) for z in fn.values[layout.canonical]]
        assert [fn.vertex_value(v) for v in ("c",) + leaves] == want == [1.0] + [k * 1j for k in range(1000)]
        assert g.incident("c") == [(k, 0) for k in range(1000)] and g.incident("v7") == [(7, -1)]
        for name in ("lone", "nowhere"):  # an isolated vertex and a name that is not a vertex
            with pytest.raises(ValueError, match=r"^vertex '\w+' has no incident edges$"):
                fn.vertex_value(name)
            assert g.incident(name) == []

    def test_sup_norm_over_edges(self):
        g = star_graph()
        n = g.edges[0][2].n
        e0 = np.full(n, 1 + 0j)
        e1 = np.full(n, 1 + 0j)
        e1[5] = 4j
        fn = GraphFunction(g, (e0, e1))
        assert sup_norm(fn) == 4.0

    def test_edge_endpoints_must_be_vertices(self):
        dom = IntervalDomain(0.0, 1.0, 5)
        with pytest.raises(ValueError):
            GraphDomain(("a",), (("a", "zz", dom),))

    def test_vertex_names_must_be_distinct(self):
        # a repeated name would be one vertex in the incidence and the report, two in `vertices`
        with pytest.raises(ValueError, match="distinct"):
            GraphDomain(("u", "v", "u"), (("u", "v", IntervalDomain(0.0, 1.0, 5)),))

    def test_incidence_matches_edge_scan(self):
        from openmult import refine_partition

        def scan(graph, vertex):
            out = []
            for i, (u, v, _dom) in enumerate(graph.edges):
                if u == vertex:
                    out.append((i, 0))
                if v == vertex:
                    out.append((i, -1))
            return out

        dom = IntervalDomain(0.0, 1.0, 9)
        loop_multi = GraphDomain(
            ("a", "b", "c", "lonely"),
            (("a", "a", dom), ("a", "b", dom), ("b", "a", dom), ("a", "b", dom), ("c", "c", dom), ("b", "c", dom)),
        )
        crossed = GraphDomain(
            ("p", "q", "r", "s"),
            (("p", "q", dom), ("r", "s", dom), ("q", "q", dom)),
            crossings=(((0, 4), (1, 3)), ((2, 5),)),
        )
        for graph in (loop_multi, refine_partition(crossed)):
            for vertex in graph.vertices + ("missing",):
                got = graph.incident(vertex)
                assert got == scan(graph, vertex), vertex
                got.append("scratch")  # a fresh list each call
                assert graph.incident(vertex) == scan(graph, vertex)
        assert loop_multi.incident("a")[:2] == [(0, 0), (0, -1)]
        assert loop_multi.incident("lonely") == []


class TestGraphFunctionStorage:
    """A GraphFunction is one validated array with per-edge views into it."""

    def test_validated_once(self, monkeypatch):
        from openmult import functions

        calls = []
        real = functions._as_complex_array
        monkeypatch.setattr(functions, "_as_complex_array", lambda *a: calls.append(1) or real(*a))
        dom = IntervalDomain(0.0, 1.0, 33)
        graph = GraphDomain(("c",) + tuple(f"v{i}" for i in range(400)), tuple(("c", f"v{i}", dom) for i in range(400)))
        t = dom.nodes()
        fn = GraphFunction(graph, tuple((1 - t) + k * t for k in range(400)))
        assert len(calls) == 1
        assert fn.values.size == 400 * 33

    def test_edge_values_are_read_only_views(self):
        g = star_graph()
        fn = GraphFunction(g, (np.arange(33, dtype=complex), np.arange(33, dtype=complex)))
        assert not fn.values.flags.writeable
        for edge, (a, b) in zip(fn.edge_values, ((0, 33), (33, 66))):
            assert np.shares_memory(edge, fn.values)
            assert np.array_equal(edge, fn.values[a:b])
            assert not edge.flags.writeable

    def test_single_fault_refusals(self):
        g = star_graph()
        ok = np.ones(33, dtype=complex)
        bad_end = ok.copy()
        bad_end[0] = 2.0
        nan_inside = ok.copy()
        nan_inside[7] = np.nan
        for edges, message in (
            ((ok,), "need one value array per edge"),
            ((ok, ok[:32]), "expected 33 values, got 32"),
            ((ok, np.ones((33, 1), dtype=complex)), "values must be one-dimensional"),
            ((ok, nan_inside), "values must be finite"),
            ((ok, bad_end), "vertex 'c' values disagree beyond tolerance"),
        ):
            with pytest.raises(ValueError) as exc:
                GraphFunction(g, edges)
            assert type(exc.value) is ValueError and str(exc.value) == message

    def test_refusals_when_the_one_concatenation_cannot_stand(self):
        # class and message as edge by edge: edge count, then each edge's shape in edge order,
        # then finiteness, then vertex agreement
        g = star_graph()
        ok = np.ones(33, dtype=complex)
        nan_first = ok.copy()
        nan_first[7] = np.nan
        column = np.ones((33, 1), dtype=complex)
        for edges, message in (
            ((nan_first, ok[:32]), "expected 33 values, got 32"),
            ((ok, column), "values must be one-dimensional"),
            ((column, column), "values must be one-dimensional"),
            ((np.complex128(1.0), np.complex128(1.0)), "values must be one-dimensional"),
            ((1.0, 1.0), "values must be one-dimensional"),
            ((list(ok), [1.0] * 34), "expected 33 values, got 34"),
            ((), "need one value array per edge"),
        ):
            with pytest.raises(ValueError) as exc:
                GraphFunction(g, edges)
            assert type(exc.value) is ValueError and str(exc.value) == message

    def test_inputs_the_one_concatenation_takes_or_declines(self):
        g = star_graph()
        want = GraphFunction(g, (np.arange(33, dtype=complex), np.arange(33, dtype=complex)))
        for edges in (
            ([float(k) for k in range(33)], list(range(33))),  # plain lists
            np.tile(np.arange(33), (2, 1)),  # one 2-d array, a row per edge
            (np.arange(33, dtype=object), np.arange(33, dtype=np.float32)),  # an object array beside a float32 one
        ):
            got = GraphFunction(g, edges)
            assert got == want and got.values.dtype == np.complex128 and not got.values.flags.writeable
        empty = GraphFunction(GraphDomain(("lone",), ()), ())
        assert empty.values.shape == (0,) and empty.edge_values == ()


class TestSerialization:
    def test_interval_roundtrip(self):
        f = rand_grid(11)
        back = function_from_json(json.loads(json.dumps(f.to_json())))
        assert back.domain == f.domain
        assert np.array_equal(back.values, f.values)

    def test_finite_roundtrip(self):
        f = FiniteSpaceFunction(np.array([1 + 2j, -3.5, 0.25j]))
        back = function_from_json(f.to_json())
        assert np.array_equal(back.values, f.values)

    def test_graph_roundtrip(self):
        g = star_graph(9)
        n = 9
        fn = GraphFunction(g, (np.linspace(1, 2, n).astype(complex), np.linspace(1, 3, n).astype(complex)))
        back = function_from_json(fn.to_json())
        assert back.domain == fn.domain
        for a, b in zip(back.edge_values, fn.edge_values):
            assert np.array_equal(a, b)

    def test_load_function_from_file(self, tmp_path):
        from openmult import load_function

        f = rand_grid(12)
        path = tmp_path / "f.json"
        path.write_text(json.dumps(f.to_json()))
        back = load_function(path)
        assert back.domain == f.domain
        assert np.array_equal(back.values, f.values)

    def test_csv_import(self, tmp_path):
        path = tmp_path / "f.csv"
        ts = np.linspace(0, 1, 11)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("t,re,im\n")
            for t in ts:
                fh.write(f"{t},{t * t},{-t}\n")
        f = grid_function_from_csv(path)
        assert f.domain.n == 11
        assert f.values[5] == pytest.approx(0.25 - 0.5j)


wire_numbers = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),  # subnormals and +-1.7e308 included
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308]),
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
)


class TestValueCodec:
    @given(st.lists(st.lists(wire_numbers, min_size=2, max_size=2), max_size=24))
    @settings(max_examples=300)
    def test_round_trip_is_bit_exact(self, pairs):
        arr = values_from_json(pairs)
        # reference: the per-pair decoder the wire format was defined by
        ref = np.asarray([complex(re, im) for re, im in pairs], dtype=np.complex128)
        assert arr.dtype == np.complex128 and arr.tobytes() == ref.tobytes()
        wire = json.loads(json.dumps(values_to_json(arr)))
        assert wire == [[float(v.real), float(v.imag)] for v in ref]
        assert values_from_json(wire).tobytes() == ref.tobytes()

    @pytest.mark.parametrize(
        "bad",
        [[["1", 2.0]], [[1.0, "2"]], [[1.0, None]], [[1.0, 2.0, 3.0]], [[1.0]], [1.0, 2.0],
         [[[1.0, 2.0]]], [[1.0, 2.0], [3.0]]],
    )
    def test_refuses_anything_but_number_pairs(self, bad):
        with pytest.raises(ValueError):
            values_from_json(bad)


def _csv(tmp_path, rows):
    path = tmp_path / "f.csv"
    path.write_text("t,re,im\n" + "".join(f"{t},1.0,0.0\n" for t in rows))
    return path


_EDGE = IntervalDomain(0.0, 1.0, 5)
# The refusals of the domains and codecs, each a ValueError with its message;
# a call takes tmp_path.
FUNCTION_REFUSALS = {
    "no values": (lambda tmp: FiniteSpaceFunction([]), "values must be nonempty"),
    "edge grid that is no IntervalDomain": (
        lambda tmp: GraphDomain(("a", "b"), (("a", "b", (0.0, 1.0, 5)),)), "edge grid must be an IntervalDomain"),
    "crossing at an edge end": (
        lambda tmp: GraphDomain(("a", "b"), (("a", "b", _EDGE),), crossings=(((0, 4),),)),
        "crossing node must be interior to its edge"),
    "finite size disagreeing with values": (
        lambda tmp: function_from_json({"domain": {"type": "finite", "n": 3}, "values": [[1.0, 0.0]]}),
        "declared size disagrees with values"),
    "unknown domain type": (
        lambda tmp: function_from_json({"domain": {"type": "torus"}, "values": []}), "unknown domain type 'torus'"),
    "one CSV row": (lambda tmp: grid_function_from_csv(_csv(tmp, [0.0])), "need at least two rows"),
    "uneven CSV grid": (
        lambda tmp: grid_function_from_csv(_csv(tmp, [0.0, 0.25, 1.0])), "t column must be a uniform increasing grid"),
    "decreasing CSV grid": (
        lambda tmp: grid_function_from_csv(_csv(tmp, [1.0, 0.5, 0.0])), "t column must be a uniform increasing grid"),
}


@pytest.mark.parametrize("name", sorted(FUNCTION_REFUSALS))
def test_function_refusals(tmp_path, name):
    call, message = FUNCTION_REFUSALS[name]
    with pytest.raises(ValueError) as exc:
        call(tmp_path)
    assert (type(exc.value), str(exc.value)) == (ValueError, message)
