import json

import numpy as np
import pytest
from hypothesis import given, settings
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
    pointwise_product,
    refine,
    sup_norm,
)

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
    @settings(max_examples=100)
    def test_triangle_inequality(self, values):
        f = FiniteSpaceFunction(values)
        g = FiniteSpaceFunction(list(reversed(values)))
        assert sup_norm(f + g) <= (sup_norm(f) + sup_norm(g)) * (1 + 1e-12)

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
