import numpy as np
import pytest

from openmult import (
    GraphDomain,
    GraphFunction,
    GridFunction,
    IntervalDomain,
    PerturbationTooLarge,
    delta0,
    open_mult_graph,
    open_mult_interval,
    refine_partition,
    slice_graph_function,
    sup_norm,
)

N = 129
EDGE_DOM = IntervalDomain(0.0, 1.0, N)
T = EDGE_DOM.nodes()


def star3():
    return GraphDomain(
        ("c", "a", "b", "e"),
        (("c", "a", EDGE_DOM), ("c", "b", EDGE_DOM), ("c", "e", EDGE_DOM)),
    )


def theta():
    return GraphDomain(("u", "v"), tuple(("u", "v", EDGE_DOM) for _ in range(3)))


def k4():
    verts = ("p", "q", "r", "s")
    edges = tuple(
        (u, v, EDGE_DOM)
        for i, u in enumerate(verts)
        for v in verts[i + 1:]
    )
    return GraphDomain(verts, edges)


def interp_fn(graph, vertex_values, rng=None, bump=0.0):
    """Edge samples joining prescribed vertex values, optional random bump
    vanishing at the endpoints (so vertex agreement is bit-exact)."""
    vals = []
    for u, v, dom in graph.edges:
        t = dom.nodes()
        base = vertex_values[u] * (1 - t) + vertex_values[v] * t
        if rng is not None and bump:
            raw = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
            base = base + bump * t * (1 - t) * raw
        vals.append(base.astype(complex))
    return GraphFunction(graph, tuple(vals))


def scaled_to(d, r):
    return d * (r / sup_norm(d))


class TestRefinePartition:
    def test_no_crossings_unchanged(self):
        g = star3()
        assert refine_partition(g) is g

    def test_single_split(self):
        dom = IntervalDomain(0.0, 1.0, 11)
        g = GraphDomain(("a", "b"), (("a", "b", dom),), crossings=(((0, 5),),))
        ref = refine_partition(g)
        assert len(ref.edges) == 2
        assert ref.edges[0][0] == "a" and ref.edges[0][1] == "x0"
        assert ref.edges[1][0] == "x0" and ref.edges[1][1] == "b"
        assert ref.edges[0][2].n == 6 and ref.edges[1][2].n == 6
        assert ref.crossings == ()

    def test_crossing_of_two_edges(self):
        dom = IntervalDomain(0.0, 1.0, 11)
        g = GraphDomain(
            ("a", "b", "c", "d"),
            (("a", "b", dom), ("c", "d", dom)),
            crossings=(((0, 4), (1, 6)),),
        )
        ref = refine_partition(g)
        assert len(ref.edges) == 4
        assert "x0" in ref.vertices
        # both split edges meet the new vertex
        incident = ref.incident("x0")
        assert len(incident) == 4

    def test_function_values_preserved(self):
        dom = IntervalDomain(0.0, 1.0, 11)
        g = GraphDomain(("a", "b"), (("a", "b", dom),), crossings=(((0, 5),),))
        fn = GraphFunction(g, (np.linspace(0, 1, 11).astype(complex),))
        ref = refine_partition(g)
        fn2 = slice_graph_function(fn, ref)
        assert np.array_equal(fn2.edge_values[0], fn.edge_values[0][:6])
        assert np.array_equal(fn2.edge_values[1], fn.edge_values[0][5:])

    def test_random_graphs_keep_invariants(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            n_edges = rng.integers(2, 5)
            dom = IntervalDomain(0.0, 1.0, 17)
            verts = tuple(f"v{i}" for i in range(n_edges + 1))
            edges = tuple((verts[i], verts[i + 1], dom) for i in range(n_edges))
            groups = []
            used = set()
            for _ in range(rng.integers(1, 3)):
                ei = int(rng.integers(0, n_edges))
                k = int(rng.integers(1, 16))
                if (ei, k) in used:
                    continue
                used.add((ei, k))
                groups.append(((ei, k),))
            g = GraphDomain(verts, edges, crossings=tuple(groups))
            ref = refine_partition(g)
            # constructor re-checks all invariants; also every parent is covered
            total = sum(hi - lo for _, lo, hi in ref.parent_slices)
            assert total == n_edges * 16


class TestEdgePlans:
    def test_shared_vertex_assignments_identical(self):
        from openmult import plan_edges

        g = theta()
        rng = np.random.default_rng(11)
        f = interp_fn(g, {"u": 1.0, "v": -1.0}, rng, bump=0.2)
        gg = interp_fn(g, {"u": 0.5j, "v": 1.0}, rng, bump=0.2)
        d = scaled_to(interp_fn(g, {"u": 0.2, "v": 0.1j}, rng, bump=0.2), delta0(0.7))
        plans = plan_edges(f, gg, d, 0.7)
        assert len(plans) == 3
        # all edges share u on the left and v on the right: identical pins
        for plan in plans[1:]:
            assert plan.left == plans[0].left
            assert plan.right == plans[0].right


class TestOpenMultGraph:
    def test_single_edge_matches_interval(self):
        g = GraphDomain(("a", "b"), (("a", "b", EDGE_DOM),))
        rng = np.random.default_rng(1)
        fv = np.exp(2j * np.pi * T)
        gv = 1.2 + 0.3 * np.exp(-2j * np.pi * T)
        raw = rng.standard_normal(N) + 1j * rng.standard_normal(N)
        dv = raw * (delta0(0.7) / np.max(np.abs(raw)))
        gf = GraphFunction(g, (fv,))
        gg = GraphFunction(g, (gv,))
        gd = GraphFunction(g, (dv,))
        res = open_mult_graph(gf, gg, gd, 0.7)
        ref = open_mult_interval(
            GridFunction(EDGE_DOM, fv), GridFunction(EDGE_DOM, gv), GridFunction(EDGE_DOM, dv), 0.7
        )
        # same identity and bounds; the graph run pins vertex values first
        assert res.residual <= 1e-9 * (1 + sup_norm(gf * gg + gd))
        assert res.bound1 <= 0.7 and res.bound2 <= 0.7
        assert ref.residual <= 1e-9 * (1 + sup_norm(gf * gg + gd))

    def test_zero_perturbation(self):
        g = theta()
        fn = interp_fn(g, {"u": 1.0, "v": -1.0})
        gn = interp_fn(g, {"u": 0.8j, "v": -0.8j})
        dn = interp_fn(g, {"u": 0.0, "v": 0.0})
        res = open_mult_graph(fn, gn, dn, 0.7)
        assert res.residual == 0.0
        assert sup_norm(res.d1) == 0.0 and sup_norm(res.d2) == 0.0

    def test_zero_perturbation_meta_matches_interval(self):
        g = theta()
        fn = interp_fn(g, {"u": 1.0, "v": -1.0})
        gn = interp_fn(g, {"u": 0.8j, "v": -0.8j})
        dn = interp_fn(g, {"u": 0.0, "v": 0.0})
        for eps0 in (0.7, 0.07):
            res = open_mult_graph(fn, gn, dn, eps0)
            for ei, er in enumerate(res.edge_results):
                ref = open_mult_interval(
                    fn.edge_function(ei), gn.edge_function(ei), dn.edge_function(ei), eps0
                )
                assert er.meta == ref.meta
                assert list(er.meta) == list(ref.meta)
                assert {"epsilon1", "eta1", "eta2", "eps_cover"} <= set(er.meta)

    def test_star_nondegenerate_shared_center(self):
        g = star3()
        rng = np.random.default_rng(2)
        vf = {"c": 1.0 + 0.2j, "a": 0.9, "b": 1.1j, "e": -1.0}
        vg = {"c": 0.8 - 0.1j, "a": 1.2j, "b": 0.7, "e": 1.0 + 1j}
        f = interp_fn(g, vf, rng, bump=0.2)
        gg = interp_fn(g, vg, rng, bump=0.2)
        d = scaled_to(interp_fn(g, {k: 0.1 for k in vf}, rng, bump=0.3), delta0(0.7))
        res = open_mult_graph(f, gg, d, 0.7)
        assert res.residual <= 1e-9 * (1 + sup_norm(f * gg + d))
        assert res.bound1 <= 0.7 and res.bound2 <= 0.7
        for v, rep in res.vertex_report.items():
            assert rep["agreement"] == 0.0
            assert rep["kind"] == "nondeg"

    def test_theta_with_joint_zero_inside_edge(self):
        g = theta()
        fe0 = (1 - 2 * T).astype(complex)
        ge0 = 0.8j * (1 - 2 * T)
        fe1 = np.exp(1j * np.pi * T)
        ge1 = 0.8j * np.exp(1j * np.pi * T)
        fe2 = np.cos(np.pi * T) + 0.3j * np.sin(np.pi * T)
        ge2 = 0.8j * (np.cos(np.pi * T) - 0.2j * np.sin(np.pi * T))
        f = GraphFunction(g, (fe0, fe1, fe2))
        gg = GraphFunction(g, (ge0, ge1, ge2))
        rng = np.random.default_rng(3)
        d = scaled_to(interp_fn(g, {"u": 0.3 + 0.1j, "v": -0.2j}, rng, bump=0.5), delta0(0.7))
        res = open_mult_graph(f, gg, d, 0.7)
        assert res.residual <= 1e-9 * (1 + sup_norm(f * gg + d))
        assert res.bound1 <= 0.7 and res.bound2 <= 0.7
        # edge 0 exercises the cover branch, the others stay non-degenerate
        assert res.edge_results[0].meta["cover"]
        assert not res.edge_results[1].meta["cover"]
        for rep in res.vertex_report.values():
            assert rep["agreement"] == 0.0

    def test_degenerate_vertex(self):
        # joint zero exactly at a vertex: boundary data comes from the
        # direct-factorization pin shared by the incident edges
        g = theta()
        fe = (T - 0.0).astype(complex) * (1 - 0.5 * T)  # zero at u for every edge
        f = GraphFunction(g, (fe, fe.copy(), fe.copy()))
        gg = GraphFunction(g, (0.5j * fe, 0.5j * fe.copy(), 0.5j * fe.copy()))
        rng = np.random.default_rng(4)
        d = scaled_to(interp_fn(g, {"u": 0.1, "v": -0.1j}, rng, bump=0.5), delta0(0.7))
        res = open_mult_graph(f, gg, d, 0.7)
        assert res.vertex_report["u"]["kind"] == "cover"
        assert res.vertex_report["v"]["kind"] == "nondeg"
        assert res.residual <= 1e-9 * (1 + sup_norm(f * gg + d))
        assert res.bound1 <= 0.7 and res.bound2 <= 0.7
        for rep in res.vertex_report.values():
            assert rep["agreement"] == 0.0

    def test_k4_runs(self):
        g = k4()
        rng = np.random.default_rng(5)
        vf = {v: complex(rng.standard_normal(), rng.standard_normal()) for v in g.vertices}
        vg = {v: complex(rng.standard_normal(), rng.standard_normal()) for v in g.vertices}
        f = interp_fn(g, vf, rng, bump=0.2)
        gg = interp_fn(g, vg, rng, bump=0.2)
        d = scaled_to(interp_fn(g, {v: 0.1j for v in g.vertices}, rng, bump=0.2), delta0(0.7))
        res = open_mult_graph(f, gg, d, 0.7)
        assert res.residual <= 1e-9 * (1 + sup_norm(f * gg + d))
        assert res.bound1 <= 0.7 and res.bound2 <= 0.7
        for rep in res.vertex_report.values():
            assert rep["agreement"] == 0.0

    def test_perturbation_gate(self):
        g = theta()
        f = interp_fn(g, {"u": 1.0, "v": 1.0})
        gg = interp_fn(g, {"u": 1.0, "v": 1.0})
        d = interp_fn(g, {"u": 1.0, "v": 1.0})  # way too big
        with pytest.raises(PerturbationTooLarge):
            open_mult_graph(f, gg, d, 0.7)

    def test_loop_edge(self):
        # an edge glued to itself: both ends share one vertex and one pin
        dom = IntervalDomain(0.0, 1.0, 129)
        t = dom.nodes()
        graph = GraphDomain(("u",), (("u", "u", dom),))
        fv = 1.0 + 0.3 * np.cos(2 * np.pi * t) + 0.3j * np.sin(2 * np.pi * t)
        fv[-1] = fv[0]
        gv = np.full(dom.n, 0.8 + 0j)
        rng = np.random.default_rng(8)
        raw = t * (1 - t) * (rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)) + 0.1
        de = raw * (delta0(0.7) / np.max(np.abs(raw)))
        de[-1] = de[0]
        f = GraphFunction(graph, (fv,))
        g = GraphFunction(graph, (gv,))
        d = GraphFunction(graph, (de,))
        res = open_mult_graph(f, g, d, 0.7)
        assert res.residual <= 1e-9 * (1 + sup_norm(f * g + d))
        assert res.vertex_report["u"]["agreement"] == 0.0

    def test_same_radius_for_all_graphs(self):
        # equi-uniformity: one delta0 drives every graph shape
        r = delta0(0.7)
        rng = np.random.default_rng(6)
        for builder in (star3, theta, k4):
            g = builder()
            vf = {v: 1.0 + 0.1j * i for i, v in enumerate(g.vertices)}
            vg = {v: 0.9 - 0.05j * i for i, v in enumerate(g.vertices)}
            f = interp_fn(g, vf, rng, bump=0.1)
            gg = interp_fn(g, vg, rng, bump=0.1)
            d = scaled_to(interp_fn(g, {v: 0.1 for v in g.vertices}, rng, bump=0.2), r)
            res = open_mult_graph(f, gg, d, 0.7)
            assert res.residual <= 1e-9 * (1 + sup_norm(f * gg + d))


def test_nondeg_vertex_pins_keep_the_rotated_bound():
    # Each non-degenerate pin has |f|^2 + |g|^2 >= eta2 = 4*eps1^2 at its
    # vertex, and beta2 makes |f + beta2*g|^2 = |f|^2 + |g|^2 there, so the
    # plan's check |f + beta2*g| >= eps1 holds at every incident edge end.
    from openmult.graphs import _vertex_pins
    from openmult.interval import PipelineConfig

    rng = np.random.default_rng(17)
    dom = IntervalDomain(0.0, 1.0, 9)
    checked = 0
    for _ in range(40):
        verts = tuple(f"v{i}" for i in range(int(rng.integers(2, 7))))
        edges = tuple(
            (verts[int(rng.integers(len(verts)))], verts[int(rng.integers(len(verts)))], dom)
            for _ in range(int(rng.integers(1, 9)))
        )
        graph = GraphDomain(verts, edges)
        eps0 = float(rng.choice([0.7, 0.35, 0.07]))
        cfg = PipelineConfig.for_target(eps0)

        def values():
            return {v: 10.0 ** rng.uniform(-2.0, 0.0) * complex(*rng.standard_normal(2)) for v in verts}

        f = interp_fn(graph, values(), rng, bump=0.1)
        g = interp_fn(graph, values(), rng, bump=0.1)
        d = scaled_to(interp_fn(graph, values(), rng, bump=0.1), cfg.delta0)
        for v, pin in _vertex_pins(f, g, d, cfg).items():
            if pin.kind != "nondeg":
                continue
            for ei, side in graph.incident(v):
                fq = f.edge_values[ei][side] + pin.beta2 * g.edge_values[ei][side]
                assert abs(fq) >= cfg.epsilon1 * (1.0 - 1e-12)
                checked += 1
    assert checked
