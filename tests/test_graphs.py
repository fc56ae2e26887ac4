import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from openmult import (
    GraphDomain,
    GraphFunction,
    GridFunction,
    IntervalDomain,
    PerturbationTooLarge,
    PreconditionViolated,
    delta0,
    function_from_json,
    open_mult_graph,
    open_mult_interval,
    refine_partition,
    slice_graph_function,
    sup_norm,
)
from openmult.interval import PipelineConfig

N = 129
EDGE_DOM = IntervalDomain(0.0, 1.0, N)
T = EDGE_DOM.nodes()
EDGE_DOM_2 = IntervalDomain(0.0, 1.0, 2)


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

    def test_plan_holds_phases_on_segment_nodes_only(self, monkeypatch):
        import openmult.graphs as graphs

        plans = []
        inner = graphs.plan_intervals
        monkeypatch.setattr(graphs, "plan_intervals", lambda *args: plans.append(inner(*args)) or plans[-1])
        g = GraphDomain(("u", "v"), (("u", "v", EDGE_DOM),))
        f = GraphFunction(g, ((1 - 2 * T).astype(complex),))
        gg = GraphFunction(g, (0.8j * (1 - 2 * T),))
        d = scaled_to(interp_fn(g, {"u": 0.3 + 0.1j, "v": -0.2j}, np.random.default_rng(3), bump=0.5), delta0(0.7))
        res = open_mult_graph(f, gg, d, 0.7)
        (plan,) = plans
        owned = N - sum(e - s + 1 for s, e, _b, _q in plan.segments)
        assert owned > 0 and res.edge_results[0].meta["cover"]
        assert [rep["kind"] for rep in res.vertex_report.values()] == ["nondeg", "nondeg"]
        assert plan.beta2.size == plan.f_quad.size == N - owned

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


# ---------------------------------------------------------------------------
# Vertex pins: the array computation against the per-vertex scalar one


def _vertex_pin(fval, gval, dval, cfg):
    """The pin of one vertex in Python complex arithmetic: the reference that
    _vertex_pins must equal bit for bit."""
    from openmult.interval import EndpointPin, root_pair
    from openmult.quadratic import smaller_root_vec

    abs_f2, abs_g2 = np.abs(np.array([fval, gval])) ** 2  # the plan's form, not Python's abs(z)**2
    if abs_f2 + abs_g2 < cfg.eta2:
        za, wa = root_pair(fval * gval + dval)
        return EndpointPin(kind="cover", d1=za - fval, d2=wa - gval, za=za, wa=wa)
    if fval != 0 and gval != 0:
        # phase_offset as it was written per vertex: phase_offset itself is
        # now a view of the array code under test
        u = np.conj(gval) * fval
        beta2 = complex(1j * u / abs(u))
    else:
        beta2 = 1j  # one factor vanishes: any rotation keeps |f + beta2*g| = sqrt(h)
    f_quad = fval + beta2 * gval
    phi = complex(smaller_root_vec(-dval, f_quad, beta2)[0])
    return EndpointPin(kind="nondeg", d1=beta2 * phi, d2=phi, beta2=beta2)


def _pin_bits(pin):
    def bits(z):
        return None if z is None else (type(z), np.array([z], dtype=np.complex128).view(np.uint64).tolist())

    return (pin.kind, bits(pin.d1), bits(pin.d2), bits(pin.beta2), bits(pin.za), bits(pin.wa))


def _reference_pins(f, g, d, cfg):
    graph = f.domain
    return {
        v: _vertex_pin(f.vertex_value(v), g.vertex_value(v), d.vertex_value(v), cfg)
        for v in graph.vertices
        if graph.incident(v)
    }


def _edge_values(graph, values):
    """Two-node edges carrying the given vertex values at their ends."""
    return GraphFunction(graph, tuple(np.array([values[u], values[v]]) for u, v, _dom in graph.edges))


@pytest.mark.parametrize("seed", range(6))
def test_vertex_pins_equal_the_scalar_reference(seed):
    # Random multigraphs with loops and isolated vertices, vertex values at
    # scales 1e-150..1e150, exact zero factors (beta2 = 1j), jointly small
    # pairs (cover pins) and d = -f*g at some of them (psi == 0).
    from openmult.graphs import _vertex_pins
    from openmult.interval import PipelineConfig

    rng = np.random.default_rng(300 + seed)
    dom = IntervalDomain(0.0, 1.0, 2)
    seen = dict.fromkeys(("cover", "nondeg", "zero factor", "psi == 0", "loop", "multi-edge", "isolated"), 0)
    for _ in range(30):
        n_vertices = int(rng.integers(1, 40))
        verts = tuple(f"v{i}" for i in range(n_vertices))
        a = rng.integers(0, max(1, n_vertices - 1), int(rng.integers(1, 60)))
        b = np.where(rng.random(a.size) < 0.125, a, rng.integers(0, max(1, n_vertices - 1), a.size))
        graph = GraphDomain(verts, tuple((verts[i], verts[j], dom) for i, j in zip(a.tolist(), b.tolist())))
        cfg = PipelineConfig.for_target(float(rng.choice([0.7, 0.35, 0.07])))
        scale = 10.0 ** rng.uniform(-150, 150)

        def values(s):
            kind = rng.integers(0, 8, n_vertices)
            z = s * (rng.standard_normal(n_vertices) + 1j * rng.standard_normal(n_vertices))
            z[kind == 0] = 0.0
            z[kind == 1] = cfg.epsilon1 * 0.1 * (rng.standard_normal(n_vertices) + 1j)[kind == 1]
            return z.tolist()

        fv, gv = values(scale), values(1.0 / scale if rng.random() < 0.5 else scale)
        dv = (cfg.delta0 * 0.4 * (rng.standard_normal(n_vertices) + 1j * rng.standard_normal(n_vertices))).tolist()
        for k in range(n_vertices):
            if rng.random() < 0.3:
                dv[k] = -(fv[k] * gv[k])
        f, g, d = (_edge_values(graph, dict(zip(verts, x))) for x in (fv, gv, dv))

        want = _reference_pins(f, g, d, cfg)
        got = _vertex_pins(f, g, d, cfg)
        assert list(got) == list(want)
        assert [_pin_bits(p) for p in got.values()] == [_pin_bits(p) for p in want.values()]
        for v, pin in want.items():
            seen[pin.kind] += 1
            seen["zero factor"] += pin.kind == "nondeg" and (f.vertex_value(v) == 0 or g.vertex_value(v) == 0)
            seen["psi == 0"] += pin.kind == "cover" and pin.za == 0
        seen["loop"] += int(np.count_nonzero(a == b))
        seen["multi-edge"] += a.size - len(set(zip(a.tolist(), b.tolist())))
        seen["isolated"] += n_vertices - len(want)
    assert all(seen.values()), seen


def test_vertex_pins_refuse_at_the_first_refusing_vertex():
    # f = 1, g = 0, d = 0.5j gives beta2 = 1j and 1j*phi^2 + phi = 0.5j, whose
    # two roots have one modulus; |f| = 1e200 overflows |f|^2.
    from openmult.errors import EqualModulusRoots
    from openmult.graphs import _vertex_pins
    from openmult.interval import PipelineConfig

    cfg = PipelineConfig.for_target(0.7)
    verts = ("a", "b", "c", "e")
    graph = GraphDomain(verts, (("a", "b", EDGE_DOM_2), ("b", "c", EDGE_DOM_2), ("c", "e", EDGE_DOM_2)))

    def pins(f, g, d):
        return _vertex_pins(*(_edge_values(graph, dict(zip(verts, x))) for x in (f, g, d)), cfg)

    regular, cover, tie, huge = (1 + 1j, 0.5, 0.001j), (0.0, 0.0, 0.0), (1.0, 0.0, 0.5j), (1e200, 1.0, 0.0)
    with pytest.raises(EqualModulusRoots, match=r"^root moduli tie at vertex 'c'$"):
        pins(*zip(regular, cover, tie, tie))
    with pytest.raises(EqualModulusRoots, match=r"^root moduli tie at vertex 'c'$"):
        pins(*zip(regular, cover, tie, huge))
    with pytest.raises(PreconditionViolated, match="vertex 'b'") as exc:
        pins(*zip(regular, huge, tie, huge))
    assert exc.value.bound == "|f|^2 + |g|^2 finite at vertex"
    assert set(pins(*zip(regular, cover, regular, cover))) == set(verts)


@pytest.mark.parametrize("scale", [1e155, 1e200])
def test_overflowing_vertex_is_refused(scale):
    # |f|^2 overflows at the vertices: a named refusal, not an OverflowError
    graph = theta()
    f = interp_fn(graph, {"u": scale, "v": 2 * scale})
    g = interp_fn(graph, {"u": 1.0, "v": 1.0j})
    d = scaled_to(interp_fn(graph, {"u": 1.0, "v": 1.0j}), delta0(0.7))
    with pytest.raises(PreconditionViolated, match="vertex 'u'") as exc:
        open_mult_graph(f, g, d, 0.7)
    assert exc.value.bound == "|f|^2 + |g|^2 finite at vertex"
    assert exc.value.exit_code == 2


@pytest.mark.parametrize("tiny", [1e-320, 5e-324])
def test_subnormal_factor_at_a_vertex(tiny):
    # conj(g)*f is subnormal at u, so 1/|conj(g)*f| overflows: the rotation
    # there is 1j, as for an exact zero factor, not a refused nan
    graph = GraphDomain(("u", "v"), (("u", "v", EDGE_DOM),))
    f = interp_fn(graph, {"u": 1.0, "v": 1.0})
    g = GraphFunction(graph, ((1.0 - T) * tiny + T * 0.5j,))
    d = scaled_to(interp_fn(graph, {"u": 1.0, "v": 1.0j}), delta0(0.7))
    res = open_mult_graph(f, g, d, 0.7)
    assert res.residual <= 1e-9 and max(res.bound1, res.bound2) <= 0.7
    assert res.vertex_report["u"]["kind"] == "nondeg"
    from openmult.graphs import plan_edges

    (plan,) = plan_edges(f, g, d, 0.7)
    assert plan.left.kind == "nondeg" and plan.left.beta2 == 1j


def test_graph_without_edges():
    graph = GraphDomain(("lonely",), ())
    f, g, d = (GraphFunction(graph, ()) for _ in range(3))
    res = open_mult_graph(f, g, d, 0.7)
    assert res.edge_results == () and res.d1.values.size == 0 and res.d2.edge_values == ()
    assert res.vertex_report == {"lonely": {"kind": "trivial", "d1": 0j, "d2": 0j, "agreement": 0.0}}
    assert (res.residual, res.bound1, res.bound2) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("scale", [0.0, 1.0])
def test_isolated_vertex_is_reported_whatever_d(scale):
    graph = GraphDomain(("a", "lonely", "b"), (("a", "b", IntervalDomain(0.0, 1.0, 17)),))
    f = interp_fn(graph, {"a": 1.0 + 0.2j, "b": 0.9})
    g = interp_fn(graph, {"a": 0.8j, "b": 1.1 - 0.3j})
    d = interp_fn(graph, {"a": scale * delta0(0.7), "b": 0.0})
    res = open_mult_graph(f, g, d, 0.7)
    trivial = {"kind": "trivial", "d1": 0j, "d2": 0j, "agreement": 0.0}
    assert list(res.vertex_report) == list(res.to_json()["vertices"]) == ["a", "lonely", "b"]
    assert res.vertex_report["lonely"] == trivial
    assert res.vertex_report["a"]["kind"] == ("nondeg" if scale else "trivial")
    wire = {"kind": "trivial", "d1": [0.0, 0.0], "d2": [0.0, 0.0], "agreement": "0.0"}
    assert res.to_json()["vertices"]["lonely"] == wire


def test_negative_zero_at_an_edge_end_keeps_the_canonical_bits(monkeypatch):
    # the end of edge 1 at c holds -0.0 where c's canonical sample (edge 0's end) holds +0.0:
    # within the vertex tolerance, so accepted, and solved as if it held +0.0
    from openmult import graphs

    planned, plan = [], graphs.plan_intervals
    monkeypatch.setattr(graphs, "plan_intervals", lambda fv, *rest: planned.append(fv.tobytes()) or plan(fv, *rest))
    graph = star3()
    f = interp_fn(graph, {"c": 0.5j, "a": 0.9, "b": 1.1j, "e": -1.0})
    g = interp_fn(graph, {"c": 0.8 + 0.0j, "a": 1.2j, "b": 0.7, "e": 1.0 + 1j})
    d = interp_fn(graph, {"c": 0.0, "a": 1e-4j, "b": -1e-4, "e": 1e-4})
    signed = [x.copy() for x in f.edge_values]
    signed[1][0] = complex(-0.0, 0.5)
    f_signed = GraphFunction(graph, tuple(signed))
    assert np.signbit(f_signed.edge_values[1][0].real) and not np.signbit(f_signed.edge_values[0][0].real)
    want, got = open_mult_graph(f, g, d, 0.7), open_mult_graph(f_signed, g, d, 0.7)
    for a, b in ((want.d1, got.d1), (want.d2, got.d2)):
        assert a.values.tobytes() == b.values.tobytes()
    assert want.rows == got.rows and want.vertex_report == got.vertex_report
    assert planned[0] == planned[1]  # the plan sees +0.0 at every end of c


GRAPH_REFUSALS = {  # the graphs of f, g and d
    "f, g, d must live on the same graph": (theta, theta, star3),
    "run refine_partition first: graph declares unresolved crossings": (
        lambda: GraphDomain(("a", "b"), (("a", "b", EDGE_DOM),), crossings=(((0, 5),),)),) * 3,
}


@pytest.mark.parametrize("message", sorted(GRAPH_REFUSALS))
def test_graph_domain_refused(message):
    f, g, d = (interp_fn(graph(), dict.fromkeys(graph().vertices, 1.0)) for graph in GRAPH_REFUSALS[message])
    with pytest.raises(PreconditionViolated) as exc:
        open_mult_graph(f, g, d, 0.7)
    assert str(exc.value) == message


def near_agreeing_graph():
    """A star whose d at the shared vertex differs between its two edges by
    9.9e-10*(1 + |d|): within GraphFunction's vertex tolerance."""
    dom = IntervalDomain(0.0, 1.0, 17)
    t = dom.nodes()
    graph = GraphDomain(("c", "a", "b"), (("c", "a", dom), ("c", "b", dom)))
    fc, gc, dc = 0.2 + 0.1j, 0.15 - 0.2j, 5e-4 + 1e-3j
    fe = [fc * (1 - t) + (0.9 + 0.2j) * t, fc * (1 - t) + (0.7 - 0.5j) * t]
    ge = [gc * (1 - t) + (0.3 - 0.8j) * t, gc * (1 - t) + (-0.6 + 0.4j) * t]
    de = [dc * (1 - t) + 1e-3 * t, dc * (1 - t) + 1e-3 * t]
    de[1][0] += 9.9e-10 * (1 + abs(dc))
    return graph, fe, ge, de


def test_near_agreeing_vertex_is_certified():
    graph, fe, ge, de = near_agreeing_graph()
    f, g, d = (GraphFunction(graph, tuple(x)) for x in (fe, ge, de))
    res = open_mult_graph(f, g, d, 0.7)
    assert res.residual <= 1e-9 and max(res.bound1, res.bound2) <= 0.7
    # both edges are solved on the canonical samples at c: the identity holds for those
    f0, g0, d0 = fe[0][0], ge[0][0], de[0][0]
    for ei in (0, 1):
        z = (f0 + res.d1.edge_values[ei][0]) * (g0 + res.d2.edge_values[ei][0])
        assert abs(z - (f0 * g0 + d0)) <= 1e-9
    assert res.d1.edge_values[0][0] == res.d1.edge_values[1][0]


def _count_calls(monkeypatch, owner, name):
    """Count the calls of the classmethod owner.name, which keeps working."""
    calls = []
    inner = getattr(owner, name).__func__
    monkeypatch.setattr(owner, name, classmethod(lambda cls, *args: calls.append(1) or inner(cls, *args)))
    return calls


def test_edge_results_are_built_on_first_read(monkeypatch):
    from openmult.interval import FactorizationResult

    dom = IntervalDomain(0.0, 1.0, 33)
    leaves = tuple(f"v{i}" for i in range(400))
    graph = GraphDomain(("c",) + leaves, tuple(("c", v, dom) for v in leaves))
    rng = np.random.default_rng(13)
    at = {v: complex(*rng.uniform(-1, 1, 2)) for v in leaves}
    f = interp_fn(graph, {"c": 0.8, **at}, rng, bump=0.05)
    g = interp_fn(graph, {"c": 0.6j, **{v: 0.7j * z for v, z in at.items()}}, rng, bump=0.05)
    d = scaled_to(interp_fn(graph, {"c": 0.1, **at}, rng, bump=1.0), delta0(0.5))
    results = _count_calls(monkeypatch, FactorizationResult, "of")
    grids = _count_calls(monkeypatch, GridFunction, "_trusted")
    res = open_mult_graph(f, g, d, 0.5)
    assert (len(results), len(grids)) == (0, 0)
    first = res.edge_results
    assert (len(results), len(grids)) == (400, 800)
    assert res.edge_results is first and (len(results), len(grids)) == (400, 800)
    for er, a, b, row in zip(first, res.d1.edge_values, res.d2.edge_values, res.rows):
        assert er.d1.values is a and er.d2.values is b
        assert (er.meta, er.residual, er.bound1, er.bound2) == row
    assert res.residual == max(er.residual for er in first)


def test_zero_perturbation_gives_each_edge_its_own_meta():
    graph = theta()
    f = interp_fn(graph, {"u": 1.0, "v": 0.5j})
    zero = GraphFunction(graph, tuple(np.zeros(N) for _ in graph.edges))
    res = open_mult_graph(f, f, zero, 0.5)
    metas = [er.meta for er in res.edge_results]
    assert len({id(m) for m in metas}) == len(graph.edges)
    assert all(m == metas[0] for m in metas) and metas[0]["cover"] == []
    metas[0]["cover"].append("scratch")  # a caller's edit stays on its own edge
    assert res.edge_results[1].meta["cover"] == []


def _count_function_calls(monkeypatch, owner, name):
    """Count the calls of the function owner.name (a module function or a
    method), which keeps working."""
    calls = []
    inner = getattr(owner, name)
    monkeypatch.setattr(owner, name, lambda *args, **kwargs: calls.append(1) or inner(*args, **kwargs))
    return calls


def test_graph_hot_path_builds_no_pins_or_meta(monkeypatch):
    # A 400-edge star whose every 8th leaf is jointly degenerate (a "cover" pin).
    # open_mult_graph carries the vertex pins and the per-edge certificate as
    # arrays: no EndpointPin and no meta until a caller reads them.
    from openmult import interval
    from openmult.graphs import GraphFactorizationResult, _vertex_pins, plan_edges

    dom = IntervalDomain(0.0, 1.0, 33)
    leaves = tuple(f"v{i}" for i in range(400))
    graph = GraphDomain(("c",) + leaves, tuple(("c", v, dom) for v in leaves))
    rng = np.random.default_rng(14)
    at = {v: complex(*rng.uniform(-1, 1, 2)) * (0.01 if i % 8 == 0 else 1.0) for i, v in enumerate(leaves)}
    f = interp_fn(graph, {"c": 0.8, **at}, rng, bump=0.05)
    g = interp_fn(graph, {"c": 0.6j, **{v: 0.7j * z for v, z in at.items()}}, rng, bump=0.05)
    d = scaled_to(interp_fn(graph, {"c": 0.1, **at}, rng, bump=1.0), delta0(0.5))
    pins_built = _count_function_calls(monkeypatch, interval.EndpointPin, "__post_init__")
    metas = _count_function_calls(monkeypatch, interval, "_meta")
    res = open_mult_graph(f, g, d, 0.5)
    assert (len(pins_built), len(metas)) == (0, 0)
    rows = res.rows
    assert (len(pins_built), len(metas)) == (0, 400)
    assert res.rows is rows and len(metas) == 400

    # the same graph through the Mapping view: one EndpointPin per edge end
    pins = _vertex_pins(f, g, d, interval.PipelineConfig.for_target(0.5))
    assert sorted({pin.kind for pin in pins.values()}) == ["cover", "nondeg"]
    layout = graph._layout
    fv, gv, dv = (x.values.copy() for x in (f, g, d))
    for x in (fv, gv, dv):
        x[layout.ends] = x[layout.canonical[layout.slot]]
    table = interval.PinTable.of([(plan.left, plan.right) for plan in plan_edges(f, g, d, 0.5)])
    d1, d2, cert, failed = interval._solve_ragged(interval.plan_intervals(fv, gv, 0.5, layout.offsets, table), dv)
    assert failed is None
    ref = GraphFactorizationResult(
        GraphFunction._trusted(graph, d1), GraphFunction._trusted(graph, d2), cert, pins,
        max(cert.residual), max(cert.bound1), max(cert.bound2),
    )
    assert np.array_equal(res.d1.values, d1) and np.array_equal(res.d2.values, d2)
    assert res.rows == ref.rows and (res.residual, res.bound1, res.bound2) == (ref.residual, ref.bound1, ref.bound2)
    for got, want in zip(res.edge_results, ref.edge_results):
        assert np.array_equal(got.d1.values, want.d1.values) and np.array_equal(got.d2.values, want.d2.values)
        assert (got.meta, got.residual, got.bound1, got.bound2) == (want.meta, want.residual, want.bound1, want.bound2)
    assert res.vertex_report == {
        v: {"kind": pin.kind, "d1": pin.d1, "d2": pin.d2, "agreement": 0.0} for v, pin in pins.items()
    }
    assert res.to_json() == ref.to_json()


def test_equal_results_compare_equal():
    # == compares d1, d2 and the maxima; the certificate and pins do not take part
    data = json.loads((Path(__file__).resolve().parent.parent / "fixtures" / "theta_graph.json").read_text())
    f, g, d = (function_from_json(data[k]) for k in ("f", "g", "d"))
    res = open_mult_graph(f, g, d, 0.7)
    assert res == open_mult_graph(f, g, d, 0.7) and not res != open_mult_graph(f, g, d, 0.7)
    assert res != open_mult_graph(f, g, d * 0.5, 0.7)


def test_graph_refusals_name_their_fault():
    dom = IntervalDomain(0.0, 1.0, 11)
    twice = GraphDomain(("a", "b"), (("a", "b", dom),), crossings=(((0, 5), (0, 5)),))
    with pytest.raises(ValueError) as exc:
        refine_partition(twice)
    assert (type(exc.value), str(exc.value)) == (ValueError, "edge 0 split twice at node 5")
    fn = interp_fn(star3(), {"c": 1.0, "a": 0.5, "b": 0.5j, "e": -1.0})
    assert slice_graph_function(fn, star3()) is fn  # no parentage, the same graph: nothing to slice
    with pytest.raises(ValueError) as exc:
        slice_graph_function(fn, theta())
    assert (type(exc.value), str(exc.value)) == (ValueError, "refined domain carries no parentage")


def test_vertex_tie_names_the_vertex():
    # f = 1, g = 0, d = 0.5j at vertex "b": the pins' roots tie (as in
    # test_vertex_pins_refuse_at_the_first_refusing_vertex)
    from openmult.errors import EqualModulusRoots
    from openmult.graphs import _vertex_pins
    from openmult.interval import PipelineConfig

    graph = GraphDomain(("a", "b"), (("a", "b", EDGE_DOM_2),))
    f, g, d = (_edge_values(graph, dict(zip("ab", x))) for x in ((1 + 1j, 1.0), (0.5, 0.0), (0.001j, 0.5j)))
    with pytest.raises(EqualModulusRoots) as exc:
        _vertex_pins(f, g, d, PipelineConfig.for_target(0.7))
    assert (str(exc.value), exc.value.bound, exc.value.value) == (
        "root moduli tie at vertex 'b'", "distinct root moduli", "b")


# Z sits where |Z|^2 < eta2 at eps0 = 0.7 in one formula and not in the other:
# Python's squared modulus abs(Z)**2 and numpy's np.abs(.)**2.
Z = -0.14891805690199778 + 0.13350435321941131j
CFG_07 = PipelineConfig.for_target(0.7)


@st.composite
def _on_the_cover_threshold(draw):
    """(f, g) with |f|^2 + |g|^2 within a few ulps of eta2 at eps0 = 0.7."""
    share = draw(st.floats(0.0, 1.0))
    return tuple(
        np.sqrt(CFG_07.eta2 * s) * np.exp(2j * np.pi * draw(st.floats(0.0, 1.0))) * (1 + draw(st.integers(-4, 4)) * 2.0**-52)
        for s in (share, 1 - share)
    )


@given(_on_the_cover_threshold())
@example((Z, 0j))
@settings(max_examples=200, deadline=None)
def test_vertex_pin_on_the_cover_threshold_equals_the_scalar_reference(fg):
    from openmult.graphs import _vertex_pins

    graph = GraphDomain(("a", "b"), (("a", "b", EDGE_DOM_2),))
    f, g, d = (_edge_values(graph, {"a": v, "b": v}) for v in (*fg, 0.1 * CFG_07.delta0))
    want = _reference_pins(f, g, d, CFG_07)
    assert [_pin_bits(p) for p in _vertex_pins(f, g, d, CFG_07).values()] == [_pin_bits(p) for p in want.values()]


@pytest.mark.parametrize("z", [Z, Z * (1 + 2**-50)])
def test_vertex_on_the_cover_threshold_is_certified(z):
    # A two-edge star, f = z*(1 + 10t) from the centre, g = 0: the centre is
    # non-degenerate, as both its edge ends are in the plan.
    dom = IntervalDomain(0.0, 1.0, 5)
    graph = GraphDomain(("c", "a", "b"), (("c", "a", dom), ("c", "b", dom)))
    f = GraphFunction(graph, tuple(z * (1 + 10 * dom.nodes()) for _ in range(2)))
    g, d = (GraphFunction(graph, tuple(np.full(5, v, dtype=complex) for _ in range(2))) for v in (0.0, 0.5 * delta0(0.7)))
    result = open_mult_graph(f, g, d, 0.7)
    assert result.vertex_report["c"]["kind"] == "nondeg"
    assert result.residual <= 1e-9 and max(result.bound1, result.bound2) <= 0.7


@pytest.mark.parametrize("seed", range(4))
def test_vertex_kind_is_the_plan_kind_at_each_end(seed):
    # Vertex values on the cover threshold |f|^2 + |g|^2 = eta2, up to a few
    # ulps: each vertex's kind is what the plan's h < eta2 says at each of its
    # edge ends, with h computed on the whole edge arrays.
    from openmult.graphs import _vertex_pins
    from openmult.interval import PIN_KINDS, PipelineConfig

    rng = np.random.default_rng(900 + seed)
    cfg = PipelineConfig.for_target(float(rng.choice([0.7, 0.35, 0.07])))
    n = 200
    verts = tuple(f"v{i}" for i in range(n))
    a, b = rng.integers(0, n, (2, 2 * n))
    graph = GraphDomain(verts, tuple((verts[i], verts[j], IntervalDomain(0.0, 1.0, 3)) for i, j in zip(a, b)))

    def on_threshold(share):
        angle = np.exp(2j * np.pi * rng.random(n))
        return np.sqrt(cfg.eta2 * share) * angle * (1 + rng.integers(-4, 5, n) * 2.0**-52)

    share = rng.random(n)
    fv, gv, dv = on_threshold(share), on_threshold(1 - share), np.full(n, 0.1 * cfg.delta0)
    f, g, d = (interp_fn(graph, dict(zip(verts, x))) for x in (fv, gv, dv))
    pins = _vertex_pins(f, g, d, cfg)
    h = np.abs(f.values) ** 2 + np.abs(g.values) ** 2
    layout = graph._layout
    kind = pins.table.kind[layout.slot]  # per edge end: its vertex's kind
    assert np.array_equal(kind == PIN_KINDS.index("cover"), h[layout.ends] < cfg.eta2)
    assert 0 < np.count_nonzero(kind == PIN_KINDS.index("cover")) < kind.size
