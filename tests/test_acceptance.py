"""Acceptance suite: every criterion runs at its stated tolerance and prints
one pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import time

import numpy as np
import pytest

from openmult import (
    FiniteSpaceFunction,
    GraphDomain,
    GraphFunction,
    GridFunction,
    IntervalDomain,
    audit_claims,
    brute_scalar_delta,
    delta0,
    factor_interval,
    nondeg_approx,
    nondeg_phases,
    open_mult_graph,
    open_mult_interval,
    phase_offset,
    quadratic_correction,
    run_scheme,
    scalar_factor,
    scheme_params,
    shift_budget,
    sublevel_cover,
    sup_algebra_model,
    sup_norm,
)
from openmult.cli import main as cli_main

RESIDUAL_TOL = 1e-9


def _report(num, name, failures):
    status = "PASS" if not failures else f"FAIL ({len(failures)} cases)"
    print(f"[criterion {num}] {name}: {status}")
    assert not failures, f"criterion {num} failed, first cases: {failures[:5]}"


# ---------------------------------------------------------------------------
# Criterion 1: interval uniform openness on 1025-node grids


def _interval_families(t, rng):
    kind = rng.integers(0, 4)
    if kind == 0:  # trigonometric
        def mk():
            out = np.zeros(t.size, dtype=complex)
            for k in range(-2, 3):
                c = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.8 ** abs(k)
                out += c * np.exp(2j * np.pi * k * t)
            return out
        return mk(), mk()
    if kind == 1:  # polynomial
        def mk():
            c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
            return c[0] + c[1] * t + c[2] * t * t + c[3] * t**3
        return mk(), mk()
    if kind == 2:  # independent joint zero with mild slopes
        tau = rng.uniform(0.15, 0.85)
        def mk():
            a = rng.standard_normal() + 1j * rng.standard_normal()
            b = rng.standard_normal() + 1j * rng.standard_normal()
            return (t - tau) * (a + b * (t - tau))
        return mk(), mk()
    # shared linear factor
    tau = rng.uniform(0.2, 0.8)
    base = (t - tau).astype(complex)
    s = rng.standard_normal() + 1j * rng.standard_normal()
    return base, base * s


def test_criterion_1_interval_uniform_openness():
    dom = IntervalDomain(0.0, 1.0, 1025)
    t = dom.nodes()
    failures = []
    start = time.monotonic()
    for eps0 in (0.7, 0.35, 0.07):
        r = delta0(eps0)
        assert r == pytest.approx(eps0 * eps0 / 245.0, rel=1e-12)
        rng = np.random.default_rng(int(eps0 * 1000))
        for trial in range(500):
            fv, gv = _interval_families(t, rng)
            raw = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
            dv = raw * (r / np.max(np.abs(raw)))
            f, g, d = GridFunction(dom, fv), GridFunction(dom, gv), GridFunction(dom, dv)
            try:
                res = open_mult_interval(f, g, d, eps0)
            except Exception as exc:  # noqa: BLE001 - any failure breaks the criterion
                failures.append((eps0, trial, type(exc).__name__))
                continue
            scale = 1.0 + sup_norm(f * g + d)
            if res.residual > RESIDUAL_TOL * scale or res.bound1 > eps0 or res.bound2 > eps0:
                failures.append((eps0, trial, "tolerance", res.residual, res.bound1, res.bound2))
    elapsed = time.monotonic() - start
    if elapsed >= 60.0:
        failures.append(("runtime", elapsed))
    _report(1, f"interval uniform openness (1500 trials, {elapsed:.1f}s)", failures)


# ---------------------------------------------------------------------------
# Criterion 2: scheme audit on 257-node grids


def test_criterion_2_scheme_audit():
    n = 257
    t = np.linspace(0.0, 1.0, n)
    model = sup_algebra_model(n)
    rng = np.random.default_rng(2024)
    eps = 0.5
    failures = []
    for trial in range(200):
        F = FiniteSpaceFunction(
            (1.2 + 0.4 * rng.uniform()) + 0.5 * rng.uniform() * np.exp(2j * np.pi * t)
        )
        G = FiniteSpaceFunction(
            np.exp(-2j * np.pi * t) * (1.0 + 0.3 * np.cos(2 * np.pi * t + rng.uniform(0, 2 * np.pi)))
        )
        params = scheme_params(F, G, eps, model)
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        H = FiniteSpaceFunction(raw * (0.99 * params.delta / np.max(np.abs(raw))))
        try:
            f, g, trace = run_scheme(F, G, H, params, model)
        except Exception as exc:  # noqa: BLE001
            failures.append((trial, type(exc).__name__))
            continue
        report = audit_claims(trace, params)
        if not report["pass"]:
            failures.append((trial, "claims"))
            continue
        for rec in trace:
            if rec.norm_h > 2.0**-rec.n * params.delta * (1 + 1e-12):
                failures.append((trial, "defect decay", rec.n))
                break
        ref = F * G + H
        if sup_norm(f * g - ref) > RESIDUAL_TOL:
            failures.append((trial, "product residual"))
        if not (sup_norm(f - F) < eps and sup_norm(g - G) < eps):
            failures.append((trial, "distance"))
    _report(2, "inversion scheme audit (200 runs)", failures)


# ---------------------------------------------------------------------------
# Criterion 3: zero-dimensional modulus eps^2/4


def test_criterion_3_zero_dimensional_modulus():
    failures = []
    axis = np.linspace(-2.0, 2.0, 7)
    pts = [complex(a, b) for a in axis for b in axis if abs(complex(a, b)) <= 2.0]
    eps_grid = [round(0.1 * k, 1) for k in range(1, 11)]
    cases = 0
    for eps in eps_grid:
        w0 = eps * eps / 4.0
        for x in pts:
            for y in pts:
                for phase in (1, 1j, -1, -1j, np.exp(0.7j), np.exp(2.3j), np.exp(4.0j), np.exp(5.5j)):
                    w = w0 * phase
                    cases += 1
                    try:
                        x2, y2 = scalar_factor(x, y, complex(w), eps)
                    except Exception as exc:  # noqa: BLE001
                        failures.append((eps, x, y, type(exc).__name__))
                        continue
                    target = x * y + w
                    if abs(x2 * y2 - target) > 1e-12 * (1 + abs(target)):
                        failures.append((eps, x, y, "product"))
                    if abs(x2 - x) > eps or abs(y2 - y) > eps:
                        failures.append((eps, x, y, "distance"))
    assert cases >= 10_000
    # independent brute-force oracle at a representative sample
    sample = [0.0, 1.3, 2.0, 1j, -0.9 + 0.8j, 0.2 - 0.1j]
    for eps in (0.2, 0.6, 1.0):
        for x in sample:
            for y in (0.0, 1.5, -0.6j):
                d_emp = brute_scalar_delta(eps, x, y, grid=12)
                if d_emp < eps * eps / 4.0 * (1 - 1e-3):
                    failures.append(("brute", eps, x, y, d_emp))
    _report(3, f"zero-dimensional modulus ({cases} exhaustive cases + brute oracle)", failures)


# ---------------------------------------------------------------------------
# Criterion 4: graph equi-uniformity with one delta0


def _graph_builders(n):
    dom = IntervalDomain(0.0, 1.0, n)
    star = GraphDomain(
        ("c", "a", "b", "e"), (("c", "a", dom), ("c", "b", dom), ("c", "e", dom))
    )
    theta = GraphDomain(("u", "v"), tuple(("u", "v", dom) for _ in range(3)))
    verts = ("p", "q", "r", "s")
    k4 = GraphDomain(
        verts, tuple((u, v, dom) for i, u in enumerate(verts) for v in verts[i + 1:])
    )
    return {"star3": star, "theta": theta, "k4": k4}


def _graph_instance(graph, rng, degenerate_vertex, joint_zero_edge):
    t = graph.edges[0][2].nodes()
    vf = {v: complex(rng.standard_normal(), rng.standard_normal()) for v in graph.vertices}
    vg = {v: complex(rng.standard_normal(), rng.standard_normal()) for v in graph.vertices}
    if degenerate_vertex:
        v0 = graph.vertices[int(rng.integers(len(graph.vertices)))]
        vf[v0] = 0.01 * complex(rng.standard_normal(), rng.standard_normal())
        vg[v0] = 0.01 * complex(rng.standard_normal(), rng.standard_normal())
    fe, ge = [], []
    for ei, (u, v, dom) in enumerate(graph.edges):
        if joint_zero_edge and ei == 0:
            tau = rng.uniform(0.3, 0.7)
            shape_u = (1 - t) * (tau - t) / tau
            shape_v = t * (t - tau) / (1 - tau)
            fe.append(vf[u] * shape_u + vf[v] * shape_v)
            ge.append(vg[u] * shape_u + vg[v] * shape_v)
        else:
            bump_f = t * (1 - t) * (rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n))
            bump_g = t * (1 - t) * (rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n))
            fe.append(vf[u] * (1 - t) + vf[v] * t + 0.2 * bump_f)
            ge.append(vg[u] * (1 - t) + vg[v] * t + 0.2 * bump_g)
    f = GraphFunction(graph, tuple(fe))
    g = GraphFunction(graph, tuple(ge))
    vd = {v: 0.3 * complex(rng.standard_normal(), rng.standard_normal()) for v in graph.vertices}
    de = []
    for u, v, dom in graph.edges:
        raw = t * (1 - t) * (rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n))
        de.append(vd[u] * (1 - t) + vd[v] * t + raw)
    d = GraphFunction(graph, tuple(de))
    return f, g, d


def test_criterion_4_graph_equi_uniformity():
    eps0 = 0.7
    r = delta0(eps0)  # one constant for every graph
    failures = []
    seeds = {"star3": 401, "theta": 402, "k4": 403}
    for name, graph in _graph_builders(257).items():
        rng = np.random.default_rng(seeds[name])
        for trial in range(100):
            f, g, d = _graph_instance(
                graph, rng,
                degenerate_vertex=(trial % 3 == 1),
                joint_zero_edge=(trial % 4 == 2),
            )
            d = d * (r / sup_norm(d))
            try:
                res = open_mult_graph(f, g, d, eps0)
            except Exception as exc:  # noqa: BLE001
                failures.append((name, trial, type(exc).__name__, str(exc)[:60]))
                continue
            scale = 1.0 + sup_norm(f * g + d)
            for ei, er in enumerate(res.edge_results):
                if er.residual > RESIDUAL_TOL * scale:
                    failures.append((name, trial, "edge residual", ei))
            if any(rep["agreement"] > 1e-9 for rep in res.vertex_report.values()):
                failures.append((name, trial, "vertex agreement"))
            if res.bound1 > eps0 or res.bound2 > eps0:
                failures.append((name, trial, "bounds"))
    _report(4, "graph equi-uniformity (star3/theta/k4, 100 trials each)", failures)


# ---------------------------------------------------------------------------
# Criterion 5: building-block unit properties


def test_criterion_5_building_block_properties():
    failures = []
    rng = np.random.default_rng(5)

    # rotation identity on 1e5 random pairs, residual <= 1e-12 relative
    for _ in range(100_000):
        z = complex(rng.standard_normal(), rng.standard_normal())
        w = complex(rng.standard_normal(), rng.standard_normal())
        if z == 0 or w == 0:
            continue
        c = phase_offset(z, w)
        lhs = abs(z + c * w) ** 2
        rhs = abs(z) ** 2 + abs(w) ** 2
        if abs(lhs - rhs) > 1e-12 * rhs:
            failures.append(("rotation", z, w))
    # cover inclusions exact on 1e3 random h
    dom = IntervalDomain(0.0, 1.0, 257)
    t = dom.nodes()
    for trial in range(1000):
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        hv = np.abs(coeffs[0] + coeffs[1] * np.exp(2j * np.pi * t) + coeffs[2] * t)
        eta1 = rng.uniform(0.1, 0.5)
        eta2 = eta1 * rng.uniform(1.5, 3.0)
        try:
            cover = sublevel_cover(GridFunction(dom, hv.astype(complex)), eta1, eta2)
        except Exception:  # noqa: BLE001 - infeasible draws are skipped, not failures
            continue
        covered = np.zeros(dom.n, dtype=bool)
        for lo, hi in cover.intervals:
            covered[lo:hi + 1] = True
            if not np.all(hv[lo:hi + 1] < eta2):
                failures.append(("cover outer", trial))
        if not np.all(covered[hv <= eta1]):
            failures.append(("cover inner", trial))
    # rotated lower bound at every node on 1e3 jointly non-degenerate pairs
    produced = 0
    while produced < 1000:
        c1 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        c2 = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        h1 = c1[0] + c1[1] * np.exp(2j * np.pi * t) + c1[2] * t
        h2 = c2[0] + c2[1] * np.exp(2j * np.pi * t) + c2[2] * t
        m = float(np.min(np.abs(h1) ** 2 + np.abs(h2) ** 2))
        if m <= 1e-6:
            continue
        produced += 1
        eta = 0.9 * np.sqrt(m)
        b1, b2 = nondeg_phases(GridFunction(dom, h1), GridFunction(dom, h2), eta)
        lower = np.abs(h1 * b1.values + h2 * b2.values)
        if float(np.min(lower)) < eta * (1 - 1e-12):
            failures.append(("rotated bound", produced))
    # two-sided factorization with boundary data on 1e3 random targets
    for trial in range(1000):
        eps = rng.uniform(0.2, 0.9)
        coeffs = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        psi_raw = coeffs[0] + coeffs[1] * np.exp(2j * np.pi * t) + coeffs[2] * np.cos(np.pi * t)
        psi = psi_raw / np.max(np.abs(psi_raw)) * eps * eps * rng.uniform(0.1, 1.0)
        def split(p0):
            if p0 == 0:
                return 0j, 0j
            rr = rng.uniform(abs(p0) / eps, eps)
            za = rr * np.exp(1j * rng.uniform(0, 2 * np.pi))
            return za, p0 / za
        za, wa = split(complex(psi[0]))
        zb, wb = split(complex(psi[-1]))
        z1, z2 = factor_interval(GridFunction(dom, psi), eps, za, wa, zb, wb)
        res = np.max(np.abs(z1.values * z2.values - psi))
        if res > RESIDUAL_TOL * (1 + float(np.max(np.abs(psi)))):
            failures.append(("factor residual", trial))
        if sup_norm(z1) > eps * (1 + 1e-9) or sup_norm(z2) > eps * (1 + 1e-9):
            failures.append(("factor budget", trial))
    _report(5, "building-block unit properties", failures)


# ---------------------------------------------------------------------------
# Criterion 6: first-order continuity of the tracked root


def test_criterion_6_root_continuity_under_refinement():
    failures = []
    eta, eps = 0.6, 0.5
    budget = shift_budget(eta, eps)
    jumps = []
    for n in (65, 129, 257, 513, 1025):
        dom = IntervalDomain(0.0, 1.0, n)
        t = dom.nodes()
        f = GridFunction(dom, 1.1 + 0.5 * np.exp(2j * np.pi * t))  # |f| >= 0.6
        g = GridFunction(dom, np.exp(2j * np.pi * t))
        d = GridFunction(dom, budget * np.exp(1j * np.pi * t) * (0.5 + 0.5 * np.cos(2 * np.pi * t)))
        phi = quadratic_correction(f, g, d, eta, eps)
        jumps.append(float(np.max(np.abs(np.diff(phi.values)))))
    rates = [np.log2(jumps[k] / jumps[k + 1]) for k in range(4)]
    mean_rate = float(np.mean(rates))
    if mean_rate < 0.9:
        failures.append(("mean rate", mean_rate, rates))
    if not all(j2 < j1 for j1, j2 in zip(jumps, jumps[1:])):
        failures.append(("monotone", jumps))
    _report(6, f"tracked-root continuity (rates {', '.join(f'{r:.3f}' for r in rates)})", failures)


# ---------------------------------------------------------------------------
# Criterion 7: exact jointly non-degenerate approximation


def test_criterion_7_nondegenerate_approximation():
    rng = np.random.default_rng(7)
    failures = []
    for trial in range(10_000):
        n = int(rng.integers(1, 12))
        eps = float(rng.uniform(0.05, 1.0))
        scale = 10.0 ** rng.uniform(-2, 1)
        fv = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        gv = scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
        # sprinkle exact zeros to hit every partition class
        for arr in (fv, gv):
            mask = rng.uniform(size=n) < 0.3
            arr[mask] = 0.0
        f = FiniteSpaceFunction(fv)
        g = FiniteSpaceFunction(gv)
        f2, g2 = nondeg_approx(f, g, eps)
        if not np.array_equal(f2.values * g2.values, f.values * g.values):
            failures.append((trial, "product"))
        if np.max(np.abs(f2.values - f.values)) > eps or np.max(np.abs(g2.values - g.values)) > eps:
            failures.append((trial, "distance"))
        if float(np.min(np.abs(f2.values) ** 2 + np.abs(g2.values) ** 2)) <= 0.0:
            failures.append((trial, "degenerate"))
    _report(7, "jointly non-degenerate approximation (10k trials)", failures)


# ---------------------------------------------------------------------------
# Criterion 8: refusal of non-desk-verifiable content


def test_criterion_8_out_of_scope_refused(tmp_path, capsys):
    failures = []
    # unknown commands (group convolution, inverse limits) are rejected
    for cmd in ("factor-group", "factor-metric", "factor-inverse-limit"):
        try:
            cli_main([cmd, "--input", "x.json", "--epsilon", "0.5"])
            failures.append((cmd, "accepted"))
        except SystemExit as exc:
            if exc.code != 2:
                failures.append((cmd, exc.code))
    # scheme refuses algebra models it cannot verify at desk scale
    n = 8
    F = FiniteSpaceFunction(np.full(n, 1.0 + 0j))
    payload = {
        "model": {"type": "group"},
        "F": F.to_json(),
        "G": F.to_json(),
        "H": FiniteSpaceFunction(np.zeros(n, dtype=complex)).to_json(),
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    for bad in ("group", "ultrapower", "bidual", "metric"):
        payload["model"] = {"type": bad}
        path.write_text(json.dumps(payload))
        code = cli_main(["scheme", "--input", str(path), "--epsilon", "0.5"])
        err = capsys.readouterr().err
        if code != 2:
            failures.append((bad, code))
        elif "not desk-verifiable" not in err and "out of scope" not in err:
            failures.append((bad, "diagnostic"))
    _report(8, "out-of-scope content refused", failures)
