"""Benchmark-side re-verification of every timed op.

Every check is recomputed from the returned arrays (or the re-read CLI
report) and the benchmark's own copy of the inputs; the result's own
`residual`, `bound*` and `agreement` fields are never trusted.  Each check
returns None when the output is correct and a one-line reason otherwise.
"""

from __future__ import annotations

import numpy as np

RESIDUAL_TOL = 1e-9
BOUND_SLACK = 1e-9
VERTEX_TOL = 1e-9


def identity(fv, gv, dv, d1, d2, eps0, where=""):
    """(f+d1)(g+d2) = f*g + d within 1e-9*(1 + sup|f*g + d|), sup|d_i| <= eps0."""
    d1 = np.asarray(d1)
    d2 = np.asarray(d2)
    if d1.shape != fv.shape or d2.shape != fv.shape:
        return f"{where}output shape {d1.shape}/{d2.shape} != input shape {fv.shape}"
    if not (np.all(np.isfinite(d1)) and np.all(np.isfinite(d2))):
        return f"{where}non-finite output"
    target = fv * gv + dv
    residual = float(np.max(np.abs((fv + d1) * (gv + d2) - target)))
    limit = RESIDUAL_TOL * (1.0 + float(np.max(np.abs(target))))
    if not residual <= limit:
        return f"{where}residual {residual:.3e} > {limit:.3e}"
    for label, arr in (("d1", d1), ("d2", d2)):
        sup = float(np.max(np.abs(arr)))
        if not sup <= eps0 * (1.0 + BOUND_SLACK):
            return f"{where}sup|{label}| {sup!r} > eps0 {eps0!r}"
    return None


def graph(edges, fe, ge, de, d1e, d2e, eps0):
    """Per-edge identity and bounds, then vertex agreement recomputed.

    `edges` is a sequence of (u, v); node 0 of edge i sits at u, the last
    node at v.  Every edge endpoint sample of d1 and d2 at one vertex must
    agree within 1e-9*(1 + |first sample|).
    """
    if len(d1e) != len(edges) or len(d2e) != len(edges):
        return f"{len(d1e)} output edges for {len(edges)} input edges"
    for i in range(len(edges)):
        err = identity(fe[i], ge[i], de[i], d1e[i], d2e[i], eps0, where=f"edge {i}: ")
        if err:
            return err
    at = {}
    for i, (u, v) in enumerate(edges):
        at.setdefault(u, []).append((i, 0))
        at.setdefault(v, []).append((i, -1))
    for vertex, inc in at.items():
        for label, vals in (("d1", d1e), ("d2", d2e)):
            first = complex(vals[inc[0][0]][inc[0][1]])
            for ei, side in inc[1:]:
                s = complex(vals[ei][side])
                if abs(s - first) > VERTEX_TOL * (1.0 + abs(first)):
                    return f"vertex {vertex!r}: {label} disagrees by {abs(s - first):.3e}"
    return None


def probe(report, delta0):
    """delta_empirical >= delta0 and at least one trial ran."""
    trials = len(report.curve) * report.samples
    if trials <= 0:
        return "probe ran no trials"
    if not report.delta_empirical >= delta0:
        return f"delta_empirical {report.delta_empirical!r} < delta0 {delta0!r}"
    return None


def finite(a, b, d, a2, b2, eps):
    """a'*b' = a*b + d pointwise with |a'-a|, |b'-b| <= eps."""
    target = a * b + d
    residual = float(np.max(np.abs(a2 * b2 - target)))
    limit = RESIDUAL_TOL * (1.0 + float(np.max(np.abs(target))))
    if not residual <= limit:
        return f"finite residual {residual:.3e} > {limit:.3e}"
    for label, new, old in (("a", a2, a), ("b", b2, b)):
        dist = float(np.max(np.abs(new - old)))
        if not dist <= eps * (1.0 + BOUND_SLACK):
            return f"|{label}'-{label}| {dist!r} > eps {eps!r}"
    return None


def nondeg(f, g, f2, g2, eps):
    """f'*g' = f*g bit-exactly, |f'|^2+|g'|^2 >= eps^2/16, distances <= eps."""
    if not np.array_equal(f2 * g2, f * g):
        return "nondeg-approx product not preserved bit-exactly"
    hmin = float(np.min(np.abs(f2) ** 2 + np.abs(g2) ** 2))
    if not hmin >= eps * eps / 16.0 * (1.0 - 1e-12):
        return f"min joint modulus^2 {hmin!r} < eps^2/16"
    for label, new, old in (("f", f2, f), ("g", g2, g)):
        dist = float(np.max(np.abs(new - old)))
        if not dist <= eps * (1.0 + BOUND_SLACK):
            return f"|{label}'-{label}| {dist!r} > eps {eps!r}"
    return None


# ---------------------------------------------------------------------------
# Wire format (parsed here, not with openmult's own codec)


def pairs(values):
    arr = np.asarray(values, dtype=np.float64)
    return arr[..., 0] + 1j * arr[..., 1]


def cli_report(command, code, report, inputs, eps):
    """Re-verify one CLI run from its exit code and re-read JSON report."""
    if code != 0:
        return f"{command} exited {code}"
    if report is None:
        return f"{command} wrote no report"
    if command == "factor-interval":
        res = report["result"]
        return identity(
            pairs(inputs["f"]["values"]), pairs(inputs["g"]["values"]), pairs(inputs["d"]["values"]),
            pairs(res["d1"]["values"]), pairs(res["d2"]["values"]), eps,
        )
    if command == "factor-graph":
        res = report["result"]
        edges = [(e["u"], e["v"]) for e in inputs["f"]["domain"]["edges"]]
        fe, ge, de = ([pairs(v) for v in inputs[k]["values"]] for k in ("f", "g", "d"))
        d1e = [pairs(e["d1"]["values"]) for e in res["edges"]]
        d2e = [pairs(e["d2"]["values"]) for e in res["edges"]]
        return graph(edges, fe, ge, de, d1e, d2e, eps)
    if command == "factor-finite":
        return finite(
            pairs(inputs["a"]["values"]), pairs(inputs["b"]["values"]), pairs(inputs["d"]["values"]),
            pairs(report["a_prime"]["values"]), pairs(report["b_prime"]["values"]), eps,
        )
    if command == "nondeg-approx":
        return nondeg(
            pairs(inputs["f"]["values"]), pairs(inputs["g"]["values"]),
            pairs(report["f_prime"]["values"]), pairs(report["g_prime"]["values"]), eps,
        )
    if command == "scheme":
        if report.get("claims_pass") is not True:
            return "scheme claims_pass is not true"
        audit = report.get("audit")
        if not audit or audit.get("pass") is not True:
            return "scheme audit missing or failing"
        if report.get("iterations", 0) < 1:
            return "scheme ran no iterations"
        for key in ("distance_f", "distance_g"):
            if not float(report[key]) < eps:
                return f"scheme {key} {report[key]} >= eps {eps!r}"
        return None
    return f"unknown command {command!r}"
