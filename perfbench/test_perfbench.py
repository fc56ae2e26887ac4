"""Tests of the benchmark's own machinery.

Run from the repository root:  python -m pytest perfbench -q
"""

import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
for path in (SRC, HERE):
    if path not in sys.path:
        sys.path.insert(0, path)

import layers  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import verify  # noqa: E402


def _synthetic():
    # op 0, wall [0, 10]:  A [0, 8] > (B [1, 3], C [2, 6] overlapping B, D [4, 5] inside C)
    #                      E [8.5, 9.5] top-level; [8, 8.5] and [9.5, 10] uncovered
    return [
        ("A", 0, 0, None, 0.0, 8.0),
        ("B", 0, 1, 0, 1.0, 3.0),
        ("C", 0, 2, 0, 2.0, 6.0),
        ("D", 0, 3, 2, 4.0, 5.0),
        ("E", 0, 4, None, 8.5, 9.5),
    ]


def test_self_time_subtracts_union_of_children():
    selfs = spans.self_times(_synthetic())
    assert selfs[0] == pytest.approx(8.0 - 5.0)  # children B and C cover [1, 6]
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0)  # D covers one of C's four seconds
    assert selfs[3] == pytest.approx(1.0)
    assert selfs[4] == pytest.approx(1.0)


def test_coverage_counts_top_level_spans_once():
    assert spans.coverage(_synthetic(), {0: 10.0}) == pytest.approx(0.9)
    # spans of ops outside the pass are ignored
    assert spans.coverage(_synthetic(), {1: 10.0}) == 0.0


def test_per_op_totals_average_over_ops():
    rec = spans.Recorder()
    rec.spans.extend(_synthetic())
    rec.spans.append(("A", 1, 9, None, 20.0, 21.0))
    rec.begin_op(0)
    rec.count("n", 4.0)
    self_ms, calls, counts = spans.per_op_totals(rec, [0, 1])
    assert self_ms["A"] == pytest.approx((3.0 + 1.0) * 1e3 / 2)
    assert calls["A"] == pytest.approx(1.0)
    assert counts["n"] == pytest.approx(2.0)


def test_missing_helper_is_absent_not_a_crash():
    import openmult.interval

    original = openmult.interval._plan_cover
    rec = spans.Recorder()
    targets = (
        layers.Target("openmult.interval._no_such_helper", "x.gone"),
        layers.Target("openmult.no_such_module.fn", "x.gone_module"),
        layers.Target("openmult.functions.GraphDomain.no_such_method", "x.gone_method"),
        layers.Target("openmult.interval._plan_cover", "interval.cover_plan"),
    )
    installed = spans.Installation(rec, targets)
    try:
        assert openmult.interval._plan_cover is not original
    finally:
        installed.remove()
    assert openmult.interval._plan_cover is original
    assert rec.absent == [t.path for t in targets[:3]]
    self_ms, calls, counts = spans.per_op_totals(rec, [0])
    values = layers.layer_values(self_ms, calls, counts)
    assert values["interval.cover_plan.self_ms"] == (0.0, "ms")


def test_wrappers_nest_and_restore_on_a_real_call():
    import openmult.interval
    from openmult.functions import GridFunction, IntervalDomain

    dom = IntervalDomain(0.0, 1.0, 257)
    t = dom.nodes()
    f = GridFunction(dom, (t - 0.5).astype(complex))
    g = GridFunction(dom, (t - 0.5) * (1 + 1j))
    d = GridFunction(dom, np.full(dom.n, 0.7**2 / 245.0, dtype=complex))
    before = {t.path: spans._resolve(t.path) for t in layers.TARGETS if not t.path.endswith("[*]")}
    originals = {p: (o.__dict__[a] if isinstance(o, type) else getattr(o, a)) for p, (o, a) in before.items()}
    rec = spans.Recorder()
    installed = spans.Installation(rec, layers.TARGETS)
    try:
        rec.begin_op(0)
        openmult.interval.open_mult_interval(f, g, d, 0.7)
    finally:
        installed.remove()
    assert rec.absent == []
    names = {s[0] for s in rec.spans}
    assert {"interval.open_mult_interval", "interval.pipeline", "interval.cover_plan",
            "interval.phases", "interval.circle_extend", "quadratic.smaller_root",
            "interval.direct_factor"} <= names
    by_id = {s[2]: s for s in rec.spans}
    pipeline = next(s for s in rec.spans if s[0] == "interval.pipeline")
    assert by_id[pipeline[3]][0] == "interval.open_mult_interval"
    for path, (owner, attr) in before.items():
        now = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        assert now is originals[path], path


def _interval_case(n=65):
    t = np.linspace(0.0, 1.0, n)
    fv = (t + 1.0).astype(complex)
    gv = (t - 0.25) * (1 + 1j)
    dv = np.full(n, 1e-4 + 0j)
    # (f + 0)(g + d/f) = f*g + d up to rounding
    return fv, gv, dv, np.zeros(n, dtype=complex), dv / fv


def test_verifier_accepts_an_exact_factorization_and_flags_a_corrupted_d1():
    fv, gv, dv, d1, d2 = _interval_case()
    assert verify.identity(fv, gv, dv, d1, d2, eps0=0.7) is None
    bad = d1.copy()
    bad[3] += 1e-6
    assert "residual" in verify.identity(fv, gv, dv, bad, d2, eps0=0.7)
    assert "sup|d2|" in verify.identity(fv, gv, dv, d1, d2, eps0=1e-6)


def test_verifier_flags_a_broken_vertex_value():
    fv, gv, dv, d1, d2 = _interval_case()
    edges = [("a", "b"), ("b", "c")]
    # edge 1 is edge 0 reversed, so both edges carry the same samples at b
    fe, ge, de = [fv, fv[::-1]], [gv, gv[::-1]], [dv, dv[::-1]]
    d1e, d2e = [d1, d1[::-1].copy()], [d2, d2[::-1].copy()]
    assert verify.graph(edges, fe, ge, de, d1e, d2e, 0.7) is None
    # another exact factorization at edge 1's end at b: the edge identity
    # still holds, the vertex no longer agrees
    d1e[1][0] = dv[-1] / gv[-1]
    d2e[1][0] = 0.0
    assert verify.identity(fe[1], ge[1], de[1], d1e[1], d2e[1], 0.7) is None
    err = verify.graph(edges, fe, ge, de, d1e, d2e, 0.7)
    assert err is not None and err.startswith("vertex 'b'")
    assert verify.graph(edges[:1], fe, ge, de, d1e, d2e, 0.7).startswith("2 output edges")


def test_verifier_flags_a_nonzero_cli_exit_and_a_failed_scheme_audit():
    assert verify.cli_report("factor-interval", 2, None, {}, 0.7) == "factor-interval exited 2"
    report = {"claims_pass": True, "audit": {"pass": False}, "iterations": 3,
              "distance_f": "0.1", "distance_g": "0.1"}
    assert "audit" in verify.cli_report("scheme", 0, report, {}, 0.5)
    report["audit"]["pass"] = True
    assert verify.cli_report("scheme", 0, report, {}, 0.5) is None


def test_verifier_checks_probe_radius_and_trial_count():
    class Report:
        curve = ((0.002, 1.0), (0.003, 0.5))
        samples = 8
        delta_empirical = 0.002

    assert verify.probe(Report, 0.002) is None
    assert "delta_empirical" in verify.probe(Report, 0.0021)
    Report.curve = ()
    assert verify.probe(Report, 0.002) == "probe ran no trials"


def test_tail_is_the_highest_percentile_with_ten_ops_beyond():
    lat = list(range(1, 41))  # 40 ops
    value, pct = run.tail(lat)
    assert value == 30 and pct == pytest.approx(75.0)
    assert sum(x > value for x in lat) == 10
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_scaling_uses_the_kernel_samples_around_each_op():
    probe = speed.SpeedProbe("python")
    ref = speed.REF_S["python"]
    # the machine runs at reference speed, then at half speed
    samples = [ref] * 5 + [2 * ref] * 5
    times = [1.0] * 5 + [2.0] * 5
    scaled = probe.scale(times, samples)
    assert scaled == pytest.approx([1.0] * 10)
    # one slow kernel sample among fast ones does not move its neighbours
    assert probe.scale([1.0] * 5, [ref, ref, 9 * ref, ref, ref]) == pytest.approx([1.0] * 5)


def test_child_recording_merges_into_the_current_op():
    rec = spans.Recorder()
    rec.begin_op(0)
    rec.add_span("x", 0.0, 1.0)
    rec.begin_op(7)
    rec.merge({
        "spans": [["cli.import", 0, 0, None, 0.0, 0.1], ["cli.command", 0, 1, None, 0.2, 0.5],
                  ["cli.load", 0, 2, 1, 0.2, 0.3]],
        "counts": [["finite.scalar_factor", 4.0]],
        "absent": ["openmult.cli._gone"],
    })
    self_ms, calls, counts = spans.per_op_totals(rec, [7])
    assert self_ms["cli.command"] == pytest.approx(200.0)
    assert self_ms["cli.load"] == pytest.approx(100.0)
    assert "x" not in calls and counts == {"finite.scalar_factor": 4.0}
    assert rec.absent == ["openmult.cli._gone"]
    assert len({s[2] for s in rec.spans}) == len(rec.spans)  # span ids stay unique
