import pytest

import openmult.probe as probe_mod
from openmult import (
    CoverInfeasible,
    GridFunction,
    IntervalDomain,
    PreconditionViolated,
    brute_scalar_delta,
    delta0,
    probe_pipeline,
    scalar_factor,
)
from openmult.interval import plan_interval

DOM = IntervalDomain(0.0, 1.0, 129)


class TestBruteScalarDelta:
    def test_origin_full_ball(self):
        # products of the unit balls cover the unit disk
        assert brute_scalar_delta(1.0, 0.0, 0.0, grid=16) >= 1.0 * (1 - 1e-3)

    def test_origin_quarter_ball(self):
        # reachable radius is eps^2, well above the certified eps^2/4
        d = brute_scalar_delta(0.5, 0.0, 0.0, grid=16)
        assert d >= 0.25 * (1 - 1e-3)
        assert d >= 0.25 / 4

    def test_never_below_certified_radius(self):
        for eps in (0.3, 0.8):
            for x, y in ((0.0, 0.0), (1.0, -0.5j), (2.0, 2.0), (0.1 + 0.1j, 0.0)):
                d = brute_scalar_delta(eps, x, y, grid=12)
                assert d >= eps * eps / 4.0 * (1 - 1e-3)
                # cross-check: the constructive witness succeeds there too
                w = eps * eps / 4.0
                x2, y2 = scalar_factor(x, y, w, eps)
                assert abs(x2 - x) <= eps and abs(y2 - y) <= eps

    def test_grid_floor(self):
        with pytest.raises(PreconditionViolated):
            brute_scalar_delta(1.0, 0.0, 0.0, grid=4)


class TestProbePipeline:
    def test_easy_pair_beats_certified_radius(self):
        f = GridFunction.constant(DOM, 1.0)
        g = GridFunction.constant(DOM, 1.0)
        rep = probe_pipeline(f, g, 0.7, trials=4, seed=0)
        assert rep.delta_constructive == pytest.approx(delta0(0.7))
        assert rep.delta_empirical > 10 * rep.delta_constructive

    def test_joint_zero_pair_reaches_certified_radius(self):
        t = DOM.nodes()
        f = GridFunction(DOM, (t - 0.5).astype(complex))
        g = GridFunction(DOM, (t - 0.5).astype(complex))
        rep = probe_pipeline(f, g, 0.7, trials=4, seed=1)
        assert rep.delta_empirical >= rep.delta_constructive

    def test_deterministic(self):
        f = GridFunction.constant(DOM, 1.0)
        g = GridFunction.constant(DOM, 1.0)
        a = probe_pipeline(f, g, 0.5, trials=3, seed=42)
        b = probe_pipeline(f, g, 0.5, trials=3, seed=42)
        assert a == b

    def test_trials_validated(self):
        f = GridFunction.constant(DOM, 1.0)
        with pytest.raises(PreconditionViolated):
            probe_pipeline(f, f, 0.5, trials=0, seed=0)

    def test_report_serialization(self, tmp_path):
        f = GridFunction.constant(DOM, 1.0)
        rep = probe_pipeline(f, f, 0.5, trials=2, seed=7)
        obj = rep.to_json()
        assert obj["seed"] == 7 and obj["samples"] == 2
        path = tmp_path / "curve.csv"
        rep.write_curve_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "r,success_rate"
        assert len(lines) == len(rep.curve) + 1

    def test_refusal_counts_as_failed_trial(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise CoverInfeasible("refine the grid")

        monkeypatch.setattr(probe_mod, "solve_interval", refuse)
        f = GridFunction.constant(DOM, 1.0)
        rep = probe_pipeline(f, f, 0.5, trials=2, seed=0)
        assert rep.curve == ((rep.delta_constructive, 0.0),)
        assert rep.delta_empirical == 0.0

    def test_internal_invariant_failure_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("internal invariant failed: factorization residual out of tolerance")

        monkeypatch.setattr(probe_mod, "solve_interval", broken)
        f = GridFunction.constant(DOM, 1.0)
        with pytest.raises(RuntimeError, match="internal invariant failed"):
            probe_pipeline(f, f, 0.5, trials=2, seed=0)

    def test_plan_refusal_fails_every_trial(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise CoverInfeasible("refine the grid")

        monkeypatch.setattr(probe_mod, "plan_interval", refuse)
        f = GridFunction.constant(DOM, 1.0)
        rep = probe_pipeline(f, f, 0.5, trials=2, seed=0)
        assert rep.curve == ((delta0(0.5), 0.0),)
        assert rep.delta_empirical == 0.0

    def test_infeasible_cover_fails_every_trial(self):
        # f = g jumps from 0 to 1 between adjacent nodes: no cover tier can
        # place its seam, whatever the perturbation.
        step = GridFunction(DOM, (DOM.nodes() > 0.5).astype(complex))
        with pytest.raises(CoverInfeasible):
            plan_interval(step.values, step.values, 0.7)
        rep = probe_pipeline(step, step, 0.7, trials=2, seed=0)
        assert rep.curve == ((delta0(0.7), 0.0),)
        assert rep.delta_empirical == 0.0

    def test_domain_mismatch_fails_every_trial(self):
        f = GridFunction.constant(DOM, 1.0)
        g = GridFunction.constant(IntervalDomain(0.0, 2.0, DOM.n), 1.0)
        rep = probe_pipeline(f, g, 0.7, trials=2, seed=0)
        assert rep.curve == ((delta0(0.7), 0.0),)
