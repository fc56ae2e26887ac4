import numpy as np
import pytest

import openmult.probe as probe_mod
from openmult import (
    CoverInfeasible,
    EndpointPin,
    GridFunction,
    IntervalDomain,
    InternalInvariantError,
    PinTable,
    PreconditionViolated,
    VertexInconsistency,
    brute_scalar_delta,
    delta0,
    plan_intervals,
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

    def test_negative_seed_refused(self):
        f = GridFunction.constant(DOM, 1.0)
        with pytest.raises(PreconditionViolated) as exc:
            probe_pipeline(f, f, 0.7, trials=1, seed=-1)
        assert (exc.value.bound, exc.value.value) == ("seed", -1)

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

    def test_pinned_disagreement_is_a_verdict(self):
        # The ungated solve that a rung runs never raises: three trials laid
        # end to end, the middle one pinned where the solve misses its right
        # end, fail that trial alone and return the refusal the gate raises.
        n = 65
        t = IntervalDomain(0.0, 1.0, n).nodes()
        fv, gv = np.tile((0.8 + 0.3j) * np.exp(1j * t), 3), np.tile((0.2 - 0.7j) * (1.0 + t), 3)
        pin = EndpointPin(kind="nondeg", d1=1e-3 + 0j, d2=-1e-3j, beta2=1j)
        plan = plan_intervals(fv, gv, 0.7, np.arange(4) * n, PinTable.of([(None, None), (None, pin), (None, None)]))
        _d1, _d2, cert, refusal = probe_mod._solve_ragged(plan, np.full(3 * n, 1e-4 + 0j))
        message = "edge construction disagrees with the pinned endpoint by 0.0009700807360431933"
        assert cert.failed == [None, message, None]
        assert (type(refusal), str(refusal)) == (VertexInconsistency, message)

    def test_internal_invariant_failure_propagates(self, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("internal invariant failed: factorization residual out of tolerance")

        monkeypatch.setattr(probe_mod, "_solve_ragged", broken)
        f = GridFunction.constant(DOM, 1.0)
        with pytest.raises(RuntimeError, match="internal invariant failed"):
            probe_pipeline(f, f, 0.5, trials=2, seed=0)

    def test_tied_trial_fails_alone(self, monkeypatch):
        # A real root tie in the second trial of the third rung: d turns the
        # tracked quadratic's discriminant into -f_quad^2 at one node of that
        # trial's first complement segment.  Only that trial fails, on its own
        # verdict, and each rung takes one solve of its 5 trials.
        t = DOM.nodes()
        f = GridFunction(DOM, (t - 0.5).astype(complex))
        want = probe_pipeline(f, f, 0.7, trials=5, seed=2)
        assert [rate for _r, rate in want.curve[:3]] == [1.0, 1.0, 1.0]
        inner, sizes, verdicts = probe_mod._solve_ragged, [], []

        def tie_on_rung_2(plan, dv):
            if len(sizes) == 2:
                s, _e, beta2, f_quad = next(seg for seg in plan.segments if seg[0] >= DOM.n)
                dv = dv.copy()
                dv[s + 3] = -(f_quad[3] ** 2) / (2 * beta2[3])
            sizes.append(dv.size)
            out = inner(plan, dv)
            verdicts.append(out[2].failed)
            return out

        monkeypatch.setattr(probe_mod, "_solve_ragged", tie_on_rung_2)
        got = probe_pipeline(f, f, 0.7, trials=5, seed=2)
        assert got.curve == (*want.curve[:2], (want.curve[2][0], 0.8))
        assert 0.0 < got.curve[-1][1] < 1.0 and got.delta_empirical == want.curve[1][0]
        assert sizes == [5 * DOM.n] * 3  # one solve per rung, none replayed
        assert verdicts[2] == [None, "root moduli tie at index 3", None, None, None]

    def test_plan_refusal_fails_every_trial(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise CoverInfeasible("refine the grid")

        monkeypatch.setattr(probe_mod, "plan_intervals", refuse)
        f = GridFunction.constant(DOM, 1.0)
        rep = probe_pipeline(f, f, 0.5, trials=2, seed=0)
        assert rep.curve == ((delta0(0.5), 0.0),)
        assert rep.delta_empirical == 0.0

    @pytest.mark.parametrize("error, message", [
        (InternalInvariantError, "internal invariant failed: rotated lower bound lost"),
        (PreconditionViolated, "offsets must rise strictly from 0 to fv.size"),
    ])
    def test_plan_failing_otherwise_propagates(self, monkeypatch, error, message):
        # Only an infeasible cover counts as failed trials: an internal
        # failure of the plan, or any other refusal, is never swallowed.
        def fail(*args, **kwargs):
            raise error(message)

        monkeypatch.setattr(probe_mod, "plan_intervals", fail)
        f = GridFunction.constant(DOM, 1.0)
        with pytest.raises(error) as exc:
            probe_pipeline(f, f, 0.5, trials=2, seed=0)
        assert str(exc.value) == message

    def test_probe_plans_once(self, monkeypatch):
        # 200 trials of 129 nodes make two chunks a rung: one plan, over a
        # chunk of copies of the pair, is the refusal gate and serves both.
        from openmult import interval

        calls = []
        for owner in (interval, probe_mod):
            inner = owner.plan_intervals
            monkeypatch.setattr(owner, "plan_intervals", lambda *a, inner=inner: calls.append(1) or inner(*a))
        f = GridFunction.constant(DOM, 1.0)
        rep = probe_pipeline(f, f, 0.7, trials=200, seed=0)
        assert rep.curve[0][1] == 1.0 and len(calls) == 1

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
        # the second g has another node count: the pair is never tiled or planned
        f = GridFunction.constant(DOM, 1.0)
        for other in (IntervalDomain(0.0, 2.0, DOM.n), IntervalDomain(0.0, 1.0, DOM.n + 1)):
            rep = probe_pipeline(f, GridFunction.constant(other, 1.0), 0.7, trials=2, seed=0)
            assert rep.curve == ((delta0(0.7), 0.0),)

    def test_trials_build_no_certificate_rows(self, monkeypatch):
        # A rung reads only the verdicts of the ungated solve: no meta and
        # no row per trial, on a pair whose plan holds a cover run.  Its 4
        # trials of 129 nodes make one chunk: one solve per rung.
        from openmult import interval

        calls = {name: [] for name in ("_meta", "_solve_ragged")}
        for owner, name in ((interval, "_meta"), (probe_mod, "_solve_ragged")):
            inner = getattr(owner, name)
            monkeypatch.setattr(owner, name, lambda *a, inner=inner, seen=calls[name]: seen.append(1) or inner(*a))
        t = DOM.nodes()
        f = GridFunction(DOM, (t - 0.5).astype(complex))
        assert plan_interval(f.values, f.values, 0.7).cover[0].size
        rep = probe_pipeline(f, f, 0.7, trials=4, seed=1)
        assert len(calls["_solve_ragged"]) == len(rep.curve) and not calls["_meta"]


@pytest.mark.parametrize("x, y, eps, reachable", [(1.0, 0.5, 0.6, True), (0.5, 1.0, 0.6, True), (1.0, 1.0, 0.5, False)])
def test_zero_product_needs_a_factor_within_eps_of_zero(x, y, eps, reachable):
    # w = -x*y: x'*y' = 0 only where x' or y' is 0
    assert probe_mod._reachable(x, y, eps, -x * y, 8) is reachable


def test_radius_saturates_where_every_direction_succeeds():
    # Both parts of eps*e^{it} and of w (|w| <= 1.5e-10) are lost in rounding
    # next to those of x and x*y, so the search finds x' = x, y' = y in every
    # direction at the top of the bracket, which is returned as it is.
    eps, x, y = 1e-30, 1e20 + 1e20j, 1.0
    assert brute_scalar_delta(eps, x, y, grid=8) == eps * (abs(x) + abs(y) + eps) * 1.01 + 1e-12
