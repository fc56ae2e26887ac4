import json

import numpy as np
import pytest

from openmult import (
    ClaimViolation,
    DegeneratePair,
    DiagonalAlgebraElement,
    FiniteSpaceFunction,
    PerturbationTooLarge,
    PreconditionViolated,
    audit_claims,
    diagonal_algebra_model,
    diagonal_open_mult,
    inverse_norm_bound,
    open_mult_interval,
    run_scheme,
    scheme_params,
    sup_algebra_model,
    sup_norm,
)
from openmult.functions import GridFunction, IntervalDomain
from openmult.scheme import AlgebraModel


def rand_nondeg_pair(rng, n, floor=0.4):
    t = np.linspace(0.0, 1.0, n)
    F = FiniteSpaceFunction(1.2 + 0.5 * np.exp(2j * np.pi * t) * rng.uniform(0.5, 1.0))
    G = FiniteSpaceFunction(
        np.exp(-2j * np.pi * t) * (1.0 + 0.3 * np.cos(2 * np.pi * t + rng.uniform(0, 2 * np.pi)))
    )
    assert np.min(np.abs(F.values) + np.abs(G.values)) > floor
    return F, G


class TestInverseNormBound:
    def test_identity_psi(self):
        model = sup_algebra_model(4)
        assert inverse_norm_bound(1.0, 0.5, model) == pytest.approx(0.5)
        assert inverse_norm_bound(2.0, 3.0, model) == pytest.approx(3.0)

    def test_square_psi(self):
        model = diagonal_algebra_model(np.array([1.0, 1.0]))
        assert inverse_norm_bound(1.0, 0.5, model) == pytest.approx(0.25)

    def test_positive_inputs_required(self):
        with pytest.raises(PreconditionViolated):
            inverse_norm_bound(0.0, 1.0, sup_algebra_model(2))

    def test_square_psi_dominates_brute_force(self):
        # oracle for the diagonal model: sample invertible elements of the
        # class the scheme inverts and compare the true inverse norm with the
        # bound psi(norm * sup-of-inverse) / norm
        rng = np.random.default_rng(0)
        w = np.array([1.0, 0.5, 2.0])
        model = diagonal_algebra_model(w)
        for _ in range(500):
            a = DiagonalAlgebraElement(
                complex(rng.standard_normal(), rng.standard_normal()),
                rng.standard_normal(3) + 1j * rng.standard_normal(3),
                w,
            )
            b = DiagonalAlgebraElement(
                complex(rng.standard_normal(), rng.standard_normal()),
                rng.standard_normal(3) + 1j * rng.standard_normal(3),
                w,
            )
            u = a * a.conj() + b * b.conj()
            if np.min(np.abs(u.embed().values)) < 1e-3:
                continue
            inv = u.inverse()
            bound = inverse_norm_bound(u.norm(), sup_norm(inv.embed()), model)
            assert inv.norm() <= bound * (1 + 1e-9)


class TestSchemeParams:
    def test_sup_model_reference_values(self):
        model = sup_algebra_model(1)
        F = FiniteSpaceFunction([1.0])
        G = FiniteSpaceFunction([1.0])
        p = scheme_params(F, G, 0.5, model)
        assert p.gamma == 1.0
        assert p.K == 2.0
        assert p.That == 32.0
        assert p.T == 32.0
        assert p.delta == pytest.approx(0.5 / 8192)

    def test_gamma_clamped_at_one(self):
        model = sup_algebra_model(2)
        F = FiniteSpaceFunction([1.5, 1.5])
        G = FiniteSpaceFunction([1.5, 1.5])
        p = scheme_params(F, G, 0.5, model)
        assert p.gamma == 1.0

    def test_K_floor(self):
        model = sup_algebra_model(2)
        F = FiniteSpaceFunction([0.1, 0.1])
        G = FiniteSpaceFunction([0.1, 0.1])
        p = scheme_params(F, G, 0.5, model)
        assert p.K == 2.0

    def test_degenerate_pair_rejected(self):
        model = sup_algebra_model(2)
        F = FiniteSpaceFunction([0.0, 1.0])
        G = FiniteSpaceFunction([0.0, 1.0])
        with pytest.raises(DegeneratePair):
            scheme_params(F, G, 0.5, model)


    # Python floats raise or round to 0 or inf past the float range: gamma**2
    # underflows to 0, or K**3 overflows, or (K*T)**2 rounds to inf
    @pytest.mark.parametrize("F, G, bound", [
        ([1e-300, 1e-300], [1e-300, 1e-300], "0 < That < inf"),
        ([1e150, 1e150], [1.0, 1.0], "0 < delta < inf"),
        ([1e60, 1e60], [1.0, 1.0], "0 < delta < inf"),
    ])
    def test_constants_past_the_float_range_refused(self, F, G, bound):
        with pytest.raises(PreconditionViolated) as exc:
            scheme_params(FiniteSpaceFunction(F), FiniteSpaceFunction(G), 0.5, sup_algebra_model(2))
        assert exc.value.bound == bound

    def test_diagonal_open_mult_refuses_constants_past_the_float_range(self):
        a = DiagonalAlgebraElement(1e60, [1.0], [1.0])
        b = DiagonalAlgebraElement(1.0, [0.0], [1.0])
        with pytest.raises(PreconditionViolated) as exc:
            diagonal_open_mult(a, b, b * 0.0, 0.5)
        assert exc.value.bound == "0 < delta < inf"


class TestRunScheme:
    def test_zero_defect_returns_inputs(self):
        model = sup_algebra_model(8)
        rng = np.random.default_rng(1)
        F, G = rand_nondeg_pair(rng, 8)
        H = FiniteSpaceFunction(np.zeros(8, dtype=complex))
        p = scheme_params(F, G, 0.5, model)
        f, g, trace = run_scheme(F, G, H, p, model)
        assert np.array_equal(f.values, F.values)
        assert np.array_equal(g.values, G.values)
        assert len(trace) == 1

    def test_single_point_closed_form(self):
        model = sup_algebra_model(1)
        F = FiniteSpaceFunction([1.0])
        G = FiniteSpaceFunction([1.0])
        p = scheme_params(F, G, 0.5, model)
        h0 = 0.9 * p.delta
        H = FiniteSpaceFunction([h0])
        f, g, trace = run_scheme(F, G, H, p, model)
        # first update: F1 = G1 = 1 + h0/2 and H1 = -h0^2/4
        assert trace.records[1].norm_f == pytest.approx(abs(1 + h0 / 2), rel=1e-15)
        assert trace.records[1].norm_h == pytest.approx(h0 * h0 / 4, rel=1e-12)
        # identity: F1*G1 + H1 = (1 + h0/2)^2 - h0^2/4 = 1 + h0
        assert complex(f.values[0] * g.values[0]) == pytest.approx(1 + h0, rel=1e-14)

    def test_defect_gate(self):
        model = sup_algebra_model(4)
        F = FiniteSpaceFunction(np.full(4, 1.0 + 0j))
        G = FiniteSpaceFunction(np.full(4, 1.0 + 0j))
        p = scheme_params(F, G, 0.5, model)
        H = FiniteSpaceFunction(np.full(4, 2 * p.delta))
        with pytest.raises(PerturbationTooLarge):
            run_scheme(F, G, H, p, model)

    def test_random_runs_pass_audit_and_decay(self):
        rng = np.random.default_rng(2)
        model = sup_algebra_model(64)
        for _ in range(10):
            F, G = rand_nondeg_pair(rng, 64)
            p = scheme_params(F, G, 0.5, model)
            raw = rng.standard_normal(64) + 1j * rng.standard_normal(64)
            H = FiniteSpaceFunction(raw / np.max(np.abs(raw)) * 0.99 * p.delta)
            f, g, trace = run_scheme(F, G, H, p, model)
            report = audit_claims(trace, p)
            assert report["pass"]
            hs = [rec.norm_h for rec in trace]
            for k in range(len(hs) - 1):
                assert hs[k + 1] <= 0.5 * hs[k] * (1 + 1e-12) + 1e-300
                assert hs[k] <= 2.0**-k * p.delta * (1 + 1e-12)
            ref = F * G + H
            assert sup_norm(f * g - ref) <= 1e-9 * (1 + sup_norm(ref))
            assert sup_norm(f - F) < p.eps and sup_norm(g - G) < p.eps

    def test_telescoping_distance(self):
        rng = np.random.default_rng(3)
        model = sup_algebra_model(32)
        F, G = rand_nondeg_pair(rng, 32)
        p = scheme_params(F, G, 0.3, model)
        raw = rng.standard_normal(32) + 1j * rng.standard_normal(32)
        H = FiniteSpaceFunction(raw / np.max(np.abs(raw)) * 0.99 * p.delta)
        f, g, trace = run_scheme(F, G, H, p, model)
        total_f = sum(rec.move_f for rec in trace)
        total_g = sum(rec.move_g for rec in trace)
        assert total_f < p.eps and total_g < p.eps
        assert sup_norm(f - F) <= total_f * (1 + 1e-12)
        assert sup_norm(f - F) < p.eps and sup_norm(g - G) < p.eps

    def test_iteration_cap_raises(self):
        from openmult import NonConvergence

        model = sup_algebra_model(4)
        F = FiniteSpaceFunction(np.full(4, 1.0 + 0j))
        G = FiniteSpaceFunction(np.full(4, 1.0 + 0j))
        p = scheme_params(F, G, 0.5, model)
        H = FiniteSpaceFunction(np.full(4, 0.9 * p.delta))
        with pytest.raises(NonConvergence):
            run_scheme(F, G, H, p, model, max_iter=0)

    def test_embedding_bounded_by_C(self):
        rng = np.random.default_rng(8)
        sup_model = sup_algebra_model(8)
        diag_model = diagonal_algebra_model(np.array([0.5, 2.0]))
        for _ in range(100):
            a = FiniteSpaceFunction(rng.standard_normal(8) + 1j * rng.standard_normal(8))
            assert sup_norm(sup_model.embed(a)) <= sup_model.C * sup_model.norm(a) * (1 + 1e-12)
            el = DiagonalAlgebraElement(
                complex(rng.standard_normal(), rng.standard_normal()),
                rng.standard_normal(2) + 1j * rng.standard_normal(2),
                np.array([0.5, 2.0]),
            )
            assert sup_norm(diag_model.embed(el)) <= diag_model.C * diag_model.norm(el) * (1 + 1e-12)

    def test_psi_nondecreasing(self):
        grid = np.linspace(0.01, 100.0, 500)
        for model in (sup_algebra_model(2), diagonal_algebra_model(np.array([1.0]))):
            vals = [model.psi(t) for t in grid]
            assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_differential_inequality_models(self):
        rng = np.random.default_rng(4)
        model = sup_algebra_model(16)
        for _ in range(100):
            a = FiniteSpaceFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16))
            b = FiniteSpaceFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16))
            lhs = sup_norm(a * b)
            rhs = model.D * (
                sup_norm(a) * sup_norm(model.embed(b)) + sup_norm(model.embed(a)) * sup_norm(b)
            )
            assert lhs <= rhs * (1 + 1e-12)

    def test_product_matches_interval_pipeline(self):
        # both constructions factor the same perturbed product; the factors
        # may differ, the identity and the eps-bounds must agree
        n = 257
        dom = IntervalDomain(0.0, 1.0, n)
        t = dom.nodes()
        rng = np.random.default_rng(5)
        fv = 1.1 + 0.4 * np.exp(2j * np.pi * t)
        gv = np.exp(-2j * np.pi * t)
        model = sup_algebra_model(n)
        F = FiniteSpaceFunction(fv)
        G = FiniteSpaceFunction(gv)
        eps = 0.5
        p = scheme_params(F, G, eps, model)
        raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        hv = raw / np.max(np.abs(raw)) * 0.99 * p.delta
        f, g, _trace = run_scheme(F, G, FiniteSpaceFunction(hv), p, model)
        res_scheme = f.values * g.values
        result = open_mult_interval(
            GridFunction(dom, fv), GridFunction(dom, gv), GridFunction(dom, hv), eps
        )
        res_interval = (fv + result.d1.values) * (gv + result.d2.values)
        target = fv * gv + hv
        assert np.max(np.abs(res_scheme - target)) <= 1e-9 * (1 + np.max(np.abs(target)))
        assert np.max(np.abs(res_interval - target)) <= 1e-9 * (1 + np.max(np.abs(target)))

    def test_claim_violation_on_broken_model(self):
        # fault injection: an inversion that returns garbage breaks the
        # product-conservation claim on the next recorded iteration
        base = sup_algebra_model(4)
        broken = AlgebraModel(
            name="broken",
            norm=base.norm,
            embed=base.embed,
            conj=base.conj,
            invert=lambda el: FiniteSpaceFunction(np.full(4, 17.0 + 0j)),
            C=base.C,
            D=base.D,
            psi=base.psi,
        )
        F = FiniteSpaceFunction(np.full(4, 1.0 + 0j))
        G = FiniteSpaceFunction(np.full(4, 1.0 + 0j))
        p = scheme_params(F, G, 0.5, broken)
        H = FiniteSpaceFunction(np.full(4, 0.9 * p.delta))
        with pytest.raises(ClaimViolation):
            run_scheme(F, G, H, p, broken)


class TestAuditClaims:
    def _trace(self):
        model = sup_algebra_model(8)
        rng = np.random.default_rng(6)
        F, G = rand_nondeg_pair(rng, 8)
        p = scheme_params(F, G, 0.5, model)
        raw = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        H = FiniteSpaceFunction(raw / np.max(np.abs(raw)) * 0.99 * p.delta)
        _f, _g, trace = run_scheme(F, G, H, p, model)
        return trace, p

    def test_zero_defect_vacuous_pass(self):
        model = sup_algebra_model(4)
        F = FiniteSpaceFunction(np.full(4, 1.0 + 0j))
        G = FiniteSpaceFunction(np.full(4, 1.0 + 0j))
        p = scheme_params(F, G, 0.5, model)
        H = FiniteSpaceFunction(np.zeros(4, dtype=complex))
        _f, _g, trace = run_scheme(F, G, H, p, model)
        report = audit_claims(trace, p)
        assert report["pass"] and len(report["iterations"]) == 1

    def test_single_point_defect_ratio(self):
        model = sup_algebra_model(1)
        F = FiniteSpaceFunction([1.0])
        G = FiniteSpaceFunction([1.0])
        p = scheme_params(F, G, 0.5, model)
        h0 = 0.9 * p.delta
        H = FiniteSpaceFunction([h0])
        _f, _g, trace = run_scheme(F, G, H, p, model)
        # measured |H1| = h0^2/4 against budget delta/2
        assert trace.records[1].norm_h == pytest.approx(h0 * h0 / 4, rel=1e-12)
        assert trace.records[1].norm_h <= p.delta / 2

    def test_corrupted_trace_flagged(self):
        trace, p = self._trace()
        k = min(1, len(trace.records) - 1)
        rec = trace.records[k]
        trace.records[k] = type(rec)(
            n=rec.n,
            norm_f=rec.norm_f,
            norm_g=rec.norm_g,
            norm_h=rec.norm_h + 10.0 * p.delta,  # inflate the defect
            inf_embed=rec.inf_embed,
            identity_residual=rec.identity_residual,
            claims=rec.claims,
        )
        report = audit_claims(trace, p)
        assert not report["pass"]
        assert not report["iterations"][k]["defect_halved"]

    def test_empty_trace_rejected(self):
        from openmult import SchemeTrace

        with pytest.raises(PreconditionViolated):
            audit_claims(SchemeTrace(), None)

    def test_trace_json_lines(self):
        trace, _p = self._trace()
        lines = trace.to_json_lines().splitlines()
        assert len(lines) == len(trace)
        first = json.loads(lines[0])
        assert first["n"] == 0 and "norm_h" in first
