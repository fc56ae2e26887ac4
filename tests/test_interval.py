import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmult import (
    BoundaryMismatch,
    CoverInfeasible,
    EndpointPin,
    GridFunction,
    IntervalDomain,
    NonUnimodularInput,
    NormBudgetExceeded,
    PerturbationTooLarge,
    PreconditionViolated,
    ZeroArgument,
    circle_extend,
    delta0,
    factor_halfboundary,
    factor_interval,
    nondeg_phases,
    open_mult_interval,
    perturb_nondegenerate,
    phase_offset,
    quadratic_correction,
    refine,
    shift_budget,
    sublevel_cover,
    sup_norm,
)
from openmult.interval import UNDEFINED, PinTable, plan_interval, plan_intervals, root_pair, solve_intervals

DOM = IntervalDomain(0.0, 1.0, 257)
T = DOM.nodes()


def grid(values, dom=DOM):
    return GridFunction(dom, np.asarray(values, dtype=complex))


def rand_smooth(rng, dom=DOM, terms=3, scale=1.0):
    t = dom.nodes()
    out = np.zeros(dom.n, dtype=complex)
    for k in range(-terms, terms + 1):
        c = (rng.standard_normal() + 1j * rng.standard_normal()) * 0.6 ** abs(k)
        out += c * np.exp(2j * np.pi * k * t)
    return GridFunction(dom, out * scale)


class TestShiftBudget:
    def test_stated_values(self):
        assert shift_budget(1.0, 1.0) == pytest.approx(0.2)
        assert shift_budget(0.1, 1.0) == pytest.approx(0.002)

    @given(st.floats(min_value=1e-3, max_value=10.0), st.floats(min_value=1e-3, max_value=10.0))
    @settings(max_examples=100)
    def test_budget_inequalities(self, eta, eps):
        delta = shift_budget(eta, eps)
        assert 2.0 * delta / eta <= eps * (1 + 1e-12)
        assert 2.0 * delta / eta < eta / 2.0

    @given(st.floats(min_value=1e-320, max_value=1.0, exclude_max=True))
    @settings(max_examples=500)
    def test_delta0_is_the_tracking_budget(self, eps0):
        # Bit for bit, so the delta0 gate of solve_interval also keeps every
        # segment's d inside the shift budget of its root tracking.  (Below
        # about 3.5e-323, eps0/7 underflows to zero and both sides refuse.)
        assert delta0(eps0) == shift_budget(eps0 / 7, eps0 / 7)


class TestQuadraticCorrection:
    def test_zero_perturbation(self):
        f = grid(np.ones(DOM.n))
        g = grid(np.ones(DOM.n))
        d = grid(np.zeros(DOM.n))
        phi = quadratic_correction(f, g, d, 1.0, 1.0)
        assert np.all(phi.values == 0)

    def test_scalar_oracle_sign_convention(self):
        # f*phi + g*phi^2 = d with f = g = 1, d = 0.01 solves z^2 + z - 0.01 = 0;
        # frozen from the numpy.roots oracle
        f = grid(np.ones(DOM.n))
        g = grid(np.ones(DOM.n))
        d = grid(np.full(DOM.n, 0.01))
        phi = quadratic_correction(f, g, d, 1.0, 1.0)
        assert np.all(np.abs(phi.values - 0.009901951359278481) < 1e-12)
        res = f.values * phi.values + g.values * phi.values**2 - d.values
        assert np.max(np.abs(res)) < 1e-12

    def test_constant_under_refinement(self):
        dom2 = IntervalDomain(0.0, 1.0, 2 * DOM.n - 1)
        budget = shift_budget(1.0, 1.0)
        for dom in (DOM, dom2):
            f = GridFunction.constant(dom, 1.0)
            g = GridFunction.constant(dom, 1.0)
            d = GridFunction.constant(dom, budget)
            phi = quadratic_correction(f, g, d, 1.0, 1.0)
            assert np.max(np.abs(phi.values - phi.values[0])) == 0.0

    def test_identity_and_bound_random(self):
        rng = np.random.default_rng(0)
        eta, eps = 0.5, 0.3
        f = grid(eta * (1.2 + 0.2 * np.cos(2 * np.pi * T)) * np.exp(1j * T))
        g = grid(np.exp(2j * np.pi * T))
        raw = rng.standard_normal(DOM.n) + 1j * rng.standard_normal(DOM.n)
        d = grid(raw / np.max(np.abs(raw)) * shift_budget(eta, eps))
        phi = quadratic_correction(f, g, d, eta, eps)
        res = f.values * phi.values + g.values * phi.values**2 - d.values
        assert np.max(np.abs(res)) <= 1e-10 * (1 + sup_norm(d))
        assert sup_norm(phi) <= eps

    def test_eta_floor_enforced(self):
        f = grid(np.full(DOM.n, 0.1))
        g = grid(np.ones(DOM.n))
        d = grid(np.zeros(DOM.n))
        with pytest.raises(PreconditionViolated):
            quadratic_correction(f, g, d, 0.5, 1.0)

    def test_unimodular_g_enforced(self):
        f = grid(np.ones(DOM.n))
        g = grid(np.full(DOM.n, 2.0))
        d = grid(np.zeros(DOM.n))
        with pytest.raises(PreconditionViolated):
            quadratic_correction(f, g, d, 1.0, 1.0)

    def test_budget_enforced(self):
        f = grid(np.ones(DOM.n))
        g = grid(np.ones(DOM.n))
        d = grid(np.full(DOM.n, 10.0))
        with pytest.raises(PreconditionViolated):
            quadratic_correction(f, g, d, 1.0, 1.0)


class TestPhaseOffset:
    def test_unit_pair(self):
        c = phase_offset(1.0, 1.0)
        assert c == pytest.approx(1j)
        assert abs(1 + c * 1) ** 2 == pytest.approx(2.0)

    def test_rotated_pair(self):
        c = phase_offset(1.0, 1j)
        assert c == pytest.approx(1.0)
        assert abs(1 + c * 1j) ** 2 == pytest.approx(2.0)

    @given(
        st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
        st.complex_numbers(min_magnitude=1e-6, max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    )
    @settings(max_examples=200)
    def test_pythagorean_identity(self, z, w):
        c = phase_offset(z, w)
        assert abs(abs(c) - 1.0) <= 1e-12
        lhs = abs(z + c * w) ** 2
        rhs = abs(z) ** 2 + abs(w) ** 2
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_zero_rejected(self):
        with pytest.raises(ZeroArgument):
            phase_offset(0.0, 1.0)

    @pytest.mark.parametrize("tiny", [1e-320, 5e-324])
    def test_subnormal_product_gives_1j(self, tiny):
        # 1/|conj(w)*z| overflows: any unit rotation will do, and 1j is the one taken
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert phase_offset(1, tiny) == 1j
            assert phase_offset(tiny, 1) == 1j


class TestCircleExtend:
    def test_constant_gap(self):
        vals = np.array([1.0, UNDEFINED, UNDEFINED, 1.0], dtype=complex)
        out = circle_extend(vals)
        assert np.max(np.abs(out - 1.0)) < 1e-12

    def test_quarter_arc(self):
        m = 9
        vals = np.full(m, UNDEFINED, dtype=complex)
        vals[0], vals[-1] = 1.0, 1j
        out = circle_extend(vals)
        expected = np.exp(1j * np.linspace(0, np.pi / 2, m))
        assert np.max(np.abs(out - expected)) < 1e-12
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12

    def test_antipodal_counterclockwise(self):
        m = 5
        vals = np.full(m, UNDEFINED, dtype=complex)
        vals[0], vals[-1] = 1.0, -1.0
        out = circle_extend(vals)
        assert out[0] == 1.0 and out[-1] == -1.0
        # counterclockwise: the midpoint sits at +i, not -i
        assert out[2].imag > 0.9

    def test_boundary_gap_constant(self):
        vals = np.array([UNDEFINED, UNDEFINED, 1j, 1j], dtype=complex)
        out = circle_extend(vals)
        assert np.max(np.abs(out - 1j)) < 1e-12

    def test_pinned_boundary_gap(self):
        vals = np.full(9, UNDEFINED, dtype=complex)
        vals[0], vals[-1] = 1j, 1.0  # the pinned left end is a defined entry
        out = circle_extend(vals)
        assert out[0] == 1j and out[-1] == 1.0
        assert np.max(np.abs(np.abs(out) - 1.0)) < 1e-12

    def test_fully_undefined_is_constant_one(self):
        out = circle_extend(np.full(7, UNDEFINED, dtype=complex))
        assert np.all(out == 1.0)

    def test_non_unimodular_rejected(self):
        vals = np.array([2.0, UNDEFINED, 1.0], dtype=complex)
        with pytest.raises(NonUnimodularInput):
            circle_extend(vals)

    def test_refinement_shrinks_jumps(self):
        jumps = []
        for m in (9, 17, 33):
            vals = np.full(m, UNDEFINED, dtype=complex)
            vals[0], vals[-1] = 1.0, np.exp(2.5j)
            out = circle_extend(vals)
            jumps.append(np.max(np.abs(np.diff(out))))
        assert jumps[0] > jumps[1] > jumps[2]
        assert jumps[0] / jumps[2] == pytest.approx(4.0, rel=0.1)


def _pin_ends(vals, mask, pin_left, pin_right):
    """vals and mask with each given end pin written in as a defined entry."""
    vals = np.array(vals, dtype=np.complex128)
    mask = np.array(mask, dtype=bool)
    for pin, idx in ((pin_left, 0), (pin_right, vals.size - 1)):
        if pin is not None:
            vals[idx] = pin
            mask[idx] = True
    return vals, mask


def _circle_extend_reference(vals, mask):
    """Per-node loop over the gaps: the reference circle_extend must match bit
    for bit (validation is not repeated here)."""
    vals = np.array(vals, dtype=np.complex128)
    mask = np.array(mask, dtype=bool)
    if not np.any(mask):
        return np.ones(vals.size, dtype=np.complex128)
    n = vals.size
    i = 0
    while i < n:
        if mask[i]:
            i += 1
            continue
        j = i
        while j + 1 < n and not mask[j + 1]:
            j += 1
        left = vals[i - 1] if i > 0 else None
        right = vals[j + 1] if j + 1 < n else None
        if left is not None and right is not None:
            delta = float(np.angle(right / left))
            span = j - i + 2
            ks = np.arange(1, j - i + 2)
            vals[i:j + 1] = left * np.exp(1j * delta * ks / span)
        elif left is not None:
            vals[i:j + 1] = left
        else:
            vals[i:j + 1] = right
        i = j + 1
    return vals


# Exact quarter-turn values make antipodal gap endpoints common.
_unit_values = st.one_of(
    st.sampled_from([1.0 + 0j, -1.0 + 0j, 1j, -1j]),
    st.floats(min_value=-np.pi, max_value=np.pi).map(lambda a: complex(np.exp(1j * a))),
)


@st.composite
def _partial_circle(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    shape = draw(st.sampled_from(["random", "single", "none", "boundary"]))
    if shape == "random":
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    elif shape == "single":
        mask = np.zeros(n, dtype=bool)
        mask[draw(st.integers(min_value=0, max_value=n - 1))] = True
    elif shape == "none":
        mask = np.zeros(n, dtype=bool)
    else:  # gaps touching both ends around a defined middle
        mask = np.zeros(n, dtype=bool)
        lo = draw(st.integers(min_value=0, max_value=n - 1))
        hi = draw(st.integers(min_value=lo, max_value=n - 1))
        mask[lo:hi + 1] = True
    vals = np.array(draw(st.lists(_unit_values, min_size=n, max_size=n)), dtype=np.complex128)
    pin_left = draw(st.one_of(st.none(), _unit_values))
    pin_right = draw(st.one_of(st.none(), _unit_values))
    return vals, mask, pin_left, pin_right


class TestCircleExtendEquivalence:
    @given(_partial_circle())
    @settings(max_examples=400, deadline=None)
    def test_matches_per_node_loop(self, case):
        vals, mask = _pin_ends(*case)
        expected = _circle_extend_reference(vals, mask)
        nan_marked = np.where(mask, vals, UNDEFINED)
        garbage = np.where(mask, vals, 5.0 - 3.0j)
        for out in (circle_extend(nan_marked), circle_extend(garbage, mask)):
            assert out.dtype == np.complex128
            assert np.array_equal(out.view(np.float64), expected.view(np.float64))

    @given(_partial_circle())
    @settings(max_examples=100, deadline=None)
    def test_inputs_untouched(self, case):
        vals, mask = _pin_ends(*case)
        partial = np.where(mask, vals, UNDEFINED)
        partial.setflags(write=False)
        frozen_mask = mask.copy()
        frozen_mask.setflags(write=False)
        circle_extend(partial, frozen_mask)

    def test_exact_antipodal_gap_is_counterclockwise(self):
        vals = np.array([1.0, 0.0, 0.0, 0.0, -1.0], dtype=complex)
        mask = np.array([True, False, False, False, True])
        out = circle_extend(vals, mask)
        assert np.array_equal(out, _circle_extend_reference(vals, mask))
        assert out[2].imag > 0.9

    def test_mask_shape_checked(self):
        with pytest.raises(ValueError):
            circle_extend(np.ones(4, dtype=complex), np.ones(3, dtype=bool))


class TestSublevelCover:
    def test_no_small_values(self):
        h = grid(np.ones(DOM.n))
        cover = sublevel_cover(h, 0.1, 0.2)
        assert cover.intervals == ()

    def test_single_dip(self):
        h = grid(np.abs(T - 0.5))
        cover = sublevel_cover(h, 0.1, 0.2)
        assert len(cover.intervals) == 1
        lo, hi = cover.intervals[0]
        # contains [0.4, 0.6], contained in (0.3, 0.7): direct scan oracle
        inner = np.flatnonzero(np.abs(T - 0.5) <= 0.1)
        outer = np.flatnonzero(np.abs(T - 0.5) < 0.2)
        assert lo <= inner[0] and hi >= inner[-1]
        assert lo >= outer[0] and hi <= outer[-1]

    def test_two_dips(self):
        h = grid(np.minimum(np.abs(T - 0.25), np.abs(T - 0.75)))
        cover = sublevel_cover(h, 0.05, 0.1)
        assert len(cover.intervals) == 2

    def test_inclusions_random(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            base = rand_smooth(rng)
            h = grid(np.abs(base.values))
            eta1 = 0.3
            eta2 = 0.9
            try:
                cover = sublevel_cover(h, eta1, eta2)
            except CoverInfeasible:
                continue
            covered = np.zeros(DOM.n, dtype=bool)
            for lo, hi in cover.intervals:
                covered[lo:hi + 1] = True
                assert np.all(h.values[lo:hi + 1].real < eta2)
            assert np.all(covered[h.values.real <= eta1])

    def test_infeasible_on_coarse_jump(self):
        # h drops to <= eta1 at one node with >= eta2 neighbours
        vals = np.ones(DOM.n)
        vals[100] = 0.05
        with pytest.raises(CoverInfeasible):
            sublevel_cover(grid(vals), 0.1, 0.2)

    def test_threshold_order_enforced(self):
        with pytest.raises(PreconditionViolated):
            sublevel_cover(grid(np.ones(DOM.n)), 0.2, 0.1)


class TestNondegPhases:
    def test_unit_pair_uses_phase_formula(self):
        h1 = grid(np.ones(DOM.n))
        h2 = grid(np.ones(DOM.n))
        b1, b2 = nondeg_phases(h1, h2, 1.0)
        assert np.all(b1.values == 1.0)
        assert np.max(np.abs(b2.values - 1j)) < 1e-12
        assert np.min(np.abs(h1.values + h2.values * b2.values)) >= np.sqrt(2) * (1 - 1e-12)

    def test_vanishing_second_factor(self):
        h1 = grid(np.ones(DOM.n))
        h2 = grid(np.zeros(DOM.n))
        b1, b2 = nondeg_phases(h1, h2, 0.9)
        assert np.max(np.abs(np.abs(b2.values) - 1.0)) < 1e-9
        assert np.min(np.abs(h1.values + h2.values * b2.values)) >= 0.9

    def test_random_pairs_meet_lower_bound(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            h1 = rand_smooth(rng)
            h2 = rand_smooth(rng)
            m = np.min(np.abs(h1.values) ** 2 + np.abs(h2.values) ** 2)
            if m <= 0:
                continue
            eta = 0.9 * np.sqrt(m)
            b1, b2 = nondeg_phases(h1, h2, eta)
            lower = np.abs(h1.values * b1.values + h2.values * b2.values)
            assert np.min(lower) >= eta * (1 - 1e-12)
            assert np.max(np.abs(np.abs(b2.values) - 1.0)) < 1e-9

    def test_degenerate_pair_rejected(self):
        h1 = grid((T - 0.5).astype(complex))
        h2 = grid(np.zeros(DOM.n))
        with pytest.raises(PreconditionViolated):
            nondeg_phases(h1, h2, 0.5)


class TestPerturbNondegenerate:
    def test_zero_perturbation(self):
        h1 = grid(np.ones(DOM.n))
        h2 = grid(np.ones(DOM.n))
        d = grid(np.zeros(DOM.n))
        z1, z2 = perturb_nondegenerate(h1, h2, d, 1.0, 1.0)
        assert np.all(z1.values == 0) and np.all(z2.values == 0)

    def test_scalar_case_against_quadratic_oracle(self):
        h1 = grid(np.ones(DOM.n))
        h2 = grid(np.ones(DOM.n))
        d = grid(np.full(DOM.n, 0.01))
        z1, z2 = perturb_nondegenerate(h1, h2, d, 1.0, 1.0)
        res = h1.values * z1.values + h2.values * z2.values + z1.values * z2.values - d.values
        assert np.max(np.abs(res)) < 1e-12
        # beta2 = i here, so z2 = i*z1 and phi solves (1+i)z + i z^2 = 0.01
        assert np.max(np.abs(z2.values - 1j * z1.values)) < 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(3)
        count = 0
        while count < 20:
            h1 = rand_smooth(rng)
            h2 = rand_smooth(rng)
            m = np.min(np.abs(h1.values) ** 2 + np.abs(h2.values) ** 2)
            if m <= 1e-4:
                continue
            count += 1
            eta = 0.9 * np.sqrt(m)
            eps = 0.5
            raw = rng.standard_normal(DOM.n) + 1j * rng.standard_normal(DOM.n)
            d = grid(raw / np.max(np.abs(raw)) * shift_budget(eta, eps))
            z1, z2 = perturb_nondegenerate(h1, h2, d, eta, eps)
            res = h1.values * z1.values + h2.values * z2.values + z1.values * z2.values - d.values
            assert np.max(np.abs(res)) <= 1e-9 * (1 + sup_norm(d))
            assert sup_norm(z1) <= eps and sup_norm(z2) <= eps


def boundary_split(rng, psi0, eps):
    """Random (za, wa) with za*wa = psi0 and both moduli <= eps."""
    if psi0 == 0:
        return 0j, 0j
    lo = abs(psi0) / eps
    r = rng.uniform(lo, eps)
    phase = rng.uniform(0, 2 * np.pi)
    za = r * np.exp(1j * phase)
    return za, psi0 / za


class TestFactorHalfboundary:
    def test_zero_target_with_ramp(self):
        dom = IntervalDomain(0.0, 1.0, 33)
        psi = GridFunction.constant(dom, 0.0)
        z1, z2 = factor_halfboundary(psi, 1.0, 0.3, 0.0, 0.0, side="left")
        assert z1.values[0] == 0.3 and z1.values[-1] == 0.0
        assert np.all(z2.values == 0.0)
        mods = np.abs(z1.values)
        assert np.max(np.abs(mods - np.linspace(0.3, 0.0, 33))) < 1e-12

    def test_constant_solution(self):
        dom = IntervalDomain(0.0, 1.0, 33)
        eps = 0.4
        psi = GridFunction.constant(dom, eps * eps)
        z1, z2 = factor_halfboundary(psi, eps, eps, eps, eps, side="left")
        assert np.max(np.abs(z1.values - eps)) < 1e-12
        assert np.max(np.abs(z2.values - eps)) < 1e-12

    def test_quotient_continuity_at_zero(self):
        dom = IntervalDomain(0.0, 1.0, 129)
        t = dom.nodes()
        eps = 0.5
        psi = GridFunction(dom, (eps * eps * t).astype(complex))
        z1, z2 = factor_halfboundary(psi, eps, eps, 0.0, eps, side="left")
        assert z1.values[0] == eps and z2.values[0] == 0.0
        assert z1.values[-1] == eps
        prod = z1.values * z2.values - psi.values
        assert np.max(np.abs(prod)) <= 1e-9 * (1 + eps * eps)
        assert np.max(np.abs(z2.values)) <= np.sqrt(np.max(np.abs(psi.values))) * (1 + 1e-9)

    def test_budget_and_boundary_checks(self):
        dom = IntervalDomain(0.0, 1.0, 17)
        psi = GridFunction.constant(dom, 1.0)
        with pytest.raises(NormBudgetExceeded):
            factor_halfboundary(psi, 0.5, 0.5, 0.5, 1.0, side="left")
        psi2 = GridFunction.constant(dom, 0.01)
        with pytest.raises(BoundaryMismatch):
            factor_halfboundary(psi2, 0.5, 0.3, 0.3, 0.1, side="left")

    def test_random_instances_both_sides(self):
        rng = np.random.default_rng(4)
        dom = IntervalDomain(0.0, 1.0, 65)
        for side in ("left", "right"):
            for _ in range(25):
                eps = rng.uniform(0.2, 0.9)
                base = rand_smooth(rng, dom)
                psi = GridFunction(dom, base.values / sup_norm(base) * eps * eps * rng.uniform(0.2, 1.0))
                end = 0 if side == "left" else -1
                far = -1 if side == "left" else 0
                za, wa = boundary_split(rng, complex(psi.values[end]), eps)
                zhat = complex(np.sqrt(psi.values[far]))
                z1, z2 = factor_halfboundary(psi, eps, za, wa, zhat, side=side)
                assert z1.values[end] == za and z2.values[end] == wa
                assert z1.values[far] == zhat and z2.values[far] == zhat
                res = np.abs(z1.values * z2.values - psi.values)
                assert np.max(res) <= 1e-9 * (1 + sup_norm(psi))
                assert sup_norm(z1) <= eps * (1 + 1e-9)
                assert sup_norm(z2) <= eps * (1 + 1e-9)

    @pytest.mark.parametrize("side", ["left", "right"])
    def test_subnormal_modulus_ramp(self, side):
        # the larger factor's modulus ramps from |za| = 1.5e-323, so psi is
        # divided by a subnormal, where numpy's complex division overflows
        psi = GridFunction.constant(IntervalDomain(0.0, 1.0, 13), 0.0)
        z1, z2 = factor_halfboundary(psi, 0.5, 1.5e-323, 0j, 0j, side=side)
        assert np.array_equal(z1.values * z2.values, psi.values)


class TestFactorInterval:
    def test_zero_everything(self):
        dom = IntervalDomain(0.0, 1.0, 33)
        psi = GridFunction.constant(dom, 0.0)
        z1, z2 = factor_interval(psi, 1.0, 0.0, 0.0, 0.0, 0.0)
        assert np.all(z1.values == 0) and np.all(z2.values == 0)

    def test_constant_solution(self):
        dom = IntervalDomain(0.0, 1.0, 33)
        eps = 0.3
        psi = GridFunction.constant(dom, eps * eps)
        z1, z2 = factor_interval(psi, eps, eps, eps, eps, eps)
        assert np.max(np.abs(z1.values * z2.values - eps * eps)) < 1e-12
        assert sup_norm(z1) <= eps * (1 + 1e-9) and sup_norm(z2) <= eps * (1 + 1e-9)

    def test_rotating_target(self):
        dom = IntervalDomain(0.0, 1.0, 257)
        t = dom.nodes()
        eps = 0.5
        psi = GridFunction(dom, eps * eps * np.exp(2j * np.pi * t))
        za = eps * np.exp(0.3j)
        wa = complex(psi.values[0]) / za
        zb = eps * np.exp(-0.2j)
        wb = complex(psi.values[-1]) / zb
        z1, z2 = factor_interval(psi, eps, za, wa, zb, wb)
        assert z1.values[0] == za and z2.values[0] == wa
        assert z1.values[-1] == zb and z2.values[-1] == wb
        res = np.abs(z1.values * z2.values - psi.values)
        assert np.max(res) <= 1e-9 * (1 + eps * eps)
        assert sup_norm(z1) <= eps * (1 + 1e-9) and sup_norm(z2) <= eps * (1 + 1e-9)

    def test_two_node_interval(self):
        dom = IntervalDomain(0.0, 1.0, 2)
        psi = GridFunction(dom, np.array([0.04, 0.01], dtype=complex))
        z1, z2 = factor_interval(psi, 0.3, 0.2, 0.2, 0.1, 0.1)
        assert np.array_equal(z1.values, np.array([0.2, 0.1], dtype=complex))
        assert np.array_equal(z2.values, np.array([0.2, 0.1], dtype=complex))

    def test_subnormal_modulus_ramp(self):
        # as TestFactorHalfboundary.test_subnormal_modulus_ramp, on both halves
        psi = GridFunction.constant(IntervalDomain(0.0, 1.0, 13), 0.0)
        z1, z2 = factor_interval(psi, 0.5, 1.5e-323, 0j, 0j, 0j)
        assert np.array_equal(z1.values * z2.values, psi.values)


class TestRootPair:
    def test_zero(self):
        assert root_pair(0j) == (0j, 0j)
        assert root_pair(np.complex128(0)) == (0j, 0j)

    @given(st.complex_numbers(min_magnitude=1e-100, max_magnitude=1e100, allow_nan=False, allow_infinity=False))
    @settings(max_examples=100)
    def test_pair_multiplies_back(self, psi):
        for scalar in (psi, np.complex128(psi)):
            z, w = root_pair(scalar)
            assert type(z) is complex and type(w) is type(scalar)
            assert z == complex(np.sqrt(scalar)) and w == scalar / z
            assert abs(z * w - psi) <= 1e-15 * abs(psi)


class TestDelta0:
    def test_stated_value(self):
        assert delta0(0.7) == pytest.approx(0.7**2 / 245)
        assert delta0(0.7) == pytest.approx(0.002)

    def test_quadratic_scaling(self):
        assert delta0(0.4) / delta0(0.2) == pytest.approx(4.0)

    def test_small_epsilon(self):
        assert delta0(0.07) == pytest.approx(2e-5)

    def test_range_enforced(self):
        with pytest.raises(PreconditionViolated):
            delta0(1.5)

    @pytest.mark.parametrize("eps0", [5e-324, 1.5e-323])
    def test_underflowing_eps0_refused_by_name(self, eps0):
        with pytest.raises(PreconditionViolated) as exc:
            delta0(eps0)
        assert "eps0" in exc.value.bound and "underflow" in exc.value.bound
        assert exc.value.value == eps0 and exc.value.limit == 2e-323
        assert delta0(2e-323) == 0.0  # the smallest eps0 whose eps0/7 is nonzero


class TestOpenMultInterval:
    def test_zero_perturbation_returns_zero(self):
        f = grid(np.exp(2j * np.pi * T))
        g = grid(np.ones(DOM.n))
        d = grid(np.zeros(DOM.n))
        res = open_mult_interval(f, g, d, 0.7)
        assert res.residual == 0.0
        assert np.all(res.d1.values == 0) and np.all(res.d2.values == 0)

    def test_nondegenerate_pair_single_branch(self):
        rng = np.random.default_rng(5)
        f = grid(np.exp(2j * np.pi * T))
        g = grid(np.ones(DOM.n))
        raw = rng.standard_normal(DOM.n) + 1j * rng.standard_normal(DOM.n)
        d = grid(raw / np.max(np.abs(raw)) * delta0(0.7))
        res = open_mult_interval(f, g, d, 0.7)
        assert res.meta["cover"] == []
        scale = 1 + sup_norm(f * g + d)
        assert res.residual <= 1e-9 * scale
        assert res.bound1 <= 0.7 and res.bound2 <= 0.7

    def test_joint_zero_mixed_branches(self):
        rng = np.random.default_rng(6)
        f = grid((T - 0.5).astype(complex))
        g = grid((T - 0.5).astype(complex))
        raw = rng.standard_normal(DOM.n) + 1j * rng.standard_normal(DOM.n)
        d = grid(raw / np.max(np.abs(raw)) * delta0(0.7))
        res = open_mult_interval(f, g, d, 0.7)
        assert len(res.meta["cover"]) == 1
        scale = 1 + sup_norm(f * g + d)
        assert res.residual <= 1e-9 * scale
        assert res.bound1 <= 0.7 and res.bound2 <= 0.7

    def test_perturbation_gate(self):
        f = grid(np.ones(DOM.n))
        g = grid(np.ones(DOM.n))
        d = grid(np.full(DOM.n, 2 * delta0(0.7)))
        with pytest.raises(PerturbationTooLarge):
            open_mult_interval(f, g, d, 0.7)

    def test_radius_refused_before_cover(self):
        # the cover cannot be placed (h jumps from 0 to 2 between nodes), and
        # d is past delta0: the radius refusal comes first
        step = grid((T > 0.5).astype(complex))
        d = grid(np.full(DOM.n, 2 * delta0(0.7)))
        with pytest.raises(CoverInfeasible):
            open_mult_interval(step, step, d * 0.25, 0.7)
        with pytest.raises(PerturbationTooLarge):
            open_mult_interval(step, step, d, 0.7)

    def test_seam_values_assigned_once(self):
        # the identity holds exactly at seams because values are written once
        rng = np.random.default_rng(7)
        f = grid((T - 0.5).astype(complex))
        g = grid(1j * (T - 0.5).astype(complex))
        raw = rng.standard_normal(DOM.n) + 1j * rng.standard_normal(DOM.n)
        d = grid(raw / np.max(np.abs(raw)) * delta0(0.7))
        res = open_mult_interval(f, g, d, 0.7)
        (lo, hi), = res.meta["cover"]
        target = f.values * g.values + d.values
        for seam in (lo, hi):
            got = (f.values[seam] + res.d1.values[seam]) * (g.values[seam] + res.d2.values[seam])
            assert abs(got - target[seam]) <= 1e-12 * (1 + abs(target[seam]))

    def test_uniform_radius_across_families(self):
        # one constant works for every pair: no per-instance tuning
        rng = np.random.default_rng(8)
        eps0 = 0.35
        r = delta0(eps0)
        pairs = [
            (grid(np.exp(2j * np.pi * T)), grid(np.exp(-2j * np.pi * T))),
            (grid((T - 0.3).astype(complex)), grid((T - 0.3).astype(complex) * 2j)),
            (grid(np.cos(2 * np.pi * T) + 0j), grid(np.sin(2 * np.pi * T) + 0j)),
        ]
        for f, g in pairs:
            raw = rng.standard_normal(DOM.n) + 1j * rng.standard_normal(DOM.n)
            d = grid(raw / np.max(np.abs(raw)) * r)
            res = open_mult_interval(f, g, d, eps0)
            assert res.residual <= 1e-9 * (1 + sup_norm(f * g + d))
            assert max(res.bound1, res.bound2) <= eps0

    def test_non_unit_domain(self):
        dom = IntervalDomain(-2.0, 5.0, 513)
        t = dom.nodes()
        f = GridFunction(dom, (t - 1.0).astype(complex) * 0.3)
        g = GridFunction(dom, (t - 1.0) * (0.2 + 0.1j))
        rng = np.random.default_rng(11)
        raw = rng.standard_normal(dom.n) + 1j * rng.standard_normal(dom.n)
        d = GridFunction(dom, raw * (delta0(0.5) / np.max(np.abs(raw))))
        res = open_mult_interval(f, g, d, 0.5)
        assert res.residual <= 1e-9 * (1 + sup_norm(f * g + d))
        assert max(res.bound1, res.bound2) <= 0.5

    def test_tiny_grids(self):
        for n in (2, 3, 5):
            dom = IntervalDomain(0.0, 1.0, n)
            f = GridFunction.constant(dom, 1.0)
            g = GridFunction.constant(dom, 1.0)
            d = GridFunction(dom, np.full(n, delta0(0.9), dtype=complex))
            res = open_mult_interval(f, g, d, 0.9)
            assert res.residual <= 1e-9 * (1 + sup_norm(f * g + d))

    def test_infeasible_resolution_fixed_by_refinement(self):
        # steep joint zero at a target bound the 1025-grid cannot resolve
        eps0 = 1e-3
        rng = np.random.default_rng(12)
        raws = {}
        for n in (1025, 16385):
            dom = IntervalDomain(0.0, 1.0, n)
            t = dom.nodes()
            f = GridFunction(dom, (t - 0.5).astype(complex))
            g = GridFunction(dom, (t - 0.5).astype(complex))
            raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            d = GridFunction(dom, raw * (delta0(eps0) / np.max(np.abs(raw))))
            raws[n] = (f, g, d)
        with pytest.raises(CoverInfeasible):
            open_mult_interval(*raws[1025], eps0)
        res = open_mult_interval(*raws[16385], eps0)
        assert max(res.bound1, res.bound2) <= eps0

    def test_monotone_refinement(self):
        rng = np.random.default_rng(9)
        eps0 = 0.07
        f = grid(2.0 * (T - 0.4).astype(complex))
        g = grid((T - 0.4) * (1 + 1j))
        raw = rng.standard_normal(DOM.n) + 1j * rng.standard_normal(DOM.n)
        d = grid(raw / np.max(np.abs(raw)) * delta0(eps0))
        res = open_mult_interval(f, g, d, eps0)
        assert res.residual <= 1e-9 * (1 + sup_norm(f * g + d))
        f2, g2, d2 = refine(f, 2), refine(g, 2), refine(d, 2)
        res2 = open_mult_interval(f2, g2, d2, eps0)  # must not raise CoverInfeasible
        assert res2.residual <= 1e-9 * (1 + sup_norm(f2 * g2 + d2))


# ---------------------------------------------------------------------------
# Endpoint pins: each malformed or ill-rotated pin ends in a named refusal.


def _solve_pinned(fv, gv, dv, eps0, left=None, right=None):
    """The pipeline on one interval with its end pins as one PinTable row."""
    return solve_intervals(plan_intervals(fv, gv, eps0, (0, fv.size), PinTable.of(((left, right),))), dv)


def _pinned_pair(n=65):
    t = IntervalDomain(0.0, 1.0, n).nodes()
    fv = 0.6 * np.exp(1j * t)
    gv = np.full(n, 0.6j)
    return fv, gv, np.full(n, 1e-4 + 0j)


class TestEndpointPinRefusals:
    def test_non_unimodular_beta2(self):
        fv, gv, dv = _pinned_pair()
        with pytest.raises(NonUnimodularInput, match="^pinned boundary value must be unimodular$") as exc:
            pin = EndpointPin(kind="nondeg", d1=0j, d2=0j, beta2=1.5j)
            _solve_pinned(fv, gv, dv, 0.7, left=pin)
        assert exc.value.exit_code == 2

    def test_beta2_cancelling_the_pair(self):
        # f + beta2*g = 0.6 + 1j*0.6j = 0 at the pinned node
        fv, gv, dv = _pinned_pair()
        pin = EndpointPin(kind="nondeg", d1=0j, d2=0j, beta2=1j)
        with pytest.raises(PreconditionViolated) as exc:
            _solve_pinned(fv, gv, dv, 0.7, left=pin)
        assert exc.value.bound == "|f + beta2*g| >= epsilon1"
        assert exc.value.value == 0.0 and exc.value.limit == 0.7 / 7.0
        assert exc.value.exit_code == 2

    def test_unknown_kind(self):
        fv, gv, dv = _pinned_pair()
        with pytest.raises(PreconditionViolated) as exc:
            pin = EndpointPin(kind="nondegenerate", d1=0j, d2=0j, beta2=1.0)
            _solve_pinned(fv, gv, dv, 0.7, right=pin)
        assert exc.value.bound == "kind in ('cover', 'nondeg')"
        assert exc.value.value == "nondegenerate"
        assert exc.value.exit_code == 2

    def test_nondeg_pin_without_beta2(self):
        fv, gv, dv = _pinned_pair()
        with pytest.raises(PreconditionViolated) as exc:
            pin = EndpointPin(kind="nondeg", d1=0j, d2=0j)
            _solve_pinned(fv, gv, dv, 0.7, right=pin)
        assert exc.value.bound == "beta2 given for kind 'nondeg'"
        assert exc.value.exit_code == 2

    def test_cover_pin_without_boundary_pair(self):
        # the left end is jointly degenerate, so a cover run takes the pin
        t = IntervalDomain(0.0, 1.0, 65).nodes()
        fv = t * (1.0 + 0.5j)
        with pytest.raises(PreconditionViolated) as exc:
            pin = EndpointPin(kind="cover", d1=0j, d2=0j)
            _solve_pinned(fv, 0.5j * fv, np.full(65, 1e-4 + 0j), 0.7, left=pin)
        assert exc.value.bound == "za, wa given for kind 'cover'"
        assert exc.value.exit_code == 2


def test_rough_pairs_plan_or_refuse_a_seam():
    # Without pins, the only refusal a plan meets is the cover's: every node
    # of a complement segment has h > eta1, so the phase step cannot refuse.
    rng = np.random.default_rng(2301)
    seams = plans = 0
    for _ in range(3000):
        n = int(rng.integers(2, 201))
        scale = 10.0 ** rng.uniform(-3.0, 0.0)
        eps0 = float(rng.choice([0.7, 0.35, 0.07]))
        fv, gv = (scale * (rng.standard_normal(n) + 1j * rng.standard_normal(n)) for _ in range(2))
        try:
            plan_interval(fv, gv, eps0)
        except CoverInfeasible:
            seams += 1
        else:
            plans += 1
    assert seams and plans
