import cmath

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmult import EqualModulusRoots, QuadraticTriple, has_distinct_moduli, roots, smaller_root
from openmult.quadratic import roots_vec, smaller_root_vec

finite_complex = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
phases = st.floats(min_value=-np.pi, max_value=np.pi)


def unimodular(phi):
    return cmath.exp(1j * phi)


class TestRoots:
    def test_factored_polynomial(self):
        big, small = roots(QuadraticTriple(2.0, -3.0, 1.0))
        assert small == pytest.approx(1.0)
        assert big == pytest.approx(2.0)

    def test_zero_root(self):
        big, small = roots(QuadraticTriple(0.0, 5.0 - 1j, 1.0))
        assert small == 0.0
        assert big == pytest.approx(-(5.0 - 1j))

    def test_degenerate_double_zero(self):
        big, small = roots(QuadraticTriple(0.0, 0.0, 1.0))
        assert big == 0.0 and small == 0.0

    @given(finite_complex, finite_complex, phases)
    @settings(max_examples=200)
    def test_vieta_residuals(self, alpha, beta, phi):
        gamma = unimodular(phi)
        t = QuadraticTriple(alpha, beta, gamma)
        z_big, z_small = roots(t)
        tol = 1e-10 * (1.0 + abs(beta) + abs(alpha))
        assert abs(gamma * (z_big + z_small) + beta) <= tol
        assert abs(gamma * z_big * z_small - alpha) <= tol

    @pytest.mark.parametrize("alpha, beta", [(0j, 2.2250738585e-313 + 0j), (0j, -3e-310 + 1e-312j), (0j, 1e-315j)])
    def test_subnormal_linear_coefficient(self, alpha, beta):
        # q = -beta/2 is subnormal: numpy's complex division alone overflows
        # 1/q and gives nan for alpha/q
        big, small = roots(QuadraticTriple(alpha, beta, 1.0))
        assert np.isfinite([big, small]).all()
        tol = 1e-10 * (1.0 + abs(beta) + abs(alpha))
        assert abs(big + small + beta) <= tol
        assert abs(big * small - alpha) <= tol

    def test_unimodular_leading_coefficient_required(self):
        with pytest.raises(ValueError):
            QuadraticTriple(1.0, 1.0, 2.0)


class TestDistinctModuli:
    def test_split_case(self):
        assert has_distinct_moduli(QuadraticTriple(2.0, -3.0, 1.0))

    def test_tied_case(self):
        # roots +-i have equal modulus
        assert not has_distinct_moduli(QuadraticTriple(1.0, 0.0, 1.0))

    def test_small_constant_term(self):
        # oracle (numpy.roots): z^2 + z + 0.01 has moduli ~0.0101 and ~0.9899
        t = QuadraticTriple(0.01, 1.0, 1.0)
        ref = sorted(np.roots([1.0, 1.0, 0.01]), key=abs)
        assert has_distinct_moduli(t)
        assert abs(ref[1]) - abs(ref[0]) > 0.9


class TestSmallerRoot:
    def test_factored_polynomial(self):
        assert smaller_root(QuadraticTriple(2.0, -3.0, 1.0)) == pytest.approx(1.0)

    def test_zero_constant_term(self):
        assert smaller_root(QuadraticTriple(0.0, 1.0, 1.0)) == 0.0

    def test_frozen_small_root(self):
        # frozen from the numpy.roots oracle for z^2 + z + 0.01
        z = smaller_root(QuadraticTriple(0.01, 1.0, 1.0))
        assert z == pytest.approx(-0.010102051443364379, rel=1e-12)

    def test_tie_raises(self):
        with pytest.raises(EqualModulusRoots):
            smaller_root(QuadraticTriple(1.0, 0.0, 1.0))

    @given(
        st.floats(min_value=0.05, max_value=2.0),   # eta
        st.floats(min_value=0.05, max_value=1.0),   # eps
        st.floats(min_value=0.0, max_value=1.0),    # alpha scale within budget
        st.floats(min_value=1.0, max_value=4.0),    # beta scale above eta
        phases, phases, phases,
    )
    @settings(max_examples=200)
    def test_tracking_bound_chain(self, eta, eps, s_alpha, s_beta, pa, pb, pg):
        # admissible regime: |beta| >= eta, |alpha| <= delta with
        # 2*delta/eta <= eps and 2*delta/eta < eta/2
        delta = min(eps * eta / 2.0, eta * eta / 5.0)
        alpha = s_alpha * delta * unimodular(pa)
        beta = s_beta * eta * unimodular(pb)
        gamma = unimodular(pg)
        t = QuadraticTriple(alpha, beta, gamma)
        assert has_distinct_moduli(t)
        z = smaller_root(t)
        assert abs(z) <= eps * (1 + 1e-9)
        assert abs(z) <= 2.0 * abs(alpha) / abs(beta) * (1 + 1e-9) + 1e-300

    @given(st.floats(min_value=0.2, max_value=2.0), phases, phases, phases)
    @settings(max_examples=50)
    def test_continuity_under_halving_perturbations(self, eta, pa, pb, pg):
        # first-order continuity: shrinking the input perturbation by half
        # shrinks the output move proportionally
        alpha = 0.05 * eta * eta * unimodular(pa)
        beta = eta * unimodular(pb)
        gamma = unimodular(pg)
        base = smaller_root(QuadraticTriple(alpha, beta, gamma))
        moves = []
        for h in (1e-3, 5e-4, 2.5e-4):
            shifted = smaller_root(
                QuadraticTriple(alpha + h * eta * eta, beta + h * eta, gamma)
            )
            moves.append(abs(shifted - base))
        assert moves[0] > moves[1] > moves[2] > 0 or moves[0] < 1e-12
        if moves[2] > 1e-14:
            assert moves[0] / moves[2] == pytest.approx(4.0, rel=0.5)


def _plain_roots(alpha, beta, gamma):
    """The quadratic formula written out once, with fresh temporaries."""
    alpha = np.asarray(alpha, dtype=np.complex128)
    beta = np.asarray(beta, dtype=np.complex128)
    gamma = np.asarray(gamma, dtype=np.complex128)
    disc = beta * beta - 4.0 * gamma * alpha
    s = np.sqrt(disc)
    plus = beta + s
    minus = beta - s
    w = np.where(np.abs(plus) >= np.abs(minus), plus, minus)
    q = -w / 2.0
    big = q / gamma
    with np.errstate(over="ignore", invalid="ignore"):
        small = np.divide(alpha, q, out=np.zeros_like(q), where=q != 0)
    # Where q is so small (about 1e-308) that numpy's complex division
    # overflows 1/q, alpha over q scaled by 2**600, then scaled back.
    tiny = ~np.isfinite(small)
    small[tiny] = alpha[tiny] / (q[tiny] * 2.0**600) * 2.0**600
    return big, small


def _bits(x):
    return np.atleast_1d(np.asarray(x, dtype=np.complex128)).view(np.float64)


class TestVectorisedRoots:
    @given(
        st.lists(st.tuples(finite_complex, finite_complex, phases), min_size=1, max_size=50)
    )
    @settings(max_examples=200)
    def test_arrays_match_plain_formula(self, triples):
        alpha = np.array([t[0] for t in triples], dtype=complex)
        beta = np.array([t[1] for t in triples], dtype=complex)
        gamma = np.exp(1j * np.array([t[2] for t in triples]))
        big, small = roots_vec(alpha, beta, gamma)
        ref_big, ref_small = _plain_roots(alpha, beta, gamma)
        assert big.shape == small.shape == alpha.shape
        assert np.array_equal(_bits(big), _bits(ref_big))
        assert np.array_equal(_bits(small), _bits(ref_small))

    @given(finite_complex, finite_complex, phases)
    @settings(max_examples=200)
    def test_scalars_match_arrays_and_plain_formula(self, alpha, beta, phi):
        gamma = unimodular(phi)
        big, small = roots_vec(alpha, beta, gamma)
        assert np.ndim(big) == 0 and np.ndim(small) == 0
        big1, small1 = roots_vec([alpha], [beta], [gamma])
        assert np.array_equal(_bits(big), _bits(big1[0]))
        assert np.array_equal(_bits(small), _bits(small1[0]))
        ref_big, ref_small = _plain_roots(alpha, beta, gamma)
        assert np.array_equal(_bits(big), _bits(ref_big))
        assert np.array_equal(_bits(small), _bits(ref_small))

    def test_broadcasts_scalar_coefficients(self):
        alpha = np.array([0.01, -0.02j, 0.0])
        big, small = roots_vec(alpha, 1.0, 1j)
        ref_big, ref_small = _plain_roots(alpha, 1.0, 1j)
        assert big.shape == (3,)
        assert np.array_equal(_bits(big), _bits(ref_big))
        assert np.array_equal(_bits(small), _bits(ref_small))

    def test_scalar_smaller_root(self):
        z = smaller_root_vec(-0.001, 1.0 + 0.5j, 1j)
        assert np.ndim(z) == 0
        assert complex(z) == smaller_root(QuadraticTriple(-0.001, 1.0 + 0.5j, 1j))

    def test_inputs_not_mutated(self):
        rng = np.random.default_rng(3)
        arrays = [
            1e-3 * (rng.standard_normal(64) + 1j * rng.standard_normal(64)),
            2.0 + rng.standard_normal(64) + 1j * rng.standard_normal(64),
            np.exp(1j * rng.standard_normal(64)),
        ]
        before = [a.copy() for a in arrays]
        for a in arrays:
            a.setflags(write=False)
        roots_vec(*arrays)
        smaller_root_vec(*arrays)
        for a, b in zip(arrays, before):
            assert np.array_equal(_bits(a), _bits(b))

    def test_tie_reports_first_index(self):
        alpha = np.full(10, 1e-3, dtype=complex)
        beta = np.full(10, 2.0, dtype=complex)
        gamma = np.ones(10, dtype=complex)
        # z**2 + 1 has roots +-i: equal moduli at indices 3 and 7
        alpha[[3, 7]] = 1.0
        beta[[3, 7]] = 0.0
        with pytest.raises(EqualModulusRoots, match="index 3"):
            smaller_root_vec(alpha, beta, gamma)
