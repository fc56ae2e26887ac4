import cmath
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmult import EqualModulusRoots, QuadraticTriple, has_distinct_moduli, roots, smaller_root
from openmult.quadratic import TIE_TOL, _untied, quotient, roots_vec, smaller_root_vec

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
        z, ties = smaller_root_vec(-0.001, 1.0 + 0.5j, 1j)
        assert np.ndim(z) == 0 and ties.size == 0
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
        assert smaller_root_vec(alpha, beta, gamma)[1].tolist() == [3, 7]
        with pytest.raises(EqualModulusRoots, match="index 3"):
            _untied(*smaller_root_vec(alpha, beta, gamma))


# Coefficients over the whole double range: zero, moduli from 1e-320
# (subnormal) to 1e308, and the moderate ones above.
wide_complex = st.one_of(
    st.just(0j),
    st.builds(lambda e, phi: 10.0**e * cmath.exp(1j * phi), st.floats(-320.0, 308.0), phases),
    finite_complex,
)


def _near_tie(e, k, p1, p2, eg, pg):
    """(alpha, beta, gamma) with roots r1 and r2, |r2|/|r1| = 1 + k*1e-12."""
    gamma = 10.0**eg * cmath.exp(1j * pg)
    r1 = 10.0**e * cmath.exp(1j * p1)
    r2 = r1 * (1.0 + k * 1e-12) * cmath.exp(1j * p2)
    return gamma * r1 * r2, -gamma * (r1 + r2), gamma


near_tie = st.builds(
    _near_tie, st.floats(-150.0, 150.0), st.floats(-3.0, 3.0), phases, phases, st.floats(-100.0, 100.0), phases
)


def _selected(x):
    return np.shape(x), np.atleast_1d(x).view(np.int64).tobytes()


def _ties_by_formula(alpha, beta, gamma):
    """The smaller root and the tie test on every node, as the quadratic
    formula defines them."""
    big, small = roots_vec(alpha, beta, gamma)
    abs_big, abs_small = np.abs(big), np.abs(small)
    return small, abs_big - abs_small <= TIE_TOL * (abs_big + 1.0 + abs_small)


def _selection_by_formula(alpha, beta, gamma):
    """The selection as the quadratic formula and the tie test define it, on
    every node: ("tie", first flat index) or ("root", shape and bits)."""
    small, bad = _ties_by_formula(alpha, beta, gamma)
    if bad.any():
        return "tie", int(np.argmax(bad))
    return "root", _selected(small)


def _tied_nodes(alpha, beta, gamma):
    """The flat indices of the tied nodes that smaller_root_vec returns, in order."""
    ties = smaller_root_vec(alpha, beta, gamma)[1]
    assert ties.dtype == np.intp and ties.ndim == 1
    return ties.tolist()


def _selection(alpha, beta, gamma):
    """What a selection that refuses a tie gives: ("tie", the refusal's
    index) or ("root", shape and bits)."""
    try:
        small = _untied(*smaller_root_vec(alpha, beta, gamma))
    except EqualModulusRoots as exc:
        return "tie", exc.index
    return "root", _selected(small)


def _tie_boundary():
    """|big| = t, |small| = 0 with t == TIE_TOL*(t + 1 + 0): the largest
    root modulus that still ties with a zero root."""
    t = TIE_TOL
    for _ in range(4):
        t = (t + 1.0) * TIE_TOL
    return t


class TestTieCheck:
    @given(st.lists(st.one_of(st.tuples(wide_complex, wide_complex, wide_complex), near_tie), min_size=1, max_size=24),
           st.booleans())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_formula(self, triples, as_matrix):
        alpha, beta, gamma = (np.array(column, dtype=np.complex128) for column in zip(*triples))
        if as_matrix and alpha.size % 2 == 0:
            alpha, beta, gamma = (x.reshape(2, -1) for x in (alpha, beta, gamma))
        with np.errstate(all="ignore"):  # a zero gamma divides by zero in both
            assert _selection(alpha, beta, gamma) == _selection_by_formula(alpha, beta, gamma)
            assert _tied_nodes(alpha, beta, gamma) == np.flatnonzero(_ties_by_formula(alpha, beta, gamma)[1]).tolist()

    @pytest.mark.parametrize("alpha, beta, gamma", [
        (0.0, -_tie_boundary(), 1.0),  # exactly at the boundary: ties
        (0.0, -np.nextafter(_tie_boundary(), 1.0), 1.0),  # one ulp above it: does not
        ([0.0, 0.01, 1.0, 0.0], [1.0, 1.0, 1.0, 0.0], [1.0, 0.0, 0.0, 1.0]),  # alpha = 0, gamma = 0
        (0.0, 0.0, 0.0),
        # |q| near 1e154, where beta**2 still fits; past it q and big overflow
        ([1.0, 1.0, 1.0], [-1.3e154, -1.3e154j, -1e155], [1.0, 1j, 1.0]),
        ([1.0, 1.0], [-1e50, -1e50], [1e-250, 1e-270]),  # |q/gamma| near 1e300, then past 1e308
        ([0.0, 0.0], [-2e-315, -2e-300], [5e-320, 1e-304]),  # numpy's q/gamma overflows 1/gamma, then not
        (1e-300, 1.7e308j, 1j),
        ([1e-320, 0.0, 1e-318], [1.0, 3e-310, 2e-309 - 1e-310j], [1.0, 1.0, -1j]),  # subnormal roots
        (0.01, 1.0, 1j),  # 0-d
        (1.0, 0.0, 1.0),  # 0-d, ties
        ([[0.01, 0.02j, 1e-3], [0.0, 1.0, 1.0]], [[1.0, 2.0, 1j], [1.0, 0.0, 0.0]], 1.0),  # 2-d, ties at 4
        ([[0.01, 0.02j], [1e-5, 3e-3]], [[1.0, 2.0], [1j, 1.0 - 1j]], [[1.0, 1j], [-1.0, 1.0]]),  # 2-d
        (1.0, 0.0, 1j),  # 0-d, roots of one modulus, rotated: ties
        (0.0, 0.0, -1j),  # 0-d, a double zero root: ties
        (1e-320, 1.0, -1j),  # 0-d, a subnormal root
        (4.0, -5.0, 1.0),  # 0-d, roots 1 and 4
    ])
    def test_edge_cases_match_the_formula(self, alpha, beta, gamma):
        with np.errstate(all="ignore"):
            assert _selection(alpha, beta, gamma) == _selection_by_formula(alpha, beta, gamma)
            tied = _tied_nodes(alpha, beta, gamma)
            assert tied == np.flatnonzero(_ties_by_formula(alpha, beta, gamma)[1]).tolist()
            if np.ndim(alpha) == np.ndim(beta) == np.ndim(gamma) == 0 and abs(gamma) == 1.0:
                # the scalar views against the returned tie list
                t = QuadraticTriple(alpha, beta, gamma)
                assert has_distinct_moduli(t) == (tied == [])
                if tied:
                    with pytest.raises(EqualModulusRoots, match="^root moduli tie at index 0$") as exc:
                        smaller_root(t)
                    assert exc.value.index == 0
                else:
                    small = smaller_root_vec(alpha, beta, gamma)[0]
                    assert _selected(np.complex128(smaller_root(t))) == _selected(small)

    def test_boundary_examples_fall_on_either_side(self):
        t = _tie_boundary()
        assert t == (t + 1.0) * TIE_TOL
        assert _selection(0.0, -t, 1.0) == ("tie", 0)
        assert _selection(0.0, -np.nextafter(t, 1.0), 1.0)[0] == "root"

    def test_names_every_tied_node(self):
        # z**2 + 1 (roots +-i) at flat nodes 1, 4 and 5 of a 2-by-3 grid, a
        # split pair everywhere else: all three are named, in order.
        alpha = np.full((2, 3), 1e-3, dtype=complex)
        beta = np.full((2, 3), 2.0, dtype=complex)
        alpha.flat[[1, 4, 5]], beta.flat[[1, 4, 5]] = 1.0, 0.0
        assert smaller_root_vec(alpha, beta, 1.0)[1].tolist() == [1, 4, 5]
        with pytest.raises(EqualModulusRoots, match="index 1$") as exc:
            _untied(*smaller_root_vec(alpha, beta, 1.0))
        assert exc.value.index == 1
        assert _tied_nodes(alpha, beta, 1.0) == np.flatnonzero(_ties_by_formula(alpha, beta, 1.0)[1]).tolist()


def _masked_quotient(num, den):
    out = np.zeros(den.shape, dtype=np.complex128)
    with np.errstate(all="ignore"):  # a subnormal den overflows numpy's reciprocal
        return np.divide(num, den, out=out, where=den != 0)


def _wide(rng, exponents):
    return 10.0**exponents * np.exp(1j * rng.uniform(-np.pi, np.pi, exponents.size))


class TestQuotient:
    @given(st.integers(0, 2**32 - 1), st.sampled_from([1, 3, 17, 1000]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_matches_masked_division(self, seed, n, zeros):
        rng = np.random.default_rng(seed)
        e_den = rng.uniform(-300.0, 300.0, n)
        e_num = np.clip(e_den + rng.uniform(-300.0, 300.0, n), -300.0, 300.0)  # |num/den| < 1e301
        num, den = _wide(rng, e_num), _wide(rng, e_den)
        if zeros:
            den[rng.random(n) < 0.3] = 0.0
            num[rng.random(n) < 0.3] = 0.0
            num[rng.random(n) < 0.2] *= -0.0  # signed zeros
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quotient(num, den)
        assert got.shape == den.shape
        assert np.array_equal(got.view(np.int64), _masked_quotient(num, den).view(np.int64))

    def test_subnormal_denominator_is_scaled(self):
        num = np.array([1.0, 2e-5j, 3.0, 0.5 - 0.5j])
        den = np.array([1.0 + 1j, 3e-310 + 1e-311j, 0.0, 2.0 - 1j])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = quotient(num, den)
        want = _masked_quotient(num, den)
        want[1] = num[1] / (den[1] * 2.0**600) * 2.0**600
        assert np.isfinite(got).all()
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
