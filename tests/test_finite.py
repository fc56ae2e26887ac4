import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from openmult import (
    DiagonalAlgebraElement,
    FiniteSpaceFunction,
    OpenMultError,
    PerturbationTooLarge,
    PreconditionViolated,
    diagonal_open_mult,
    nondeg_approx,
    open_mult_finite,
    scalar_factor,
    sup_norm,
)

small_complex = st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False)
eps_values = st.floats(min_value=0.05, max_value=1.0)


class TestScalarFactor:
    def test_division_branch(self):
        x2, y2 = scalar_factor(2.0, 3.0, 0.1, 1.0)
        assert x2 * y2 == pytest.approx(6.1, rel=1e-14)
        assert abs(x2 - 2.0) <= 1.0 and abs(y2 - 3.0) <= 1.0
        # the perturbation is divided by the larger factor
        assert y2 == 3.0 and x2 == pytest.approx(2.0 + 0.1 / 3.0)

    def test_balanced_branch_real_positive(self):
        x2, y2 = scalar_factor(0.0, 0.0, 0.25, 1.0)
        assert x2 == 0.5 and y2 == 0.5
        assert abs(x2) <= 1.0 and abs(y2) <= 1.0

    def test_zero_perturbation_identity(self):
        assert scalar_factor(1 + 2j, -3j, 0.0, 0.5) == (1 + 2j, -3j)

    def test_gate(self):
        with pytest.raises(PerturbationTooLarge):
            scalar_factor(0.0, 0.0, 0.5, 1.0)

    @given(small_complex, small_complex, eps_values, st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=2 * np.pi))
    @settings(max_examples=300)
    def test_bounds_hold(self, x, y, eps, wscale, wphase):
        w = wscale * eps * eps / 4.0 * np.exp(1j * wphase)
        x2, y2 = scalar_factor(x, y, complex(w), eps)
        target = x * y + w
        assert abs(x2 * y2 - target) <= 1e-12 * (1 + abs(target))
        assert abs(x2 - x) <= eps * (1 + 1e-9)
        assert abs(y2 - y) <= eps * (1 + 1e-9)

    def test_exhaustive_grid(self):
        # brute-force grid oracle over |x|, |y| <= 2 at the critical radius
        axis = np.linspace(-2.0, 2.0, 7)
        pts = [complex(a, b) for a in axis for b in axis if abs(complex(a, b)) <= 2.0]
        count = 0
        for eps in (0.1, 0.4, 0.7, 1.0):
            w0 = eps * eps / 4.0
            for x in pts:
                for y in pts:
                    for phase in (1, 1j, -1, -1j):
                        w = w0 * phase
                        x2, y2 = scalar_factor(x, y, w, eps)
                        target = x * y + w
                        assert abs(x2 * y2 - target) <= 1e-12 * (1 + abs(target))
                        assert abs(x2 - x) <= eps and abs(y2 - y) <= eps
                        count += 1
        assert count >= 10_000


class TestOpenMultFinite:
    def test_zero_perturbation(self):
        a = FiniteSpaceFunction([1.0, 2j, -0.5])
        b = FiniteSpaceFunction([0.5, 0.0, 1j])
        d = FiniteSpaceFunction([0.0, 0.0, 0.0])
        a2, b2 = open_mult_finite(a, b, d, 0.5)
        assert np.array_equal(a2.values, a.values)
        assert np.array_equal(b2.values, b.values)

    def test_single_point_reduces_to_scalar(self):
        a2, b2 = open_mult_finite(
            FiniteSpaceFunction([2.0]), FiniteSpaceFunction([3.0]), FiniteSpaceFunction([0.1]), 1.0
        )
        xs, ys = scalar_factor(2.0, 3.0, 0.1, 1.0)
        assert a2.values[0] == xs and b2.values[0] == ys

    def test_random_vectors(self):
        rng = np.random.default_rng(0)
        eps = 0.6
        for _ in range(20):
            a = FiniteSpaceFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16))
            b = FiniteSpaceFunction(rng.standard_normal(16) + 1j * rng.standard_normal(16))
            raw = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            d = FiniteSpaceFunction(raw / np.max(np.abs(raw)) * eps * eps / 4.0)
            a2, b2 = open_mult_finite(a, b, d, eps)
            res = a2.values * b2.values - (a.values * b.values + d.values)
            assert np.max(np.abs(res)) <= 1e-12 * (1 + sup_norm(a * b + d))
            assert np.max(np.abs(a2.values - a.values)) <= eps
            assert np.max(np.abs(b2.values - b.values)) <= eps

    def test_gate(self):
        with pytest.raises(PerturbationTooLarge):
            open_mult_finite(
                FiniteSpaceFunction([0.0]), FiniteSpaceFunction([0.0]), FiniteSpaceFunction([1.0]), 0.5
            )


class TestNondegApprox:
    def test_large_f_untouched(self):
        f = FiniteSpaceFunction([1.0, -2j, 0.7])
        g = FiniteSpaceFunction([0.0, 5.0, 1j])
        f2, g2 = nondeg_approx(f, g, 0.6)
        assert np.array_equal(f2.values, f.values)
        assert np.array_equal(g2.values, g.values)

    def test_two_point_example(self):
        f = FiniteSpaceFunction([1.0, 0.0])
        g = FiniteSpaceFunction([0.0, 0.0])
        f2, g2 = nondeg_approx(f, g, 0.6)
        assert np.array_equal(f2.values, np.array([1.0, 0.3], dtype=complex))
        assert np.array_equal(g2.values, np.array([0.0, 0.0], dtype=complex))
        assert np.min(np.abs(f2.values) ** 2 + np.abs(g2.values) ** 2) == pytest.approx(0.09)

    def test_all_zero(self):
        f = FiniteSpaceFunction([0.0, 0.0, 0.0])
        g = FiniteSpaceFunction([0.0, 0.0, 0.0])
        f2, g2 = nondeg_approx(f, g, 1.0)
        assert np.all(f2.values == 0.5)
        assert np.all(g2.values == 0.0)

    @given(
        st.lists(small_complex, min_size=1, max_size=12),
        st.lists(small_complex, min_size=1, max_size=12),
        eps_values,
    )
    @settings(max_examples=300)
    def test_invariants(self, fv, gv, eps):
        n = min(len(fv), len(gv))
        f = FiniteSpaceFunction(fv[:n])
        g = FiniteSpaceFunction(gv[:n])
        f2, g2 = nondeg_approx(f, g, eps)
        # bit-exact product preservation
        assert np.array_equal(f2.values * g2.values, f.values * g.values)
        assert np.max(np.abs(f2.values - f.values)) <= eps * (1 + 1e-12)
        assert np.max(np.abs(g2.values - g.values)) <= eps * (1 + 1e-12)
        assert np.min(np.abs(f2.values) ** 2 + np.abs(g2.values) ** 2) > 0


WEIGHTS = np.array([1.0, 1.0])


def elem(scalar, coords, weights=WEIGHTS):
    return DiagonalAlgebraElement(scalar, np.asarray(coords, dtype=complex), weights)


class TestDiagonalAlgebra:
    def test_norm(self):
        a = elem(1 + 1j, [2.0, -1j])
        assert a.norm() == pytest.approx(abs(1 + 1j) + 3.0)

    def test_product_unitisation_rules(self):
        a = elem(2.0, [1.0, 0.0])
        b = elem(1.0, [0.0, 3.0])
        ab = a * b
        assert ab.scalar == 2.0
        assert np.array_equal(ab.coords, np.array([1.0, 6.0], dtype=complex))

    def test_embedding(self):
        a = elem(2.0, [1.0, -3.0])
        assert np.array_equal(a.embed().values, np.array([3.0, -1.0, 2.0], dtype=complex))

    def test_nonunital_one_sided_differential_bound(self):
        # pairs from the non-unital part: ||ab|| <= ||a|| * sup|b|
        rng = np.random.default_rng(1)
        for _ in range(200):
            a = elem(0.0, rng.standard_normal(2) + 1j * rng.standard_normal(2))
            b = elem(0.0, rng.standard_normal(2) + 1j * rng.standard_normal(2))
            lhs = (a * b).norm()
            assert lhs <= a.norm() * sup_norm(b.embed()) * (1 + 1e-12)

    def test_unitisation_differential_inequality(self):
        # two-sided bound with constant 1 for unitisation pairs
        rng = np.random.default_rng(2)
        for _ in range(200):
            a = elem(complex(rng.standard_normal(), rng.standard_normal()),
                     rng.standard_normal(2) + 1j * rng.standard_normal(2))
            b = elem(complex(rng.standard_normal(), rng.standard_normal()),
                     rng.standard_normal(2) + 1j * rng.standard_normal(2))
            lhs = (a * b).norm()
            rhs = a.norm() * sup_norm(b.embed()) + sup_norm(a.embed()) * b.norm()
            assert lhs <= rhs * (1 + 1e-12)

    def test_equality(self):
        # scalar, then coords and weights compared entry by entry
        a = DiagonalAlgebraElement(1, [1, 2], [1, 1])
        assert a == DiagonalAlgebraElement(1, [1, 2], [1, 1]) and not a != DiagonalAlgebraElement(1, [1, 2], [1, 1])
        for other in (
            DiagonalAlgebraElement(2, [1, 2], [1, 1]),
            DiagonalAlgebraElement(1, [1, 3], [1, 1]),
            DiagonalAlgebraElement(1, [1, 2], [1, 2]),
            DiagonalAlgebraElement(1, [1], [1]),
            a.embed(),
        ):
            assert a != other and not a == other
        with pytest.raises(TypeError):
            hash(a)

    def test_inverse(self):
        a = elem(2.0, [1.0, -1.0 + 0.5j])
        inv = a.inverse()
        prod = a * inv
        assert prod.scalar == pytest.approx(1.0)
        assert np.max(np.abs(prod.coords)) < 1e-14


class TestDiagonalOpenMult:
    def test_zero_perturbation(self):
        a = elem(1.0, [0.2, -0.1j])
        b = elem(0.8, [0.05, 0.3])
        d = elem(0.0, [0.0, 0.0])
        a2, b2 = diagonal_open_mult(a, b, d, 0.5)
        assert (a2 - a).norm() == 0.0 and (b2 - b).norm() == 0.0

    def test_pure_scalars_match_single_point_recursion(self):
        from openmult import diagonal_algebra_model, scheme_params

        w = np.zeros(0)
        a = DiagonalAlgebraElement(1.0, np.zeros(0, dtype=complex), w)
        b = DiagonalAlgebraElement(1.0, np.zeros(0, dtype=complex), w)
        delta = scheme_params(a, b, 0.5, diagonal_algebra_model(w)).delta
        h0 = 0.9 * delta
        d = DiagonalAlgebraElement(h0, np.zeros(0, dtype=complex), w)
        a2, b2 = diagonal_open_mult(a, b, d, 0.5)
        assert a2.scalar * b2.scalar == pytest.approx(1.0 + h0, rel=1e-12)
        assert a2.scalar == pytest.approx(b2.scalar)

    def test_random_pairs(self):
        from openmult import diagonal_algebra_model, scheme_params

        rng = np.random.default_rng(3)
        eps = 0.5
        model = diagonal_algebra_model(WEIGHTS)
        for _ in range(10):
            a = elem(1.0 + 0.2 * rng.standard_normal(),
                     0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
            b = elem(1.0 + 0.2 * rng.standard_normal(),
                     0.3 * (rng.standard_normal(2) + 1j * rng.standard_normal(2)))
            delta = scheme_params(a, b, eps, model).delta
            raw = elem(complex(rng.standard_normal(), rng.standard_normal()),
                       rng.standard_normal(2) + 1j * rng.standard_normal(2))
            d = raw * (0.9 * delta / raw.norm())
            a2, b2 = diagonal_open_mult(a, b, d, eps)
            res = (a2 * b2 - (a * b + d)).norm()
            assert res <= 1e-9 * (1 + (a * b + d).norm())
            assert (a2 - a).norm() < eps and (b2 - b).norm() < eps

    def test_too_large_rejected(self):
        a = elem(1.0, [0.0, 0.0])
        b = elem(1.0, [0.0, 0.0])
        d = elem(0.5, [0.0, 0.0])
        with pytest.raises(PerturbationTooLarge):
            diagonal_open_mult(a, b, d, 0.5)


# ---------------------------------------------------------------------------
# The array kernel against the per-point construction it replaced.  The
# reference below is the scalar code as it stood before vectorisation, kept
# verbatim; every output must keep its bits and every refusal its class,
# bound and value.


def _ref_scalar_factor(x, y, w, eps):
    if eps <= 0:
        raise PreconditionViolated("eps must be positive")
    if abs(w) > 0.25 * eps * eps * (1.0 + 1e-12):
        raise PerturbationTooLarge(
            "perturbation exceeds eps^2/4",
            bound="|w| <= eps^2/4", value=abs(w), limit=0.25 * eps * eps,
        )
    if w == 0:
        return x, y
    larger = max(abs(x), abs(y))
    if larger >= abs(w) / eps and larger > 0:  # |w| / eps may underflow to 0
        if abs(x) >= abs(y):
            return x, y + w / x
        return x + w / y, y
    root = complex(np.sqrt(complex(x * y + w)))
    return root, root


def _ref_open_mult_finite(a, b, d, eps):
    supd = float(np.max(np.abs(d.values)))
    if supd > 0.25 * eps * eps * (1.0 + 1e-12):
        raise PerturbationTooLarge(
            "perturbation exceeds eps^2/4",
            bound="sup|d| <= eps^2/4", value=supd, limit=0.25 * eps * eps,
        )
    out_a = np.empty(a.n, dtype=np.complex128)
    out_b = np.empty(a.n, dtype=np.complex128)
    for i in range(a.n):
        out_a[i], out_b[i] = _ref_scalar_factor(
            complex(a.values[i]), complex(b.values[i]), complex(d.values[i]), eps
        )
    return FiniteSpaceFunction(out_a), FiniteSpaceFunction(out_b)


def _ref_nondeg_approx(f, g, eps):
    cut = eps / 3.0
    pow2 = math.ldexp(1.0, math.frexp(eps / 2.0)[1] - 1)
    fp = np.array(f.values)
    gp = np.array(g.values)
    prods = f.values * g.values
    for i in range(f.n):
        if abs(fp[i]) >= cut or abs(gp[i]) >= cut:
            continue
        prod = complex(prods[i])
        if prod == 0:
            fp[i] = eps / 2.0
            gp[i] = 0j
        else:
            fp[i] = pow2
            gp[i] = prod / pow2
    return FiniteSpaceFunction(fp), FiniteSpaceFunction(gp)


def _outcome(fn, *args):
    """The output bits of fn(*args), or the class, bound, value and limit of what it raised."""
    try:
        out = fn(*args)
    except OpenMultError as exc:
        return type(exc), str(exc), getattr(exc, "bound", None), getattr(exc, "value", None), \
            getattr(exc, "limit", None)
    return tuple(np.asarray(getattr(v, "values", v), dtype=np.complex128).tobytes() for v in out)


def _edge_case_points(rng, n, scale):
    """n complex points at moduli spread over scale * [1e-8, 10], with exact and
    negative zeros and subnormal values mixed in."""
    vals = scale * 10.0 ** rng.uniform(-8, 1, n) * np.exp(2j * np.pi * rng.random(n))
    for special in (0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)):
        vals[rng.integers(0, n, max(1, n // 16))] = special
    sub = rng.integers(0, n, max(1, n // 16))
    vals[sub] = vals[sub] * 1e-310
    return vals


@pytest.mark.parametrize("seed", range(40))
def test_finite_kernel_matches_per_point_reference(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 300))
    eps = float(rng.choice([1e-8, 1e-3, 0.05, 0.5, 0.9, 1.0, 3.0, 10.0]))
    a = _edge_case_points(rng, n, 1.0)
    b = _edge_case_points(rng, n, float(rng.choice([1e-8, 1e-3, 1.0, 10.0])))
    ties = rng.random(n) < 0.25
    b[ties] = a[ties] * rng.choice([1j, -1, -1j], ties.sum())  # |x| == |y| exactly
    d = _edge_case_points(rng, n, 1.0)
    top = np.max(np.abs(d))
    if top > 0:
        d = d / top * (rng.uniform(0.1, 1.0) * 0.25 * eps * eps)
    A, B, D = (FiniteSpaceFunction(v) for v in (a, b, d))
    assert _outcome(open_mult_finite, A, B, D, eps) == _outcome(_ref_open_mult_finite, A, B, D, eps)
    assert _outcome(nondeg_approx, A, B, eps) == _outcome(_ref_nondeg_approx, A, B, eps)
    for i in range(min(n, 8)):
        x, y, w = complex(a[i]), complex(b[i]), complex(d[i])
        assert _outcome(scalar_factor, x, y, w, eps) == _outcome(_ref_scalar_factor, x, y, w, eps)


@pytest.mark.parametrize(
    "x,y,w,eps",
    [
        (1 + 2j, -3j, 0.0, 0.5),  # w == 0
        (1 + 2j, -3j, complex(-0.0, 0.0), 0.5),
        (0j, 0j, complex(0.0, -0.0), 0.5),
        (3 + 4j, 4 - 3j, 0.01, 0.5),  # |x| == |y|: w goes into y
        (5e-324, 5e-324j, 1e-320, 0.5),  # subnormal factors
        (0j, 0j, 0.25, 1.0),  # square-root branch
        (0j, 0j, 0.5, 1.0),  # refused: |w| > eps^2/4
        (1.0, 1.0, 0.1, 0.0),  # refused: eps <= 0
        (1.0, 1.0, 0.1, -1.0),
        (0j, 0j, 5e-324, 10.0),  # |w| / eps underflows to 0: the square-root branch, not w / 0
    ],
)
def test_scalar_factor_edge_cases_match_reference(x, y, w, eps):
    assert _outcome(scalar_factor, x, y, w, eps) == _outcome(_ref_scalar_factor, x, y, w, eps)
    if (x, y, w, eps) == (0j, 0j, 5e-324, 10.0):
        xp, yp = scalar_factor(x, y, w, eps)
        assert xp * yp == w and abs(xp) <= eps and abs(yp) <= eps


# np.abs(W) <= EPS**2/4 * (1 + 1e-12) < hypot(W): the sup|d| gate passes and the
# per-point gate, which measures |w| as Python does, refuses.
W, EPS = 0.0317473776112571 + 0.05870930966296277j, 0.5166948108555934


@pytest.mark.parametrize(
    "d,eps,bound",
    [
        ([0.01, 0.2, 0.3], 0.5, "sup|d| <= eps^2/4"),
        ([0.0, 0.0, 0.0], 0.0, None),  # eps <= 0 with d == 0: the per-point gate names it
        ([0.0, 0.0, 0.0], -1.0, None),
        ([0.01, W, 0.02, W * 1j], EPS, "|w| <= eps^2/4"),
    ],
)
def test_finite_refusal_order_matches_reference(d, eps, bound):
    n = len(d)
    a = FiniteSpaceFunction(np.linspace(0.0, 1.0, n) + 0.5j)
    b = FiniteSpaceFunction(np.full(n, 0.1 + 0j))
    D = FiniteSpaceFunction(d)
    got = _outcome(open_mult_finite, a, b, D, eps)
    assert got == _outcome(_ref_open_mult_finite, a, b, D, eps)
    assert isinstance(got[0], type) and got[2] == bound


ONE_POINT, TWO_POINTS = FiniteSpaceFunction([1.0]), FiniteSpaceFunction([1.0, 1.0])
SHAPE_REFUSALS = {
    "open_mult_finite, d on fewer points": (
        lambda: open_mult_finite(TWO_POINTS, TWO_POINTS, ONE_POINT, 0.5),
        "a, b, d must have the same number of points",
    ),
    "nondeg_approx, eps = 0": (lambda: nondeg_approx(TWO_POINTS, TWO_POINTS, 0.0), "eps must be positive"),
    "nondeg_approx, g on fewer points": (
        lambda: nondeg_approx(TWO_POINTS, ONE_POINT, 0.5), "f and g must have the same number of points"),
}


@pytest.mark.parametrize("name", sorted(SHAPE_REFUSALS))
def test_shape_and_eps_refused(name):
    call, message = SHAPE_REFUSALS[name]
    with pytest.raises(PreconditionViolated) as exc:
        call()
    assert str(exc.value) == message


def _abs_ulp_apart(rng, radius, n):
    """Points of modulus ~radius on which numpy's array abs and hypot disagree."""
    z = radius * np.exp(2j * np.pi * rng.random(8 * n))
    return z[np.abs(z) != np.hypot(z.real, z.imag)][:n]


@pytest.mark.parametrize("seed", range(6))
def test_finite_kernel_matches_reference_at_branch_boundaries(seed):
    # Each family puts points where one rounding step decides the branch or
    # the last bit: a product that is a quarter of x*y + w in the square-root
    # branch, |x| == |y| in hypot but not in numpy's array abs, |f| at the
    # eps/3 cut, and products with a signed-zero part.
    rng = np.random.default_rng(1000 + seed)
    eps = float(rng.uniform(0.1, 1.0))
    n = 512
    w = 0.25 * eps * eps * np.exp(2j * np.pi * rng.random(n))
    near = np.abs(w) / eps * 0.999
    x, y = near * np.exp(2j * np.pi * rng.random(n)), near * np.exp(2j * np.pi * rng.random(n))
    x2 = _abs_ulp_apart(rng, 0.3, n)
    y2 = np.hypot(x2.real, x2.imag) + 0j
    wx = w[:x2.size]
    A, B, D = (FiniteSpaceFunction(np.concatenate(v)) for v in ((x, x2, y2), (y, y2, x2), (w, wx, wx)))
    assert _outcome(open_mult_finite, A, B, D, eps) == _outcome(_ref_open_mult_finite, A, B, D, eps)
    f = np.concatenate([_abs_ulp_apart(rng, eps / 3.0, n), [0.01j, -0.01j, 0.01, -0.01, complex(-0.0, 0.01)] * 2])
    g = np.concatenate([0.01 * rng.random(f.size - 10), [-0.02, 0.02, 0.02j, -0.02j, 0.02]
                        + [-0.02j, 0.02j, -0.02, 0.02, complex(0.02, -0.0)]])
    F, G = FiniteSpaceFunction(f), FiniteSpaceFunction(g)
    assert _outcome(nondeg_approx, F, G, eps) == _outcome(_ref_nondeg_approx, F, G, eps)
    assert _outcome(nondeg_approx, G, F, eps) == _outcome(_ref_nondeg_approx, G, F, eps)


def _element(scalar=1.0, coords=(0.5,), weights=(1.0,)):
    return DiagonalAlgebraElement(scalar, np.asarray(coords, dtype=complex), np.asarray(weights))


# The refusals of the diagonal algebra elements, each with its class and message.
ELEMENT_REFUSALS = {
    "coords and weights of two lengths": (
        lambda: _element(coords=(0.5, 0.5)), ValueError, "coords and weights must be matching vectors"),
    "2-d coords and weights": (
        lambda: _element(coords=((0.5,),), weights=((1.0,),)), ValueError, "coords and weights must be matching vectors"),
    "zero weight": (lambda: _element(weights=(0.0,)), ValueError, "weights must be strictly positive"),
    "inverse of a zero scalar": (lambda: _element(scalar=0.0).inverse(), ZeroDivisionError, "element is not invertible"),
    "inverse vanishing at a point": (
        lambda: _element(coords=(-1.0,)).inverse(), ZeroDivisionError, "element is not invertible"),
    "sum over two weight vectors": (
        lambda: _element() + _element(weights=(2.0,)), PreconditionViolated, "elements carry different weight vectors"),
    "JSON without weights": (
        lambda: DiagonalAlgebraElement.from_json({"scalar": [1.0, 0.0], "coords": [[0.5, 0.0]]}),
        ValueError, "weights missing"),
}


@pytest.mark.parametrize("name", sorted(ELEMENT_REFUSALS))
def test_element_refusals(name):
    call, cls, message = ELEMENT_REFUSALS[name]
    with pytest.raises(cls) as exc:
        call()
    assert (type(exc.value), str(exc.value)) == (cls, message)


def test_scalar_times_element_commutes():
    x = _element(scalar=1.0 + 2j, coords=(0.5, -1j), weights=(1.0, 3.0))
    assert 2j * x == x * 2j == _element(scalar=-4.0 + 2j, coords=(1j, 2.0), weights=(1.0, 3.0))
