"""Pointwise factorization on finite discrete spaces and diagonal algebras.

On a zero-dimensional (here: finite) space the perturbed product splits
point by point with modulus delta(eps) = eps**2/4.  The module also provides
the exact jointly-non-degenerate approximation of products and the weighted
diagonal unitisation whose openness is driven by the inversion scheme.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import pyarith
from .errors import DomainMismatch, PerturbationTooLarge, PreconditionViolated
from .functions import FiniteSpaceFunction, values_from_json, values_to_json


def _factor_points(x, y, w, eps):
    """scalar_factor over arrays, with its bits: CPython's complex `abs`,
    product and quotient come from pyarith.  The first point that scalar
    code would refuse raises as it would."""
    if eps <= 0:
        raise PreconditionViolated("eps must be positive", bound="eps > 0", value=eps, limit=0.0)
    with np.errstate(all="ignore"):  # as Python floats: an overflow is inf, without a warning
        ax, ay, aw = pyarith.cabs(x), pyarith.cabs(y), pyarith.cabs(w)
        too_large = aw > 0.25 * eps * eps * (1.0 + 1e-12)
        moved = w != 0
        larger = np.maximum(ax, ay)
        divide = moved & (larger >= aw / eps) & (larger > 0)  # aw / eps may underflow to 0
        if too_large.any():
            i = int(np.argmax(too_large))
            raise PerturbationTooLarge(
                "perturbation exceeds eps^2/4",
                bound="|w| <= eps^2/4", value=float(aw[i]), limit=0.25 * eps * eps,
            )
        into_y = divide & (ax >= ay)  # w is divided by x, the larger factor, and added to y
        into_x = divide & ~(ax >= ay)
        root = moved & ~divide  # both factors tiny: x*y + w split into equal square roots
        out_x, out_y = np.array(x), np.array(y)
        out_y[into_y] += pyarith.quot(w[into_y], x[into_y])
        out_x[into_x] += pyarith.quot(w[into_x], y[into_x])
        out_x[root] = out_y[root] = np.sqrt(pyarith.mul(x[root], y[root]) + w[root])
    return out_x, out_y


def scalar_factor(x: complex, y: complex, w: complex, eps: float) -> tuple[complex, complex]:
    """x', y' with x'*y' = x*y + w and |x'-x|, |y'-y| <= eps, for |w| <= eps**2/4.

    If either factor is nonzero with modulus at least |w|/eps, the perturbation
    is divided into the partner of the larger factor; otherwise both are tiny and
    the whole product x*y + w is split between two equal square roots.  This
    is the one-point view of the array kernel that open_mult_finite runs.
    """
    xs, ys = _factor_points(*(np.array([v], dtype=np.complex128) for v in (x, y, w)), eps)
    return complex(xs[0]), complex(ys[0])


def open_mult_finite(
    a: FiniteSpaceFunction, b: FiniteSpaceFunction, d: FiniteSpaceFunction, eps: float
) -> tuple[FiniteSpaceFunction, FiniteSpaceFunction]:
    """scalar_factor at every point: a'*b' = a*b + d node-wise."""
    a._check_domain(b, d)
    supd = float(np.max(np.abs(d.values)))
    if supd > 0.25 * eps * eps * (1.0 + 1e-12):
        raise PerturbationTooLarge(
            "perturbation exceeds eps^2/4",
            bound="sup|d| <= eps^2/4", value=supd, limit=0.25 * eps * eps,
        )
    out_a, out_b = _factor_points(a.values, b.values, d.values, eps)
    return FiniteSpaceFunction(out_a), FiniteSpaceFunction(out_b)


def nondeg_approx(
    f: FiniteSpaceFunction, g: FiniteSpaceFunction, eps: float
) -> tuple[FiniteSpaceFunction, FiniteSpaceFunction]:
    """Jointly non-degenerate f', g' with f'*g' = f*g bit-exactly.

    Points are classified by priority: keep both values where |f| >= eps/3,
    else where |g| >= eps/3; at the remaining points the pair is replaced by
    (s, f*g/s).  The scale s is eps/2 when the product vanishes there, and
    otherwise the largest power of two not exceeding eps/2, so that dividing
    and re-multiplying by s is exact in binary floating point.
    """
    if eps <= 0:
        raise PreconditionViolated("eps must be positive", bound="eps > 0", value=eps, limit=0.0)
    f._check_domain(g)
    cut = eps / 3.0
    pow2 = math.ldexp(1.0, math.frexp(eps / 2.0)[1] - 1)  # largest power of two <= eps/2
    with np.errstate(over="ignore", invalid="ignore"):  # overflows only at points that keep their values
        prods = f.values * g.values  # the same vectorized product the verifier sees
    moved = ~((pyarith.cabs(f.values) >= cut) | (pyarith.cabs(g.values) >= cut))
    zero = prods == 0
    fp = np.where(moved, np.where(zero, eps / 2.0, pow2), f.values)
    gp = np.where(moved & ~zero, pyarith.quot(prods, pow2), np.where(moved, 0j, g.values))
    return FiniteSpaceFunction(fp), FiniteSpaceFunction(gp)


# ---------------------------------------------------------------------------
# Weighted diagonal unitisation


@dataclass(frozen=True, eq=False)
class DiagonalAlgebraElement:
    """lambda*1 + sum coords[i]*e_i in the unitisation of a weighted diagonal
    algebra; the norm is |scalar| + sum(weights * |coords|).  Elements
    compare by value and are not hashable."""

    scalar: complex
    coords: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=np.complex128).copy()
        weights = np.asarray(self.weights, dtype=np.float64).copy()
        if coords.shape != weights.shape or coords.ndim != 1:
            raise ValueError("coords and weights must be matching vectors")
        if weights.size and float(np.min(weights)) <= 0.0:
            raise ValueError("weights must be strictly positive")
        coords.setflags(write=False)
        weights.setflags(write=False)
        object.__setattr__(self, "scalar", complex(self.scalar))
        object.__setattr__(self, "coords", coords)
        object.__setattr__(self, "weights", weights)

    def __eq__(self, other):
        same = type(other) is type(self) and other.scalar == self.scalar
        return same and np.array_equal(other.coords, self.coords) and np.array_equal(other.weights, self.weights)

    def norm(self) -> float:
        return abs(self.scalar) + float(np.sum(self.weights * np.abs(self.coords)))

    def embed(self) -> FiniteSpaceFunction:
        """Gelfand transform: value scalar + coords[i] at each point, and the
        bare scalar at the point at infinity."""
        return FiniteSpaceFunction(np.concatenate([self.scalar + self.coords, [self.scalar]]))

    def _like(self, scalar, coords) -> "DiagonalAlgebraElement":
        return DiagonalAlgebraElement(scalar, coords, self.weights)

    def __add__(self, other):
        self._check(other)
        return self._like(self.scalar + other.scalar, self.coords + other.coords)

    def __sub__(self, other):
        self._check(other)
        return self._like(self.scalar - other.scalar, self.coords - other.coords)

    def __mul__(self, other):
        if isinstance(other, DiagonalAlgebraElement):
            self._check(other)
            return self._like(
                self.scalar * other.scalar,
                self.scalar * other.coords + other.scalar * self.coords + self.coords * other.coords,
            )
        return self._like(self.scalar * other, self.coords * other)

    def __rmul__(self, other):
        return self.__mul__(other)

    def __neg__(self):
        return self._like(-self.scalar, -self.coords)

    def conj(self) -> "DiagonalAlgebraElement":
        return self._like(np.conj(self.scalar), np.conj(self.coords))

    def inverse(self) -> "DiagonalAlgebraElement":
        """Inverse in the unitisation; requires scalar and scalar+coords nonzero."""
        if self.scalar == 0 or np.any(self.scalar + self.coords == 0):
            raise ZeroDivisionError("element is not invertible")
        lam = self.scalar
        return self._like(1.0 / lam, -self.coords / (lam * (lam + self.coords)))

    def _check(self, other):
        if not np.array_equal(other.weights, self.weights):  # weights of two shapes are unequal
            raise DomainMismatch("elements carry different weight vectors", bound="common domain")

    def to_json(self) -> dict:
        return {
            "scalar": [self.scalar.real, self.scalar.imag],
            "coords": values_to_json(self.coords),
            "weights": list(map(float, self.weights)),
        }

    @classmethod
    def from_json(cls, obj, weights=None) -> "DiagonalAlgebraElement":
        w = obj.get("weights", weights)
        if w is None:
            raise ValueError("weights missing")
        re, im = obj["scalar"]
        return cls(complex(re, im), values_from_json(obj["coords"]), np.asarray(w, dtype=float))


def diagonal_open_mult(
    a: DiagonalAlgebraElement, b: DiagonalAlgebraElement, d: DiagonalAlgebraElement, eps: float
) -> tuple[DiagonalAlgebraElement, DiagonalAlgebraElement]:
    """a', b' with a'*b' = a*b + d and norm distances below eps.

    Delegates to the inversion scheme with the diagonal algebra model; the
    pair (a, b) must be jointly non-degenerate and d must be smaller than the
    scheme's admissible radius for the pair, which run_scheme enforces.
    """
    from .scheme import diagonal_algebra_model, run_scheme, scheme_params

    model = diagonal_algebra_model(a.weights)
    params = scheme_params(a, b, eps, model)
    f, g, _trace = run_scheme(a, b, d, params, model)
    return f, g
