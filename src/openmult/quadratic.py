"""Root selection for gamma*z**2 + beta*z + alpha with |gamma| = 1.

The selected root is the one of strictly smaller modulus; selection is only
defined when the two root moduli split (relative tie tolerance 1e-12, an open
condition that the factorization pipeline stays well inside).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EqualModulusRoots

TIE_TOL = 1e-12


@dataclass(frozen=True)
class QuadraticTriple:
    alpha: complex
    beta: complex
    gamma: complex

    def __post_init__(self):
        if abs(abs(self.gamma) - 1.0) > 1e-12 * (1.0 + abs(self.gamma)):
            raise ValueError("leading coefficient must be unimodular")


def _scaled_big_root(alpha, beta, gamma):
    """(shape, alpha, gamma, q): the coefficients as arrays of at least one
    dimension, their broadcast shape, and q = -(beta +- sqrt(disc))/2 on the
    cancellation-free branch of the quadratic formula, the larger-modulus
    root times gamma."""
    arrays = [np.asarray(x, dtype=np.complex128) for x in (alpha, beta, gamma)]
    shape = np.broadcast(*arrays).shape
    # Scalars take the array path as 1-d arrays.  Buffers are reused only
    # where they are our own temporaries, never a caller's array.  Complex
    # products stay out of place: numpy rounds an in-place product of one
    # element differently, and larger temporaries it reuses by itself.
    alpha, beta, gamma = np.atleast_1d(*arrays)
    disc = beta * beta - 4.0 * gamma * alpha
    s = np.sqrt(disc, out=disc)
    plus = beta + s
    w = np.subtract(beta, s, out=s)
    np.copyto(w, plus, where=np.abs(plus) >= np.abs(w))
    q = np.negative(w, out=w)
    np.divide(q, 2.0, out=q)
    return shape, alpha, gamma, q


def roots_vec(alpha, beta, gamma):
    """Both roots, numerically stable, vectorized.

    Returns (big, small) ordered by modulus, |big| >= |small|.  The larger
    root comes from the cancellation-free branch of the quadratic formula and
    the smaller from the product relation small = alpha / (gamma * big), so
    tiny alpha never cancels.
    """
    shape, alpha, gamma, q = _scaled_big_root(alpha, beta, gamma)
    return np.divide(q, gamma).reshape(shape), quotient(alpha, q).reshape(shape)


def quotient(num, den):
    """num / den as np.divide rounds it, 0 where den == 0, except where
    numpy's complex division overflows its reciprocal 1/(dr + di*(di/dr))
    (|den| about 1e-308 or less): there num is divided by den scaled by
    2**600, which is exact, and the quotient is scaled back.

    The division runs unmasked first and is kept when it raises no flag.  A
    finite num over den == 0 raises one; a num with no finite part over 0
    does not, and keeps num/0 (nan or inf) in place of 0.  Neither caller
    divides such a num by 0: a zero q in the roots needs a finite alpha, and
    _factor_arrays overwrites its far nodes."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return np.divide(num, den)
    except FloatingPointError:
        pass
    dr, di = den.real, den.imag
    with np.errstate(all="ignore"):
        denom = np.where(np.abs(dr) >= np.abs(di), dr + di * (di / dr), di + dr * (dr / di))
        tiny = (den != 0) & np.isinf(1.0 / denom)
    out = np.divide(num, den, out=np.zeros(den.shape, dtype=np.complex128), where=(den != 0) & ~tiny)
    out[tiny] = np.broadcast_to(num, den.shape)[tiny] / (den[tiny] * 2.0**600) * 2.0**600
    return out


# Where 2**-960 <= |gamma| <= 2**500 and 1e-9 <= rho = |q|/|gamma| <= 2**500,
# no step of numpy's division q/gamma overflows, and an underflow in it is an
# absolute error of at most 2**-1074 against |q| >= 2**-990 or against
# |gamma|: |q/gamma| rounds to rho within a relative 1e-14.  There
# 2|small| <= rho puts |big| - |small| above |big|/2 - 1e-14|big|, and
# TIE_TOL*(|big| + 1 + |small|) below 1e-12*(1.5|big| + 1), which is less
# than |big|/4 for |big| >= 1e-9/2: no rounding of the test can close a gap
# of that size, so the node does not tie and big need not be formed.
_LO, _HI = 2.0**-960, 2.0**500


def _ties(q, gamma, small):
    """The flat indices of the nodes whose root moduli tie, in order.

    A node ties when |big| - |small| <= TIE_TOL*(|big| + 1 + |small|), with
    big = q/gamma the larger root.  big is formed only on the nodes that the
    bound on rho = |q|/|gamma| above does not already clear.
    """
    abs_small = np.abs(small)
    with np.errstate(all="ignore"):  # a node that overflows here is left open
        abs_gamma = np.abs(gamma)
        rho = np.abs(q)
        rho /= abs_gamma
        twice = np.multiply(abs_small, 2.0)
        clear = np.maximum(twice, 1e-9, out=twice) <= rho
        clear &= (abs_gamma >= _LO) & (abs_gamma <= _HI) & (rho <= _HI)
    if clear.all():
        return np.empty(0, dtype=np.intp)
    nodes = np.flatnonzero(~clear)
    abs_big = np.abs(q.ravel()[nodes] / np.broadcast_to(gamma, q.shape).flat[nodes])
    abs_small = abs_small.ravel()[nodes]
    tol = abs_big + 1.0
    tol += abs_small
    tol *= TIE_TOL
    return nodes[abs_big - abs_small <= tol]


def smaller_root_vec(alpha, beta, gamma):
    """(small, ties): the smaller-modulus root per node (at a tied node, the
    root roots_vec gives second) and the tied nodes' flat indices, in order."""
    shape, alpha, gamma, q = _scaled_big_root(alpha, beta, gamma)
    small = quotient(alpha, q)
    return small.reshape(shape), _ties(q, gamma, small)


def _untied(small, ties):
    """`small`, unless `ties` names a node: then EqualModulusRoots at the first."""
    if ties.size:
        raise EqualModulusRoots(f"root moduli tie at index {ties[0]}", index=int(ties[0]))
    return small


def roots(t: QuadraticTriple) -> tuple[complex, complex]:
    """Both roots as (larger-modulus, smaller-modulus)."""
    big, small = roots_vec(t.alpha, t.beta, t.gamma)
    return complex(big), complex(small)


def has_distinct_moduli(t: QuadraticTriple) -> bool:
    """Whether the two root moduli split, so the selection is defined."""
    return not smaller_root_vec(t.alpha, t.beta, t.gamma)[1].size


def smaller_root(t: QuadraticTriple) -> complex:
    """The root of strictly smaller modulus.

    In the tracking regime |beta| >= eta, |alpha| <= eta^2/4 the returned
    value satisfies |z| <= 2|alpha|/|beta|.
    """
    return complex(_untied(*smaller_root_vec(t.alpha, t.beta, t.gamma)))
