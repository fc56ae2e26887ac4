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


def roots_vec(alpha, beta, gamma):
    """Both roots, numerically stable, vectorized.

    Returns (big, small) ordered by modulus, |big| >= |small|.  The larger
    root comes from the cancellation-free branch of the quadratic formula and
    the smaller from the product relation small = alpha / (gamma * big), so
    tiny alpha never cancels.
    """
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
    big = np.divide(q, gamma, out=plus)
    return big.reshape(shape), quotient(alpha, q).reshape(shape)


def quotient(num, den):
    """num / den as np.divide rounds it, 0 where den == 0, except where
    numpy's complex division overflows its reciprocal 1/(dr + di*(di/dr))
    (|den| about 1e-308 or less): there num is divided by den scaled by
    2**600, which is exact, and the quotient is scaled back."""
    out = np.zeros(den.shape, dtype=np.complex128)
    try:
        with np.errstate(over="raise", invalid="raise"):
            return np.divide(num, den, out=out, where=den != 0)
    except FloatingPointError:
        pass
    dr, di = den.real, den.imag
    with np.errstate(all="ignore"):
        denom = np.where(np.abs(dr) >= np.abs(di), dr + di * (di / dr), di + dr * (dr / di))
        tiny = (den != 0) & np.isinf(1.0 / denom)
    np.divide(num, den, out=out, where=(den != 0) & ~tiny)
    out[tiny] = np.broadcast_to(num, den.shape)[tiny] / (den[tiny] * 2.0**600) * 2.0**600
    return out


def smaller_root_vec(alpha, beta, gamma):
    """Selected (smaller-modulus) root per node; raises when any node ties."""
    big, small = roots_vec(alpha, beta, gamma)
    abs_big = np.abs(big)
    abs_small = np.abs(small)
    tol = abs_big + 1.0
    tol += abs_small
    tol *= TIE_TOL
    bad = abs_big - abs_small <= tol
    if bad.any():
        idx = int(np.argmax(bad))
        raise EqualModulusRoots(f"root moduli tie at index {idx}", index=idx)
    return small


def roots(t: QuadraticTriple) -> tuple[complex, complex]:
    """Both roots as (larger-modulus, smaller-modulus)."""
    big, small = roots_vec(t.alpha, t.beta, t.gamma)
    return complex(big), complex(small)


def has_distinct_moduli(t: QuadraticTriple) -> bool:
    """Whether the two root moduli split, so the selection is defined."""
    try:
        smaller_root_vec(t.alpha, t.beta, t.gamma)
    except EqualModulusRoots:
        return False
    return True


def smaller_root(t: QuadraticTriple) -> complex:
    """The root of strictly smaller modulus.

    In the tracking regime |beta| >= eta, |alpha| <= eta^2/4 the returned
    value satisfies |z| <= 2|alpha|/|beta|.
    """
    return complex(smaller_root_vec(t.alpha, t.beta, t.gamma))
