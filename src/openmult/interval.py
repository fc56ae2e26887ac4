"""Constructive factorization of perturbed products on a single interval grid.

Given f, g and a small perturbation d of the product, the pipeline builds
d1, d2 with (f + d1)(g + d2) = f*g + d node-wise and certified sup-norm
bounds.  The construction splits the grid into a sublevel cover of the
joint-degeneracy region (factored directly with prescribed boundary data)
and its complement (handled by quadratic root tracking against rotated
non-degeneracy phases), then glues at seam nodes that are assigned once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    BoundaryMismatch,
    CoverInfeasible,
    EqualModulusRoots,
    NonUnimodularInput,
    NormBudgetExceeded,
    OpenMultError,
    PerturbationTooLarge,
    PreconditionViolated,
    VertexInconsistency,
    ZeroArgument,
)
from .functions import GridFunction
from .quadratic import smaller_root_vec

RESIDUAL_TOL = 1e-9
UNDEFINED = complex(float("nan"), float("nan"))


def _verify(cond: bool, message: str):
    # Internal invariant, not an input error: reaching this is a bug.
    if not cond:
        raise RuntimeError(f"internal invariant failed: {message}")


# ---------------------------------------------------------------------------
# Constants of the construction


def shift_budget(eta: float, eps: float) -> float:
    """Admissible sup-norm of the right-hand side for root tracking.

    min(eps*eta/2, eta**2/5): twice this over eta stays below eps and
    strictly below eta/2, which keeps the tracked root separated and small.
    """
    if eta <= 0 or eps <= 0:
        raise PreconditionViolated("eta and eps must be positive")
    return min(eps * eta / 2.0, eta * eta / 5.0)


def delta0(eps0: float) -> float:
    """Certified perturbation radius for the interval pipeline.

    Equals eps0**2 / 245 with the shift budget above: the target bound is
    split as eps1 = eps0/7 and the radius is capped at eps1**2.
    """
    return PipelineConfig.for_target(eps0).delta0


@dataclass(frozen=True)
class PipelineConfig:
    """Derived constants for a target bound epsilon0."""

    epsilon0: float
    epsilon1: float
    eta1: float
    eta2: float
    delta0: float

    @classmethod
    def for_target(cls, eps0: float) -> "PipelineConfig":
        if not 0.0 < eps0 < 1.0:
            raise PreconditionViolated("eps0 must lie in (0, 1)")
        eps1 = eps0 / 7.0
        if eps1 == 0.0:
            raise PreconditionViolated(
                "eps0 is too small: eps0/7 underflows to zero",
                bound="eps0/7 > 0 (no underflow)", value=eps0, limit=math.ulp(0.0) * 4,
            )
        return cls(
            epsilon0=eps0,
            epsilon1=eps1,
            eta1=eps1 * eps1,
            eta2=4.0 * eps1 * eps1,
            delta0=min(eps1 * eps1, shift_budget(eps1, eps1)),
        )

    def check_radius(self, supd: float):
        """Refuse a perturbation whose sup norm `supd` exceeds delta0."""
        if supd > self.delta0 * (1.0 + 1e-12):
            raise PerturbationTooLarge(
                "perturbation exceeds delta0",
                bound="delta0", value=supd, limit=self.delta0,
            )


# ---------------------------------------------------------------------------
# Quadratic root tracking on the grid


def _track_root(dv, linear, quad, eta, eps):
    """smaller_root_vec(-d, linear, quad), behind the shift-budget gate on d."""
    budget = shift_budget(eta, eps)
    supd = float(np.max(np.abs(dv)))
    if supd > budget * (1.0 + 1e-12):
        raise PreconditionViolated(
            "perturbation exceeds the shift budget",
            bound="sup|d| <= shift_budget(eta, eps)", value=supd, limit=budget,
        )
    return smaller_root_vec(-dv, linear, quad)


def quadratic_correction(
    f: GridFunction, g: GridFunction, d: GridFunction, eta: float, eps: float
) -> GridFunction:
    """phi with f*phi + g*phi**2 = d node-wise, |phi| <= eps.

    Requires |f| >= eta everywhere, |g| unimodular, and sup|d| within
    shift_budget(eta, eps).
    """
    fv, gv, dv = f.values, g.values, d.values
    if float(np.min(np.abs(fv))) < eta * (1.0 - 1e-12):
        raise PreconditionViolated(
            "linear coefficient drops below the eta floor",
            bound="min|f| >= eta", value=float(np.min(np.abs(fv))), limit=eta,
        )
    if float(np.max(np.abs(np.abs(gv) - 1.0))) > 1e-9:
        raise PreconditionViolated("quadratic coefficient must be unimodular", bound="|g| = 1")
    phi = _track_root(dv, fv, gv, eta, eps)
    res = np.abs(fv * phi + gv * phi * phi - dv)
    _verify(float(np.max(res)) <= 1e-10 * (1.0 + float(np.max(np.abs(dv)))), "root identity residual")
    _verify(float(np.max(np.abs(phi))) <= eps * (1.0 + 1e-9), "tracked root exceeds eps")
    return GridFunction(f.domain, phi)


def phase_offset(z: complex, w: complex) -> complex:
    """Unimodular c with |z + c*w|**2 = |z|**2 + |w|**2."""
    if z == 0 or w == 0:
        raise ZeroArgument("phase offset needs nonzero arguments")
    u = np.conj(w) * z
    return complex(1j * u / abs(u))


# ---------------------------------------------------------------------------
# Unimodular extension across gaps


def _runs(idx, group):
    """Maximal runs of consecutive node indices in the sorted array `idx` that
    keep one `group` value: arrays (lo, hi, group, first), `first` being the
    position in `idx` where each run starts."""
    if idx.size == 0:
        empty = np.zeros(0, dtype=np.intp)
        return empty, empty, empty, empty
    brk = np.flatnonzero((np.diff(idx) != 1) | (np.diff(group) != 0)) + 1
    first = np.concatenate(([0], brk))
    last = np.concatenate((brk - 1, [idx.size - 1]))
    return idx[first], idx[last], group[first], first


def circle_extend(partial, defined=None, pin_left=None, pin_right=None, segments=None):
    """Fill undefined index gaps of the array `partial` with unit-circle values.

    Defined entries must be unimodular; undefined entries are NaN (or given
    by a `defined` mask).  Interior gaps are bridged by the shortest arc
    between their endpoint values, counterclockwise on antipodal ties.
    Boundary gaps extend the single adjacent defined value as a constant,
    unless a pinned boundary value is supplied, in which case the gap is
    bridged toward the pin.  With nothing defined the result is constant
    one.  Defined entries are preserved exactly.  `segments`, a pair of
    arrays (first, last), extends each node range [first[i], last[i]] as an
    array of its own and leaves the nodes outside every range as they are.
    """
    vals = np.array(partial, dtype=np.complex128)
    if defined is None:
        mask = ~np.isnan(vals)
    else:
        mask = np.array(defined, dtype=bool)
        if mask.shape != vals.shape:
            raise ValueError("mask shape mismatch")
    for pin, idx in ((pin_left, 0), (pin_right, vals.size - 1)):
        if pin is not None:
            if abs(abs(pin) - 1.0) > 1e-9:
                raise NonUnimodularInput("pinned boundary value must be unimodular")
            vals[idx] = pin
            mask[idx] = True
    dev = np.abs(vals)
    dev -= 1.0
    np.abs(dev, out=dev)
    if float(np.max(dev, where=mask, initial=0.0)) > 1e-9:
        raise NonUnimodularInput("defined values must lie on the unit circle")

    seg_lo, seg_hi = segments if segments is not None else (np.zeros(1, dtype=np.intp), np.array([vals.size - 1]))
    idx = np.flatnonzero(~mask)
    seg = np.searchsorted(seg_lo, idx, side="right") - 1
    inside = idx <= np.append(seg_hi, -1)[seg]  # seg = -1: before every segment
    lo, hi, seg, _first = _runs(idx[inside], seg[inside])
    for i, j, k in zip(lo.tolist(), hi.tolist(), seg.tolist()):
        left = vals[i - 1] if i > seg_lo[k] else None
        right = vals[j + 1] if j < seg_hi[k] else None
        if left is not None and right is not None:
            # angle() maps antipodal pairs to +pi: counterclockwise tie-break
            delta = float(np.angle(right / left))
            span = j - i + 2
            ks = np.arange(1, j - i + 2)
            vals[i:j + 1] = left * np.exp(1j * delta * ks / span)
        elif left is not None:
            vals[i:j + 1] = left
        elif right is not None:
            vals[i:j + 1] = right
        else:
            vals[i:j + 1] = 1.0
    return vals


# ---------------------------------------------------------------------------
# Sublevel covers


@dataclass(frozen=True)
class IntervalCover:
    """Disjoint closed node-index ranges, strictly increasing."""

    intervals: tuple

    def __post_init__(self):
        prev_hi = -2
        for lo, hi in self.intervals:
            if not (0 <= lo <= hi):
                raise ValueError("invalid cover interval")
            if lo <= prev_hi + 1:
                raise ValueError("cover intervals must be disjoint and increasing")
            prev_hi = hi


def _plan_cover(h, eta1, eta2, lefts, rights, cover, nondeg):
    """One cover tier on intervals [lefts[k], rights[k]] laid end to end.

    Keeps the maximal runs of {h < eta2} inside each interval that contain a
    node of {h <= eta1} or an interval end pinned as degenerate (cover[k] is
    the (left, right) pair of such flags; nondeg[k] flags ends pinned as
    non-degenerate).  Returns (runs, refused): the kept runs as (k, lo, hi)
    in node order, and a map from each interval the tier refuses to its
    CoverInfeasible (see _cover_refusal).
    """
    low = np.flatnonzero(h < eta2)
    lo, hi, k, first = _runs(low, np.searchsorted(lefts, low, side="right") - 1)
    inner = np.logical_or.reduceat(h[low] <= eta1, first) if first.size else first.astype(bool)
    at_left, at_right = lo == lefts[k], hi == rights[k]
    keep = inner | (at_left & cover[k, 0]) | (at_right & cover[k, 1])
    lo, hi, k, at_left, at_right = (x[keep] for x in (lo, hi, k, at_left, at_right))
    bad = (~at_left & (h[lo] <= eta1)) | (~at_right & (h[hi] <= eta1))
    bad |= (at_left & nondeg[k, 0]) | (at_right & nondeg[k, 1]) | ((at_left | at_right) & (lo == hi))
    pin_bad = (cover[:, 0] & (h[lefts] >= eta2)) | (cover[:, 1] & (h[rights] >= eta2))
    runs = list(zip(k.tolist(), lo.tolist(), hi.tolist()))
    refused = {}
    for j in sorted(set(np.flatnonzero(pin_bad).tolist()) | set(k[bad].tolist())):
        own = [(lo_, hi_) for k_, lo_, hi_ in runs if k_ == j]
        refused[j] = _cover_refusal(h, eta1, eta2, int(lefts[j]), int(rights[j]), cover[j], nondeg[j], own)
    return runs, refused


def _cover_refusal(h, eta1, eta2, s, e, cover, nondeg, runs):
    """The first refusal of one cover tier on the interval [s, e] with kept
    runs `runs`, in check order: an end pinned as degenerate outside the
    sublevel set; a seam (a run end that is not an interval end) at
    h <= eta1, i.e. the grid jumps from the inner to the outer threshold
    between adjacent nodes; a run absorbing an end pinned as non-degenerate,
    or a single-node run at an interval end."""
    for pinned, node, side in ((cover[0], s, "left"), (cover[1], e, "right")):
        if pinned and h[node] >= eta2:
            return CoverInfeasible(f"{side} endpoint pinned as degenerate but not in the sublevel set")
    for lo, hi in runs:
        for node, seam in ((lo, lo > s), (hi, hi < e)):
            if seam and h[node] <= eta1:
                return CoverInfeasible(f"cover seam at node {node - s} has h <= eta1; refine the grid")
    for lo, hi in runs:
        for absorbs, at_end in ((nondeg[0], lo == s), (nondeg[1], hi == e)):
            if at_end and absorbs:
                return CoverInfeasible("cover run absorbed a non-degenerate pinned endpoint")
            if at_end and lo == hi:
                return CoverInfeasible("single-node boundary cover run; refine the grid")
    _verify(False, "cover tier refused without a reason")


def sublevel_cover(h: GridFunction, eta1: float, eta2: float) -> IntervalCover:
    """Node-index cover with {h <= eta1} inside and {h < eta2} outside bound.

    Raises CoverInfeasible when a run's seam endpoint (one that is not a
    domain endpoint) sits at h <= eta1.
    """
    if not 0.0 < eta1 < eta2:
        raise PreconditionViolated("need 0 < eta1 < eta2")
    values = np.asarray(h.values)
    if float(np.max(np.abs(values.imag))) > 0.0:
        raise PreconditionViolated("sublevel function must be real-valued")
    hv = values.real
    if float(np.min(hv)) < 0.0:
        raise PreconditionViolated("sublevel function must be nonnegative")
    no_pins = np.zeros((1, 2), dtype=bool)
    runs, refused = _plan_cover(hv, eta1, eta2, np.zeros(1, dtype=np.intp), np.array([hv.size - 1]), no_pins, no_pins)
    if refused:
        raise refused[0]
    return IntervalCover(tuple((lo, hi) for _k, lo, hi in runs))


# ---------------------------------------------------------------------------
# Non-degeneracy phases

# numpy computes `a * tmp` in place in the temporary `tmp` once it holds this
# many bytes, which swaps the operands of a complex product.
_ELIDE_BYTES = 256 * 1024


def _phase_formula(h1, h2, counts):
    """1j*u/|u| with u = h1*conj(h2), on consecutive segments of counts[i]
    entries, each rounded as it is on an array of its own: a segment of
    >= 256 KiB multiplies as (conj(h2), h1), as numpy's in-place reuse of
    the conj() temporary does, a smaller one as (h1, conj(h2)), and one of a
    single entry out of place (an in-place product of one element rounds
    differently)."""
    u = np.conj(h2)
    if u.size == 0:
        return u
    swapped = np.asarray(counts) * u.itemsize >= _ELIDE_BYTES
    ends = np.cumsum(counts)
    change = np.flatnonzero(swapped[1:] != swapped[:-1])
    starts = np.concatenate(([0], ends[change]))
    stops = np.concatenate((ends[change], ends[-1:]))
    for a, b, swap in zip(starts.tolist(), stops.tolist(), swapped[np.r_[0, change + 1]].tolist()):
        x, y = h1[a:b], u[a:b]
        if swap:
            np.multiply(y, x, out=y)
        elif b - a == 1:
            y[...] = x * y
        else:
            np.multiply(x, y, out=y)
    r = np.abs(u)
    u *= 1j
    u /= r
    return u


class _Pieces(NamedTuple):
    """Consecutive node ranges that partition a grid: complement segments,
    where the rotation phase is tracked, and the ranges cover runs own."""

    starts: np.ndarray  # first node of each piece, increasing from 0
    tracked: np.ndarray  # per piece: whether it is a complement segment
    pin_nodes: np.ndarray = np.zeros(0, dtype=np.intp)  # segment ends with a pinned rotation
    pin_beta2: np.ndarray = np.zeros(0, dtype=np.complex128)  # the rotation pinned there

    def bounds(self, n, tracked=True):
        """(first, last) node arrays of the segments, or with tracked=False
        of the ranges cover runs own."""
        pick = self.tracked if tracked else ~self.tracked
        return self.starts[pick], np.append(self.starts[1:], n)[pick] - 1


_ONE_SEGMENT = _Pieces(np.zeros(1, dtype=np.intp), np.ones(1, dtype=bool))  # a whole grid, unpinned


def _nondeg_phase_arrays(h1, h2, eta, pieces, h=None):
    """(beta2, f_quad) on every segment of `pieces`, bit for bit as on that
    segment alone: the rotation phase and the rotated linear coefficient
    f_quad = h1 + h2*beta2, with |f_quad| >= eta certified.  On the ranges
    cover runs own both are 1.  `h` is |h1|^2 + |h2|^2 when the caller has
    it; it is overwritten.  Pins are taken as given (plan_intervals checks
    them).  A plan never refuses here: its segments have h > eta1 = eta^2."""
    n = h1.size
    a1 = np.abs(h1)
    a2 = np.abs(h2)
    if h is None:
        h = a1 * a1 + a2 * a2
    starts, tracked = pieces.starts, pieces.tracked
    hmin = np.minimum.reduceat(h, starts)[tracked]
    low = hmin < eta * eta * (1.0 - 1e-12)
    if low.any():
        raise PreconditionViolated(
            "pair is not jointly eta^2-non-degenerate",
            bound="min(|h1|^2+|h2|^2) >= eta^2", value=float(hmin[np.argmax(low)]), limit=eta * eta,
        )
    eta0_sq = np.minimum(hmin - eta * eta, 0.4999 * eta * eta)
    margin = eta0_sq > 0.0
    if not margin.all():
        factor_min = np.minimum.reduceat(np.minimum(a1, a2), starts)[tracked]
        if np.any(~margin & (factor_min <= 0.0)):
            raise PreconditionViolated("zero non-degeneracy margin at a node where a factor vanishes")
    eta0 = np.sqrt(eta0_sq, out=np.ones_like(eta0_sq), where=margin)
    # largest tau with sqrt(eta^2 + (1-tau^2)*eta0^2) - tau*eta0 >= eta;
    # with no margin every node is defined
    with np.errstate(invalid="ignore"):
        tau = np.minimum(1.0, (np.sqrt(eta * eta + 2.0 * eta0_sq) - eta) / (2.0 * eta0)) * 0.999
    theta = np.full(starts.size, np.inf)  # cover-owned nodes are never defined
    theta[tracked] = np.where(margin, tau * eta0, -np.inf)
    for s, e, t in zip(starts.tolist(), starts[1:].tolist() + [n], theta.tolist()):
        h[s:e] = t  # h is spent: it holds each node's theta from here on
    defined = a1 > h
    defined &= a2 > h
    del a1, a2, h  # freed before the phases allocate their arrays
    counts = np.add.reduceat(defined, starts, dtype=np.intp)[tracked]
    if counts.sum() == n:
        beta2 = _phase_formula(h1, h2, counts)
    else:
        beta2 = np.ones(n, dtype=np.complex128)
        beta2[defined] = _phase_formula(h1[defined], h2[defined], counts)
    beta2[pieces.pin_nodes] = pieces.pin_beta2
    defined[pieces.pin_nodes] = True
    beta2 = circle_extend(beta2, defined, segments=pieces.bounds(n))
    f_quad = h1 + h2 * beta2
    for s, e in zip(*(x.tolist() for x in pieces.bounds(n, tracked=False))):
        f_quad[s:e + 1] = 1.0  # >= eta: cover runs exist only where eta = eps1 < 1
    _verify(float(np.min(np.abs(f_quad))) >= eta * (1.0 - 1e-12), "rotated lower bound lost")
    return beta2, f_quad


def nondeg_phases(h1: GridFunction, h2: GridFunction, eta: float) -> tuple[GridFunction, GridFunction]:
    """Unimodular beta1 (constant one) and beta2 with |h1*beta1 + h2*beta2| >= eta.

    Outside the small-value region of either factor, beta2 is the rotation
    that makes the moduli add Pythagorean-style; inside, it is bridged by
    circle_extend.
    """
    if h1.domain != h2.domain:
        raise PreconditionViolated("phases need a common domain")
    beta2, _f_quad = _nondeg_phase_arrays(h1.values, h2.values, eta, _ONE_SEGMENT)
    return GridFunction(h1.domain, np.ones_like(beta2)), GridFunction(h1.domain, beta2)


def perturb_nondegenerate(
    h1: GridFunction, h2: GridFunction, d: GridFunction, eta: float, eps: float
) -> tuple[GridFunction, GridFunction]:
    """z1, z2 with h1*z1 + h2*z2 + z1*z2 = d node-wise and |z_i| <= eps.

    z1 = beta1*phi and z2 = beta2*phi where phi tracks the small root of the
    quadratic with linear coefficient h1*beta1 + h2*beta2 and unimodular
    leading coefficient beta1*beta2.
    """
    if not (h1.domain == h2.domain == d.domain):
        raise PreconditionViolated("inputs need a common domain")
    beta2, f_quad = _nondeg_phase_arrays(h1.values, h2.values, eta, _ONE_SEGMENT)
    phi = _track_root(d.values, f_quad, beta2, eta, eps)
    return GridFunction(h1.domain, phi), GridFunction(h1.domain, beta2 * phi)


# ---------------------------------------------------------------------------
# Direct factorization with prescribed boundary data


def _half_arrays(psi, eps, za, wa, zhat, side="left"):
    """Factor psi on a local grid with the (za, wa) pair pinned at the `side`
    end and both factors equal to zhat at the other end."""
    if side == "right":
        z1, z2 = _half_arrays(psi[::-1].copy(), eps, za, wa, zhat)
        return z1[::-1], z2[::-1]
    m = psi.size
    p, q = (za, wa) if abs(za) >= abs(wa) else (wa, za)
    radius = np.maximum(np.sqrt(np.abs(psi)), np.linspace(abs(p), abs(zhat), m))
    ph_p = float(np.angle(p)) if p != 0 else 0.0
    ph_h = float(np.angle(zhat)) if zhat != 0 else 0.0
    delta = float(np.angle(np.exp(1j * (ph_h - ph_p))))
    theta = ph_p + delta * np.linspace(0.0, 1.0, m)
    big = radius * np.exp(1j * theta)
    big[0] = p
    big[-1] = zhat
    other = np.divide(psi, big, out=np.zeros_like(big), where=big != 0)
    other[0] = q
    other[-1] = zhat
    if abs(za) >= abs(wa):
        return big, other
    return other, big


def factor_halfboundary(
    psi: GridFunction, eps: float, za: complex, wa: complex, zhat: complex,
    side: str = "left",
) -> tuple[GridFunction, GridFunction]:
    """Z1*Z2 = psi with the full pair (za, wa) prescribed at one end and the
    shared square-root value zhat at the other.

    The larger-modulus factor follows max(sqrt|psi|, linear modulus ramp)
    with shortest-arc phase; the other factor is the exact quotient, zero
    where the first vanishes (which forces psi to vanish there too).
    """
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    pv = psi.values
    _check_budget(pv, eps, (za, wa))
    end = 0 if side == "left" else -1
    other = -1 if side == "left" else 0
    _check_pair(za, wa, pv[end])
    if abs(zhat * zhat - pv[other]) > RESIDUAL_TOL * (1.0 + abs(pv[other])):
        raise BoundaryMismatch("zhat^2 does not match psi at the far end")
    z1, z2 = _half_arrays(pv, eps, za, wa, zhat, side)
    return GridFunction(psi.domain, z1), GridFunction(psi.domain, z2)


def _check_budget(psi, eps, pins):
    sup_psi = float(np.max(np.abs(psi)))
    if sup_psi > eps * eps * (1.0 + 1e-9):
        raise NormBudgetExceeded(
            f"sup|psi| = {sup_psi} exceeds eps^2 = {eps * eps}"
        )
    for z in pins:
        if abs(z) > eps * (1.0 + 1e-9):
            raise NormBudgetExceeded(f"boundary value modulus {abs(z)} exceeds eps = {eps}")


def _check_pair(z, w, target):
    if abs(z * w - target) > RESIDUAL_TOL * (1.0 + abs(target)):
        raise BoundaryMismatch("boundary pair product does not match psi")


def _factor_arrays(psi, eps, za, wa, zb, wb):
    m = psi.size
    if m == 2:
        return (
            np.asarray([za, zb], dtype=np.complex128),
            np.asarray([wa, wb], dtype=np.complex128),
        )
    mid = m // 2
    zhat = complex(np.sqrt(psi[mid]))
    l1, l2 = _half_arrays(psi[: mid + 1], eps, za, wa, zhat)
    r1, r2 = _half_arrays(psi[mid:], eps, zb, wb, zhat, "right")
    z1 = np.concatenate([l1, r1[1:]])
    z2 = np.concatenate([l2, r2[1:]])
    return z1, z2


def factor_interval(
    psi: GridFunction, eps: float, za: complex, wa: complex, zb: complex, wb: complex
) -> tuple[GridFunction, GridFunction]:
    """Z1*Z2 = psi with full boundary pairs prescribed at both ends.

    Splits at the middle grid node, takes the principal square root of psi
    there as the shared value, and glues the two half constructions.
    """
    if psi.domain.n < 2:
        raise PreconditionViolated("need at least two nodes")
    pv = psi.values
    _check_budget(pv, eps, (za, wa, zb, wb))
    _check_pair(za, wa, pv[0])
    _check_pair(zb, wb, pv[-1])
    z1, z2 = _factor_arrays(pv, eps, za, wa, zb, wb)
    return GridFunction(psi.domain, z1), GridFunction(psi.domain, z2)


# ---------------------------------------------------------------------------
# The full pipeline


@dataclass(frozen=True)
class EndpointPin:
    """Prescribed factorization data at a grid endpoint (graph gluing).

    kind "nondeg": the endpoint sits in a non-degenerate region; beta2 pins
    the rotation phase there and (d1, d2) are the agreed perturbation values.
    kind "cover": the endpoint is jointly degenerate; (za, wa) prescribe the
    factor values f+d1, g+d2 of the direct factorization.  A pin with another
    kind, without the fields its kind needs, or with |beta2| != 1 is refused
    when it is built.
    """

    kind: str
    d1: complex
    d2: complex
    beta2: complex | None = None
    za: complex | None = None
    wa: complex | None = None
    _NEEDS = {"cover": ("d1", "d2", "za", "wa"), "nondeg": ("d1", "d2", "beta2")}  # the fields each kind needs

    def __post_init__(self):
        needs = self._NEEDS.get(self.kind)
        if needs is None:
            raise PreconditionViolated(
                f"unknown endpoint pin kind {self.kind!r}", bound="kind in ('cover', 'nondeg')", value=self.kind,
            )
        missing = ", ".join(name for name in needs if getattr(self, name) is None)
        if missing:
            raise PreconditionViolated(
                f"a {self.kind!r} pin needs {missing}", bound=f"{missing} given for kind {self.kind!r}",
            )
        if self.kind == "nondeg" and not abs(abs(complex(self.beta2)) - 1.0) <= 1e-9:
            raise NonUnimodularInput("pinned boundary value must be unimodular")


@dataclass(frozen=True)
class FactorizationResult:
    """Certified perturbations with their residual and sup-norm bounds."""

    d1: GridFunction
    d2: GridFunction
    residual: float
    bound1: float
    bound2: float
    meta: dict = field(default_factory=dict, compare=False)

    @classmethod
    def of(cls, domain, solved) -> "FactorizationResult":
        """Wrap solve_interval's (d1, d2, meta, residual, bound1, bound2);
        the arrays are taken as they are and made read-only."""
        d1, d2, meta, residual, bound1, bound2 = solved
        return cls(
            d1=GridFunction._trusted(domain, d1), d2=GridFunction._trusted(domain, d2),
            residual=residual, bound1=bound1, bound2=bound2, meta=meta,
        )

    @classmethod
    def zero(cls, domain, cfg: PipelineConfig) -> "FactorizationResult":
        """The result for d = 0, where no pipeline runs."""
        zero = GridFunction._trusted(domain, np.zeros(domain.n, dtype=np.complex128))
        meta = _meta(cfg, cfg.eta2, 5.0 * cfg.epsilon1, ())
        return cls(d1=zero, d2=zero, residual=0.0, bound1=0.0, bound2=0.0, meta=meta)

    def to_json(self) -> dict:
        return {
            "d1": self.d1.to_json(),
            "d2": self.d2.to_json(),
            "residual": repr(self.residual),
            "bound1": repr(self.bound1),
            "bound2": repr(self.bound2),
            "constants": {k: repr(v) if isinstance(v, float) else v for k, v in self.meta.items()},
        }


def _pinned(pin, kind):
    """Whether `pin` is an EndpointPin of `kind` ("cover" or "nondeg")."""
    return pin is not None and pin.kind == kind


def root_pair(psi):
    """The square-root boundary pair (z, psi / z), z = sqrt(psi); (z, 0) at psi = 0.

    psi keeps its caller's type: numpy's and Python's complex division round
    differently.
    """
    z = complex(np.sqrt(psi))
    return z, (psi / z if z != 0 else 0j)


def _meta(cfg, eta2, eps_cover, runs):
    return {
        "epsilon0": cfg.epsilon0,
        "epsilon1": cfg.epsilon1,
        "delta0": cfg.delta0,
        "eta1": cfg.eta1,
        "eta2": eta2,
        "eps_cover": eps_cover,
        "cover": [list(r) for r in runs],
    }


@dataclass(frozen=True, eq=False)
class IntervalPlan:
    """What the pipeline computes before seeing d, for intervals laid end to
    end in fv/gv (interval k on nodes offsets[k] .. offsets[k+1]-1): each
    interval's cover tier and sublevel cover and, on the complement
    segments, the rotation phase beta2 and rotated coefficient f_quad.
    beta2 and f_quad span the whole grid and are 1 where cover runs own the
    nodes."""

    fv: np.ndarray
    gv: np.ndarray
    cfg: PipelineConfig
    offsets: np.ndarray
    pins: tuple  # (pin_left, pin_right) per interval, EndpointPin or None
    tiers: tuple  # (eta2, eps_cover) per interval
    runs: tuple  # per interval: its cover runs (lo, hi), interval-local
    cover: tuple  # (k, lo, hi, own_lo, own_stop) per cover run, global
    pieces: _Pieces
    beta2: np.ndarray
    f_quad: np.ndarray
    pinned: tuple  # (nodes, d1, d2, tol) arrays of the pinned interval ends

    @property
    def segments(self):
        """(s, e, beta2, f_quad) per complement segment: its first and last
        node and its stretch of the phase arrays."""
        return tuple(
            (s, e, self.beta2[s:e + 1], self.f_quad[s:e + 1])
            for s, e in zip(*(x.tolist() for x in self.pieces.bounds(self.fv.size)))
        )


def plan_intervals(fv, gv, eps0, offsets, pins) -> IntervalPlan:
    """plan_interval for intervals laid end to end in fv/gv: interval k on
    nodes offsets[k] .. offsets[k+1]-1, with pins[k] = (pin_left, pin_right).

    Every interval gets the cover tier, cover and phases it gets alone, bit
    for bit, and one refusing interval refuses the plan: the first one in
    order that the cover refuses, else the first end pinned as
    non-degenerate where |f + beta2*g| < epsilon1.
    """
    cfg = PipelineConfig.for_target(eps0)
    offsets = np.asarray(offsets, dtype=np.intp)
    lefts, rights = offsets[:-1], offsets[1:] - 1
    ends = np.stack((lefts, rights), axis=1).ravel().tolist()
    flat = [pin for pair in pins for pin in pair]
    cover, nondeg = (np.array([_pinned(pin, kind) for pin in flat]).reshape(-1, 2) for kind in ("cover", "nondeg"))

    h = np.abs(fv) ** 2 + np.abs(gv) ** 2
    eps1 = cfg.epsilon1
    # Wider fallback tier keeps every bound: seam moduli < 3*eps1 and
    # eps_cover + 3*eps1 <= 7*eps1 = eps0.
    first, wide = (cfg.eta2, 5.0 * eps1), (9.0 * eps1 * eps1, 4.0 * eps1)
    tiers = [first] * len(pins)
    runs, refused = _plan_cover(h, cfg.eta1, first[0], lefts, rights, cover, nondeg)
    if refused:
        runs2, refused2 = _plan_cover(h, cfg.eta1, wide[0], lefts, rights, cover, nondeg)
        for k in sorted(refused):
            if k in refused2:
                raise refused2[k]
            tiers[k] = wide
        runs = sorted([r for r in runs if r[0] not in refused] + [r for r in runs2 if r[0] in refused])

    local = [[] for _ in pins]
    rows = []
    for k, lo, hi in runs:
        s, e = ends[2 * k], ends[2 * k + 1]
        local[k].append((lo - s, hi - s))
        rows.append((k, lo, hi, lo if lo == s else lo + 1, hi + 1 if hi == e else hi))
    owned = {r[3] for r in rows}
    starts = sorted(owned.union(ends[::2], (r[4] for r in rows)) - {fv.size})
    nodes = np.array(ends, dtype=np.intp)[nondeg.ravel()]
    rotation = np.array([pin.beta2 for pin in flat if _pinned(pin, "nondeg")], dtype=np.complex128)
    rotated = np.abs(fv[nodes] + gv[nodes] * rotation)  # the phase step's lower bound, in its formula
    low = np.flatnonzero(~(rotated >= eps1 * (1.0 - 1e-12)))
    if low.size:
        raise PreconditionViolated(
            f"pinned rotation at node {int(nodes[low[0]])} brings |f + beta2*g| below epsilon1",
            bound="|f + beta2*g| >= epsilon1", value=float(rotated[low[0]]), limit=eps1,
        )
    pieces = _Pieces(
        np.array(starts, dtype=np.intp), np.array([s not in owned for s in starts], dtype=bool), nodes, rotation,
    )
    handed = [h]
    del h  # the phases overwrite h and free it: keep no reference here
    beta2, f_quad = _nondeg_phase_arrays(fv, gv, eps1, pieces, handed.pop())

    at = [(node, pin) for node, pin in zip(ends, flat) if pin is not None]
    pinned = (
        np.array([node for node, _pin in at], dtype=np.intp),
        np.array([pin.d1 for _node, pin in at], dtype=np.complex128),
        np.array([pin.d2 for _node, pin in at], dtype=np.complex128),
        np.array([RESIDUAL_TOL * (1.0 + abs(pin.d1) + abs(pin.d2)) for _node, pin in at]),
    )
    return IntervalPlan(
        fv, gv, cfg, offsets, tuple(pins), tuple(tiers), tuple(local),
        tuple(rows), pieces, beta2, f_quad, pinned,
    )


def plan_interval(fv, gv, eps0, pin_left=None, pin_right=None) -> IntervalPlan:
    """The d-independent part of the pipeline on one interval; refuses an
    infeasible cover or phase here.  One plan serves solve_interval for any
    number of d.  The plan holds fv and gv by reference: they must not
    change while it is in use."""
    return plan_intervals(fv, gv, eps0, (0, fv.size), ((pin_left, pin_right),))


_CLAIMS = ("factorization residual out of tolerance", "d1 exceeds eps0", "d2 exceeds eps0")


def _solve_ragged(plan: IntervalPlan, dv):
    """The d-dependent part, ungated, for dv of the plan's shape: (d1, d2,
    rows) with d1, d2 over the whole grid and one row (meta, residual,
    bound1, bound2, failed) per interval, where residual =
    max|(f+d1)(g+d2) - (f*g+d)|, bound_i = max|d_i| and `failed` names the
    first certificate claim that fails (residual, then d1, then d2), or is
    None when the interval's result is certified."""
    cfg = plan.cfg
    fv, gv = plan.fv, plan.gv
    alpha = np.negative(dv)
    for _k, _lo, _hi, a, b in plan.cover:
        alpha[a:b] = 0.0  # nodes the cover runs own: a root of no use, never a tie
    try:
        # solve_interval's gate, sup|d| <= delta0 = shift_budget(eps1, eps1), is this step's budget
        phi = smaller_root_vec(alpha, plan.f_quad, plan.beta2)
    except EqualModulusRoots:
        for s, e, beta2, f_quad in plan.segments:  # the tie as indexed within its segment
            smaller_root_vec(alpha[s:e + 1], f_quad, beta2)
        raise
    d1 = plan.beta2 * phi
    d2 = phi
    target = fv * gv + dv

    def end_pair(k, seam, pin):
        # Boundary pair of a cover run at node k: a seam takes the tracked
        # values, an interval end its cover pin, or else the square-root pair.
        if seam:
            return complex(fv[k] + d1[k]), complex(gv[k] + d2[k])
        if _pinned(pin, "cover"):
            return pin.za, pin.wa
        return root_pair(target[k])

    offsets = plan.offsets
    for k, lo, hi, a, b in plan.cover:
        pin_left, pin_right = plan.pins[k]
        za, wa = end_pair(lo, lo > offsets[k], pin_left)
        zb, wb = end_pair(hi, hi < offsets[k + 1] - 1, pin_right)
        z1, z2 = _factor_arrays(target[lo:hi + 1], plan.tiers[k][1], za, wa, zb, wb)
        # seam nodes belong to the neighbouring segments
        d1[a:b] = z1[a - lo:b - lo] - fv[a:b]
        d2[a:b] = z2[a - lo:b - lo] - gv[a:b]

    nodes, pin_d1, pin_d2, tol = plan.pinned
    if nodes.size:
        # hypot rounds as Python's abs of a complex does, np.abs does not
        err1, err2 = (np.hypot(x.real, x.imag) for x in (d1[nodes] - pin_d1, d2[nodes] - pin_d2))
        err = np.where(err2 > err1, err2, err1)  # max(err1, err2)
        d1[nodes] = pin_d1
        d2[nodes] = pin_d2
        bad = np.flatnonzero(err > tol)
        if bad.size:
            raise VertexInconsistency(
                f"edge construction disagrees with the pinned endpoint by {float(err[bad[0]])}"
            )

    starts = offsets[:-1]
    residual = np.maximum.reduceat(np.abs((fv + d1) * (gv + d2) - target), starts).tolist()
    scale = np.maximum.reduceat(np.abs(target), starts).tolist()
    bound1 = np.maximum.reduceat(np.abs(d1), starts).tolist()
    bound2 = np.maximum.reduceat(np.abs(d2), starts).tolist()
    rows = []
    for k, (r, sc, b1, b2) in enumerate(zip(residual, scale, bound1, bound2)):
        holds = (r <= RESIDUAL_TOL * (1.0 + sc), b1 <= cfg.epsilon0 * (1.0 + 1e-9), b2 <= cfg.epsilon0 * (1.0 + 1e-9))
        failed = next((claim for ok, claim in zip(holds, _CLAIMS) if not ok), None)
        rows.append((_meta(cfg, *plan.tiers[k], plan.runs[k]), r, b1, b2, failed))
    return d1, d2, tuple(rows)


def _solve(plan: IntervalPlan, dv):
    """_solve_ragged on a one-interval plan: (d1, d2, meta, residual, bound1,
    bound2, failed)."""
    d1, d2, (row,) = _solve_ragged(plan, dv)
    return (d1, d2, *row)


def solve_intervals(plan: IntervalPlan, dv):
    """_solve_ragged behind the delta0 gate: (d1, d2, rows) with one row
    (meta, residual, bound1, bound2) per interval, each certified; a failed
    claim is an internal invariant failure."""
    if dv.shape != plan.fv.shape:
        raise PreconditionViolated("perturbation must live on the plan's grid")
    plan.cfg.check_radius(float(np.max(np.abs(dv))))
    d1, d2, rows = _solve_ragged(plan, dv)
    failed = next((row[4] for row in rows if row[4] is not None), None)
    _verify(failed is None, failed)
    return d1, d2, tuple(row[:4] for row in rows)


def solve_interval(plan: IntervalPlan, dv):
    """solve_intervals on a one-interval plan: (d1, d2, meta, residual,
    bound1, bound2) of a certified result."""
    d1, d2, (row,) = solve_intervals(plan, dv)
    return (d1, d2, *row)


def factorize_interval_arrays(fv, gv, dv, eps0, *, pin_left=None, pin_right=None):
    """solve_interval(plan_interval(...), dv), except that a d past delta0 is
    refused before any refusal of the plan."""
    try:
        plan = plan_interval(fv, gv, eps0, pin_left, pin_right)
    except OpenMultError:
        PipelineConfig.for_target(eps0).check_radius(float(np.max(np.abs(dv))))
        raise
    return solve_interval(plan, dv)


def open_mult_interval(
    f: GridFunction, g: GridFunction, d: GridFunction, eps0: float
) -> FactorizationResult:
    """Factor the perturbed product: (f+d1)(g+d2) = f*g + d with |d_i| <= eps0.

    Requires sup|d| <= delta0(eps0); the same radius works for every (f, g)
    pair, with no per-instance tuning.
    """
    if not (f.domain == g.domain == d.domain):
        raise PreconditionViolated("f, g, d need a common domain")
    cfg = PipelineConfig.for_target(eps0)
    if not np.any(d.values):
        return FactorizationResult.zero(f.domain, cfg)
    solved = factorize_interval_arrays(f.values, g.values, d.values, eps0)
    return FactorizationResult.of(f.domain, solved)
