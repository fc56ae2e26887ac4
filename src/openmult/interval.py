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

from . import pyarith
from .errors import (
    BoundaryMismatch,
    CoverInfeasible,
    EqualModulusRoots,
    InternalInvariantError,
    NonUnimodularInput,
    NormBudgetExceeded,
    PerturbationTooLarge,
    PreconditionViolated,
    VertexInconsistency,
    ZeroArgument,
)
from .functions import GridFunction
from .quadratic import _untied, quotient, smaller_root_vec

RESIDUAL_TOL = 1e-9
UNDEFINED = complex(float("nan"), float("nan"))


def _verify(cond: bool, message: str):
    if not cond:
        raise InternalInvariantError(f"internal invariant failed: {message}")


# ---------------------------------------------------------------------------
# Constants of the construction


def shift_budget(eta: float, eps: float) -> float:
    """Admissible sup-norm of the right-hand side for root tracking.

    min(eps*eta/2, eta**2/5): twice this over eta stays below eps and
    strictly below eta/2, which keeps the tracked root separated and small.
    """
    if eta <= 0 or eps <= 0:
        raise PreconditionViolated("eta and eps must be positive", bound="eta > 0 and eps > 0")
    return min(eps * eta / 2.0, eta * eta / 5.0)


def delta0(eps0: float) -> float:
    """Certified perturbation radius for the interval pipeline.

    Equals eps0**2 / 245: the target bound is split as eps1 = eps0/7 and
    the radius is the tracking budget shift_budget(eps1, eps1) = eps1**2/5.
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
            raise PreconditionViolated("eps0 must lie in (0, 1)", bound="0 < eps0 < 1", value=eps0)
        eps1 = eps0 / 7.0
        if eps1 == 0.0:
            raise PreconditionViolated(
                "eps0 is too small: eps0/7 underflows to zero",
                bound="eps0/7 > 0 (no underflow)", value=eps0, limit=math.ulp(0.0) * 4,
            )
        return cls(epsilon0=eps0, epsilon1=eps1, eta1=eps1 * eps1, eta2=4.0 * eps1 * eps1,
                   delta0=shift_budget(eps1, eps1))

    @property
    def cover_tiers(self) -> tuple:
        """(eta2, eps_cover) of the narrow cover tier and of the wide fallback,
        which keeps every bound: seam moduli < 3*eps1, eps_cover + 3*eps1 <= eps0."""
        eps1 = self.epsilon1
        return (self.eta2, 5.0 * eps1), (9.0 * eps1 * eps1, 4.0 * eps1)

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
    """smaller_root_vec(-d, linear, quad) behind the shift-budget gate on d, a tie refused."""
    budget = shift_budget(eta, eps)
    supd = float(np.max(np.abs(dv)))
    if supd > budget * (1.0 + 1e-12):
        raise PreconditionViolated(
            "perturbation exceeds the shift budget",
            bound="sup|d| <= shift_budget(eta, eps)", value=supd, limit=budget,
        )
    return _untied(*smaller_root_vec(-dv, linear, quad))


def quadratic_correction(
    f: GridFunction, g: GridFunction, d: GridFunction, eta: float, eps: float
) -> GridFunction:
    """phi with f*phi + g*phi**2 = d node-wise, |phi| <= eps.

    Requires |f| >= eta everywhere, |g| unimodular, and sup|d| within
    shift_budget(eta, eps).
    """
    f._check_domain(g, d)
    fv, gv, dv = f.values, g.values, d.values
    low = float(np.min(np.abs(fv)))
    if low < eta * (1.0 - 1e-12):
        raise PreconditionViolated("linear coefficient drops below the eta floor",
                                   bound="min|f| >= eta", value=low, limit=eta)
    if float(np.max(np.abs(np.abs(gv) - 1.0))) > 1e-9:
        raise PreconditionViolated("quadratic coefficient must be unimodular", bound="|g| = 1")
    phi = _track_root(dv, fv, gv, eta, eps)
    res = np.abs(fv * phi + gv * phi * phi - dv)
    _verify(float(np.max(res)) <= 1e-10 * (1.0 + float(np.max(np.abs(dv)))), "root identity residual")
    _verify(float(np.max(np.abs(phi))) <= eps * (1.0 + 1e-9), "tracked root exceeds eps")
    return GridFunction(f.domain, phi)


def phase_offsets(z, w):
    """phase_offset per element of arrays z, w: c = 1j*u/|u| with
    u = conj(w)*z, rounded as numpy's complex scalars round it; 1j where
    1/|u| overflows (u zero or subnormal), where any unit rotation will do."""
    u = pyarith.mul(np.conj(w), z)
    r = pyarith.cabs(u)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(np.isinf(1.0 / r), 1j, pyarith.quot_real(pyarith.mul(1j, u), r))


def phase_offset(z: complex, w: complex) -> complex:
    """Unimodular c with |z + c*w|**2 = |z|**2 + |w|**2."""
    if z == 0 or w == 0:
        raise ZeroArgument("phase offset needs nonzero arguments", bound="z != 0 and w != 0")
    return complex(phase_offsets(np.complex128(z), np.complex128(w)))


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


def circle_extend(partial, defined=None, segments=None):
    """Fill undefined index gaps of the array `partial` with unit-circle values.

    Defined entries must be unimodular; undefined entries are NaN (or given
    by a `defined` mask).  Interior gaps are bridged by the shortest arc
    between their endpoint values, counterclockwise on antipodal ties.
    Boundary gaps extend the single adjacent defined value as a constant; a
    pinned end is a defined entry.  With nothing defined the result is
    constant one.  Defined entries are preserved exactly.  `segments`, a pair
    of arrays (first, last), extends each node range [first[i], last[i]] as
    an array of its own and leaves the nodes outside every range as they are.
    """
    vals = np.array(partial, dtype=np.complex128)
    if defined is None:
        mask = ~np.isnan(vals)
    else:
        mask = np.asarray(defined, dtype=bool)
        if mask.shape != vals.shape:
            raise ValueError("mask shape mismatch")
    dev = np.abs(vals)
    dev -= 1.0
    np.abs(dev, out=dev)
    if float(np.max(dev, where=mask, initial=0.0)) > 1e-9:
        raise NonUnimodularInput("defined values must lie on the unit circle", bound="|defined value| = 1")

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


_REFUSALS = (  # (CoverInfeasible message, the bound it names), in check order; h = |f|^2 + |g|^2
    ("left endpoint pinned as degenerate but not in the sublevel set", "h < eta2 at an end pinned 'cover'"),
    ("right endpoint pinned as degenerate but not in the sublevel set", "h < eta2 at an end pinned 'cover'"),
    ("cover seam at node {} has h <= eta1; refine the grid", "h > eta1 at a cover seam"),
    ("cover run absorbed a non-degenerate pinned endpoint", "no cover run at an end pinned 'nondeg'"),
    ("single-node boundary cover run; refine the grid", "cover runs at interval ends span >= 2 nodes"),
)


def _plan_cover(h, eta1, eta2, lefts, rights, cover, nondeg):
    """One cover tier on intervals [lefts[k], rights[k]] laid end to end.

    Keeps the maximal runs of {h < eta2} inside each interval that contain a
    node of {h <= eta1} or an interval end pinned as degenerate (cover[k] is
    the (left, right) pair of such flags; nondeg[k] flags ends pinned as
    non-degenerate).  Returns (runs, refused): the rows k, lo, hi of the kept
    runs in node order, and a map from each interval the tier refuses to the
    CoverInfeasible of its first failed check, in this order: an end pinned
    as degenerate outside the sublevel set; a seam (a run end that is not an
    interval end) at h <= eta1, i.e. the grid jumps from the inner to the
    outer threshold between adjacent nodes; then run by run, a run absorbing
    an end pinned as non-degenerate, or a single-node run at an interval end.
    """
    low = np.flatnonzero(h < eta2)
    lo, hi, k, first = _runs(low, np.searchsorted(lefts, low, side="right") - 1)
    inner = np.logical_or.reduceat(h[low] <= eta1, first) if first.size else first.astype(bool)
    at_left, at_right = lo == lefts[k], hi == rights[k]
    keep = inner | (at_left & cover[k, 0]) | (at_right & cover[k, 1])
    lo, hi, k, at_left, at_right = (x[keep] for x in (lo, hi, k, at_left, at_right))
    single = lo == hi
    seams = np.stack((~at_left & (h[lo] <= eta1), ~at_right & (h[hi] <= eta1)), axis=1)
    ends = np.stack((at_left & nondeg[k, 0], at_left & single, at_right & nondeg[k, 1], at_right & single), axis=1)
    pin_bad = cover & (h[np.stack((lefts, rights), axis=1)] >= eta2)
    (pj, pc), (sr, sc), (er, ec) = (np.nonzero(x) for x in (pin_bad, seams, ends))
    # each failed check as (interval, reason, node), in check order within an interval
    j = np.concatenate((pj, k[sr], k[er]))
    why = np.concatenate((pc, np.full_like(sr, 2), 3 + ec % 2))
    node = np.concatenate((pj, np.where(sc, hi[sr], lo[sr]) - lefts[k[sr]], er))  # the seam's, interval-local
    at = np.argsort(j, kind="stable")[::-1]  # an interval's first failed check is written last
    refused = {a: CoverInfeasible(_REFUSALS[b][0].format(c), bound=_REFUSALS[b][1], value=c if b == 2 else None)
               for a, b, c in zip(*(x[at].tolist() for x in (j, why, node)))}
    return np.stack((k, lo, hi)), refused


def sublevel_cover(h: GridFunction, eta1: float, eta2: float) -> IntervalCover:
    """Node-index cover with {h <= eta1} inside and {h < eta2} outside bound.

    Raises CoverInfeasible when a run's seam endpoint (one that is not a
    domain endpoint) sits at h <= eta1.
    """
    if not 0.0 < eta1 < eta2:
        raise PreconditionViolated("need 0 < eta1 < eta2", bound="0 < eta1 < eta2")
    values = np.asarray(h.values)
    if float(np.max(np.abs(values.imag))) > 0.0:
        raise PreconditionViolated("sublevel function must be real-valued", bound="h real")
    hv = values.real
    if float(np.min(hv)) < 0.0:
        raise PreconditionViolated("sublevel function must be nonnegative", bound="h >= 0", value=float(np.min(hv)))
    no_pins = np.zeros((1, 2), dtype=bool)
    runs, refused = _plan_cover(hv, eta1, eta2, np.zeros(1, dtype=np.intp), np.array([hv.size - 1]), no_pins, no_pins)
    if refused:
        raise refused[0]
    return IntervalCover(tuple(zip(*runs[1:].tolist())))


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


def _nondeg_phase_arrays(h1, h2, eta, starts=(0,), pins=None, hmin=None):
    """(beta2, f_quad) on segments laid end to end in h1/h2, segment i from
    index starts[i], each bit for bit as on that segment alone: the rotation
    phase and the rotated linear coefficient f_quad = h1 + h2*beta2, with
    |f_quad| >= eta certified.  `pins`, when given, is (index, beta2) arrays
    of the segment ends with a pinned rotation; pins are taken as given
    (plan_intervals checks them).  `hmin` is each segment's min of
    |h1|^2 + |h2|^2 when the caller has it.  A plan never refuses here: its
    segments have h > eta1 = eta^2."""
    n = h1.size
    starts = np.asarray(starts, dtype=np.intp)
    a1 = np.abs(h1)
    a2 = np.abs(h2)
    if hmin is None:
        hmin = np.minimum.reduceat(a1 * a1 + a2 * a2, starts)
    low = hmin < eta * eta * (1.0 - 1e-12)
    if low.any():
        raise PreconditionViolated(
            "pair is not jointly eta^2-non-degenerate",
            bound="min(|h1|^2+|h2|^2) >= eta^2", value=float(hmin[np.argmax(low)]), limit=eta * eta,
        )
    eta0_sq = np.minimum(hmin - eta * eta, 0.4999 * eta * eta)
    margin = eta0_sq > 0.0
    if not margin.all():
        factor_min = np.minimum.reduceat(np.minimum(a1, a2), starts)
        if np.any(~margin & (factor_min <= 0.0)):
            raise PreconditionViolated("zero non-degeneracy margin at a node where a factor vanishes",
                                       bound="min(|h1|^2+|h2|^2) > eta^2 where a factor vanishes")
    eta0 = np.sqrt(eta0_sq, out=np.ones_like(eta0_sq), where=margin)
    # largest tau with sqrt(eta^2 + (1-tau^2)*eta0^2) - tau*eta0 >= eta;
    # with no margin every node is defined
    with np.errstate(invalid="ignore"):
        tau = np.minimum(1.0, (np.sqrt(eta * eta + 2.0 * eta0_sq) - eta) / (2.0 * eta0)) * 0.999
    stops = np.append(starts[1:], n)
    theta = np.repeat(np.where(margin, tau * eta0, -np.inf), stops - starts)  # at each node
    defined = a1 > theta
    defined &= a2 > theta
    del a1, a2, theta  # freed before the phases allocate their arrays
    counts = np.add.reduceat(defined, starts, dtype=np.intp)
    if counts.sum() == n:
        beta2 = _phase_formula(h1, h2, counts)
    else:
        beta2 = np.ones(n, dtype=np.complex128)
        beta2[defined] = _phase_formula(h1[defined], h2[defined], counts)
    if pins is not None:
        beta2[pins[0]] = pins[1]
        defined[pins[0]] = True
    beta2 = circle_extend(beta2, defined, segments=(starts, stops - 1))
    f_quad = h1 + h2 * beta2
    _verify(float(np.min(np.abs(f_quad), initial=np.inf)) >= eta * (1.0 - 1e-12), "rotated lower bound lost")
    return beta2, f_quad


def nondeg_phases(h1: GridFunction, h2: GridFunction, eta: float) -> tuple[GridFunction, GridFunction]:
    """Unimodular beta1 (constant one) and beta2 with |h1*beta1 + h2*beta2| >= eta.

    Outside the small-value region of either factor, beta2 is the rotation
    that makes the moduli add Pythagorean-style; inside, it is bridged by
    circle_extend.
    """
    h1._check_domain(h2)
    beta2, _f_quad = _nondeg_phase_arrays(h1.values, h2.values, eta)
    return GridFunction(h1.domain, np.ones_like(beta2)), GridFunction(h1.domain, beta2)


def perturb_nondegenerate(
    h1: GridFunction, h2: GridFunction, d: GridFunction, eta: float, eps: float
) -> tuple[GridFunction, GridFunction]:
    """z1, z2 with h1*z1 + h2*z2 + z1*z2 = d node-wise and |z_i| <= eps.

    z1 = beta1*phi and z2 = beta2*phi where phi tracks the small root of the
    quadratic with linear coefficient h1*beta1 + h2*beta2 and unimodular
    leading coefficient beta1*beta2.
    """
    h1._check_domain(h2, d)
    beta2, f_quad = _nondeg_phase_arrays(h1.values, h2.values, eta)
    phi = _track_root(d.values, f_quad, beta2, eta, eps)
    return GridFunction(h1.domain, phi), GridFunction(h1.domain, beta2 * phi)


# ---------------------------------------------------------------------------
# Direct factorization with prescribed boundary data


def _factor_arrays(psi, counts, k, size, far, pin, za, wa, zhat):
    """Z1*Z2 = psi on halves laid end to end, half j on counts[j] nodes, each
    factored as factor_halfboundary factors it alone: a node of half j lies
    k nodes from its pinned end, where (za[j], wa[j]) is prescribed, and
    size[j] - 1 - k from its far end, where both factors are zhat[j]; far
    and pin list the nodes at such ends."""
    az, aw, ah = (pyarith.cabs(x) for x in (za, wa, zhat))
    swap = az < aw  # the larger-modulus factor p at the pinned end is wa
    p, start, div = np.where(swap, wa, za), np.where(swap, aw, az), np.maximum(size - 1, 1)
    span = ah - start
    step = span / div  # div = 1 for a one-node half: it is its pinned end
    ramp = k * step.repeat(counts)  # np.linspace(|p|, |zhat|, size) at k
    if not step.all():  # numpy's branch for a step that underflows to 0
        at = (step == 0).repeat(counts)
        ramp[at] = k[at] / div.repeat(counts)[at] * span.repeat(counts)[at]
    ramp += start.repeat(counts)
    radius = np.maximum(np.sqrt(np.abs(psi)), ramp)
    ph_p, ph_h = (np.where(x != 0, np.arctan2(x.imag, x.real), 0.0) for x in (p, zhat))  # np.angle, 0 at 0
    arc = np.exp(1j * (ph_h - ph_p))
    theta = np.multiply(k, (1.0 / div).repeat(counts), out=ramp)  # np.linspace(0.0, 1.0, size) at k
    theta *= np.arctan2(arc.imag, arc.real).repeat(counts)
    theta += ph_p.repeat(counts)
    big = np.exp(1j * theta)
    big *= radius
    stops = counts.cumsum()  # one past each half's last node
    big[far] = zhat[stops.searchsorted(far, side="right")]
    other = quotient(psi, big)
    swap = swap.repeat(counts)
    z1 = np.where(swap, other, big)
    np.copyto(other, big, where=swap)
    z1[far] = other[far] = big[far]
    half = stops.searchsorted(pin, side="right")
    z1[pin], other[pin] = za[half], wa[half]
    return z1, other


def _halves(ends):
    """(nodes, counts, k, size, far, pin) of _factor_arrays for runs ends[r] =
    (lo, hi) laid end to end, with each run node's grid node; run r's halves
    2r and 2r+1 are pinned at lo and hi and meet at its middle node (in 2r+1)."""
    sizes = ends[:, 1] - ends[:, 0] + 1
    first, mid = np.cumsum(sizes) - sizes, sizes // 2
    i = np.arange(sizes.sum()) - np.repeat(first, sizes)  # each node's place in its run
    counts, size = (np.stack((mid + x, sizes - mid), axis=1).ravel() for x in (0, 1))
    k = np.minimum(i, np.repeat(sizes - 1, sizes) - i)
    pin = np.stack((first, first + sizes - 1), axis=1).ravel()
    return i + np.repeat(ends[:, 0], sizes), counts, k, size, first + mid, pin


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
    far, pin = (0, pv.size - 1) if side == "right" else (pv.size - 1, 0)
    _check_pair(za, wa, pv[pin])
    if abs(zhat * zhat - pv[far]) > RESIDUAL_TOL * (1.0 + abs(pv[far])):
        raise BoundaryMismatch("zhat^2 does not match psi at the far end", bound="zhat^2 = psi at the far end")
    k = np.arange(pv.size)[::1 if pin == 0 else -1]  # each node's distance from the pinned end
    ends = (np.array([x], dtype=np.complex128) for x in (za, wa, zhat))
    z1, z2 = _factor_arrays(pv, np.array([pv.size]), k, np.array([pv.size]), np.array([far]), np.array([pin]), *ends)
    return GridFunction(psi.domain, z1), GridFunction(psi.domain, z2)


def _check_budget(psi, eps, pins):
    sup_psi = float(np.max(np.abs(psi)))
    if sup_psi > eps * eps * (1.0 + 1e-9):
        raise NormBudgetExceeded(f"sup|psi| = {sup_psi} exceeds eps^2 = {eps * eps}",
                                 bound="sup|psi| <= eps^2", value=sup_psi, limit=eps * eps)
    for z in pins:
        if abs(z) > eps * (1.0 + 1e-9):
            raise NormBudgetExceeded(f"boundary value modulus {abs(z)} exceeds eps = {eps}",
                                     bound="|boundary value| <= eps", value=abs(z), limit=eps)


def _check_pair(z, w, target):
    if abs(z * w - target) > RESIDUAL_TOL * (1.0 + abs(target)):
        raise BoundaryMismatch("boundary pair product does not match psi", bound="z*w = psi at the pinned end")


def factor_interval(
    psi: GridFunction, eps: float, za: complex, wa: complex, zb: complex, wb: complex
) -> tuple[GridFunction, GridFunction]:
    """Z1*Z2 = psi with full boundary pairs prescribed at both ends.

    Splits at the middle grid node, takes the principal square root of psi
    there as the shared value, and glues the two half constructions.
    """
    pv = psi.values
    _check_budget(pv, eps, (za, wa, zb, wb))
    _check_pair(za, wa, pv[0])
    _check_pair(zb, wb, pv[-1])
    zw = (np.array(x, dtype=np.complex128) for x in ((za, zb), (wa, wb)))
    z1, z2 = _factor_arrays(pv, *_halves(np.array([[0, pv.size - 1]]))[1:], *zw, np.full(2, np.sqrt(pv[pv.size // 2])))
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
            raise NonUnimodularInput("pinned boundary value must be unimodular", bound="|beta2| = 1")


PIN_KINDS = (None, "cover", "nondeg")  # a PinTable's kind code is the index of the pin's kind


class PinTable(NamedTuple):
    """Endpoint pins as arrays of one shape: `kind`, a PIN_KINDS code (0 for
    an unpinned end), and the EndpointPin fields, 0 where a pin has none.
    plan_intervals reads a table of shape (K, 2), row k for interval k and
    column 0 for its left end, and takes each pin as checked where it was made."""

    kind: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    za: np.ndarray
    wa: np.ndarray
    beta2: np.ndarray

    @classmethod
    def of(cls, pairs) -> "PinTable":
        """The (K, 2) table of K pairs (left, right), each an EndpointPin or None."""
        flat = [pin for pair in pairs for pin in pair]
        kind = np.array([PIN_KINDS.index(getattr(pin, "kind", None)) for pin in flat], dtype=np.int8)
        columns = ([getattr(pin, name, None) for pin in flat] for name in cls._fields[1:])
        fields = (np.array([0j if x is None else x for x in col], dtype=np.complex128) for col in columns)
        return cls(kind.reshape(-1, 2), *(x.reshape(-1, 2) for x in fields))

    def pin(self, at):
        """The EndpointPin at index `at`, with Python complex fields, or None."""
        kind = PIN_KINDS[self.kind[at]]
        if kind is not None:
            return EndpointPin(kind, **{name: complex(getattr(self, name)[at]) for name in EndpointPin._NEEDS[kind]})


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

    def to_json(self) -> dict:
        return {
            "d1": self.d1.to_json(),
            "d2": self.d2.to_json(),
            "residual": repr(self.residual),
            "bound1": repr(self.bound1),
            "bound2": repr(self.bound2),
            "constants": {k: repr(v) if isinstance(v, float) else v for k, v in self.meta.items()},
        }


def root_pair(psi):
    """The square-root boundary pair (z, psi / z), z = sqrt(psi); (z, 0) at psi = 0.

    psi keeps its caller's type: numpy's and Python's complex division round
    differently.
    """
    z = complex(np.sqrt(psi))
    return z, (psi / z if z != 0 else 0j)


class Certificate(NamedTuple):
    """What a solve certifies for intervals laid end to end: from the plan,
    its offsets, the [lo, hi] grid nodes of its cover runs in node order and
    each interval's cover tier (eta2, eps_cover); per interval, its residual,
    bound1 and bound2, Python floats, and its verdict `failed`: its first
    root tie, else its first missed end pin, else its first failed claim
    (residual, then d1, then d2), or None where the result is certified."""

    cfg: PipelineConfig
    offsets: np.ndarray
    ends: np.ndarray
    tiers: tuple
    residual: list
    bound1: list
    bound2: list
    failed: list

    @classmethod
    def zero(cls, cfg: PipelineConfig, offsets) -> "Certificate":
        """That of the intervals at `offsets` where d = 0 and no pipeline runs."""
        offsets = np.asarray(offsets, dtype=np.intp)
        zeros = [0.0] * (offsets.size - 1)
        tiers = cfg.cover_tiers[:1] * len(zeros)
        return cls(cfg, offsets, np.zeros((0, 2), dtype=np.intp), tiers, zeros, zeros, zeros, [None] * len(zeros))

    def rows(self) -> tuple:
        """One row (meta, residual, bound1, bound2) per interval, each with a
        fresh meta whose cover lists the interval's runs, interval-local."""
        cuts = np.searchsorted(self.ends[:, 0], self.offsets)  # each interval's first run
        local = (self.ends - np.repeat(self.offsets[:-1], np.diff(cuts))[:, None]).tolist()
        return tuple(
            (_meta(self.cfg, *tier, local[a:b]), r, b1, b2)
            for tier, a, b, r, b1, b2 in zip(self.tiers, cuts, cuts[1:], self.residual, self.bound1, self.bound2)
        )


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
    beta2 and f_quad hold the segments laid end to end: the nodes fv[keep]."""

    fv: np.ndarray
    gv: np.ndarray
    cfg: PipelineConfig
    offsets: np.ndarray
    tiers: tuple  # (eta2, eps_cover) per interval
    # the cover runs in node order, (ends, seam, cover_pin, zw, nodes, own, owned, halves): per run end, is
    # it a seam or pinned as "cover", and the pin's (za, wa); per run node (_halves), does the run own it
    cover: tuple
    # (keep, first, last, start): keep selects the segment nodes (slice(None) when no cover run owns a node);
    # per segment, its first and last node and the index where it starts in beta2/f_quad
    pieces: tuple
    beta2: np.ndarray
    f_quad: np.ndarray
    pinned: tuple  # (nodes, d1, d2, tol) arrays of the pinned interval ends

    @property
    def segments(self):
        """(s, e, beta2, f_quad) per complement segment: its first and last
        node and its stretch of the phase arrays."""
        return tuple(
            (s, e, self.beta2[c:c + e - s + 1], self.f_quad[c:c + e - s + 1])
            for s, e, c in zip(*(x.tolist() for x in self.pieces[1:]))
        )


def plan_intervals(fv, gv, eps0, offsets, pins: PinTable) -> IntervalPlan:
    """plan_interval for intervals laid end to end in fv/gv: interval k on
    nodes offsets[k] .. offsets[k+1]-1, with its end pins in row k of `pins`.

    Every interval gets the cover tier, cover and phases it gets alone, bit
    for bit, and one refusing interval refuses the plan: the first one in
    order that the cover refuses, else the first end pinned as
    non-degenerate where |f + beta2*g| < epsilon1.  A malformed layout is
    refused first, naming fv, gv, offsets or pins.
    """
    cfg = PipelineConfig.for_target(eps0)
    if np.ndim(fv) != 1 or np.shape(gv) != np.shape(fv):
        raise PreconditionViolated("fv and gv must be one-dimensional, of one shape", bound="fv, gv")
    offsets = np.asarray(offsets, dtype=np.intp)
    if (offsets.ndim != 1 or offsets.size < 2 or offsets[[0, -1]].tolist() != [0, fv.size]
            or np.any(np.diff(offsets) <= 0)):
        raise PreconditionViolated("offsets must rise strictly from 0 to fv.size", bound="offsets")
    if any(np.shape(x) != (offsets.size - 1, 2) for x in pins):
        raise PreconditionViolated(f"pins must be a table of shape ({offsets.size - 1}, 2)", bound="pins")
    lefts, rights = offsets[:-1], offsets[1:] - 1
    bounds = np.stack((lefts, rights), axis=1)
    cover, nondeg = (pins.kind == PIN_KINDS.index(kind) for kind in ("cover", "nondeg"))

    h = np.abs(fv) ** 2 + np.abs(gv) ** 2
    eps1 = cfg.epsilon1
    narrow, wide = cfg.cover_tiers
    tiers = [narrow] * lefts.size
    runs, refused = _plan_cover(h, cfg.eta1, narrow[0], lefts, rights, cover, nondeg)
    if refused:
        runs2, refused2 = _plan_cover(h, cfg.eta1, wide[0], lefts, rights, cover, nondeg)
        for k in sorted(refused):
            if k in refused2:
                raise refused2[k]
            tiers[k] = wide
        again = np.array([tier == wide for tier in tiers])
        runs = np.concatenate((runs[:, ~again[runs[0]]], runs2[:, again[runs2[0]]]), axis=1)
        runs = runs[:, np.argsort(runs[1])]

    k, run_ends = runs[0], runs[1:].T
    seam = run_ends != bounds[k]
    zw = np.stack((pins.za, pins.wa))[:, k]
    run_nodes, *halves = _halves(run_ends)  # halves = (counts, k, size, far, pin)
    own = np.ones(run_nodes.size, dtype=bool)
    own[halves[4][seam.ravel()]] = False  # the seam ends belong to the neighbouring segments
    owned = run_nodes[own]
    own_lo = run_ends[:, 0] + seam[:, 0]  # the first node of each range a run owns
    starts = np.sort(np.concatenate((lefts, own_lo, run_ends[:, 1] + 1 - seam[:, 1])))
    starts = starts[np.diff(starts, append=fv.size) != 0]  # each once, and none at the end of the grid
    segment = ~np.isin(starts, own_lo, kind="table")
    first, last = starts[segment], np.append(starts[1:], fv.size)[segment] - 1
    start = first - np.searchsorted(owned, first)  # each segment's place in fv[keep]
    keep = np.repeat(segment, np.diff(starts, append=fv.size)) if owned.size else slice(None)
    nodes = bounds[nondeg]
    rotation = pins.beta2[nondeg]
    rotated = np.abs(fv[nodes] + gv[nodes] * rotation)  # the phase step's lower bound, in its formula
    low = np.flatnonzero(~(rotated >= eps1 * (1.0 - 1e-12)))
    if low.size:
        raise PreconditionViolated(
            f"pinned rotation at node {int(nodes[low[0]])} brings |f + beta2*g| below epsilon1",
            bound="|f + beta2*g| >= epsilon1", value=float(rotated[low[0]]), limit=eps1,
        )
    hmin = np.minimum.reduceat(h[keep], start)
    del h  # freed before the phases allocate their arrays
    at = nodes - np.searchsorted(owned, nodes)  # the pinned nodes' places in fv[keep]
    beta2, f_quad = _nondeg_phase_arrays(fv[keep], gv[keep], eps1, start, (at, rotation), hmin)
    pinned_at = pins.kind != 0
    d1, d2 = pins.d1[pinned_at], pins.d2[pinned_at]
    pinned = (bounds[pinned_at], d1, d2, RESIDUAL_TOL * (1.0 + pyarith.cabs(d1) + pyarith.cabs(d2)))
    return IntervalPlan(
        fv, gv, cfg, offsets, tuple(tiers), (run_ends, seam, ~seam & cover[k], zw, run_nodes, own, owned, halves),
        (keep, first, last, start), beta2, f_quad, pinned,
    )


def plan_interval(fv, gv, eps0) -> IntervalPlan:
    """The d-independent part of the pipeline on one interval with no end
    pins (pinned ends are a PinTable row for plan_intervals); refuses an
    infeasible cover here.  One plan serves solve_interval for any number of
    d.  It holds fv and gv by reference: they must not change while in use."""
    return plan_intervals(fv, gv, eps0, (0, fv.size), PinTable.of(((None, None),)))


_CLAIMS = ("factorization residual out of tolerance", "d1 exceeds eps0", "d2 exceeds eps0")


def _solve_ragged(plan: IntervalPlan, dv):
    """The d-dependent part, ungated, for dv of the plan's shape: (d1, d2,
    certificate, refusal) with d1, d2 over the whole grid and the Certificate
    of the intervals, where residual = max|(f+d1)(g+d2) - (f*g+d)| and
    bound_i = max|d_i| per interval.  It never raises: a root tie ("root
    moduli tie at index i", i counted within its segment) or a pinned end
    that the solve misses fails only its interval.  `refusal` is what the
    gate raises, or None: the first tie as EqualModulusRoots, else the first
    missed pin as VertexInconsistency, else the first failed claim."""
    cfg = plan.cfg
    fv, gv = plan.fv, plan.gv
    ends, seam, cover_pin, zw, nodes, own, owned, halves = plan.cover
    keep, first, _last, start = plan.pieces
    refusal, verdicts = None, {}  # per interval, its tie or missed pin
    # solve_interval's gate, sup|d| <= delta0 = shift_budget(eps1, eps1), is this step's budget
    phi, ties = smaller_root_vec(-dv[keep], plan.f_quad, plan.beta2)
    if ties.size:
        segment = np.searchsorted(start, ties, side="right") - 1
        local = (ties - start[segment]).tolist()
        within = (np.searchsorted(plan.offsets, first[segment], side="right") - 1).tolist()
        verdicts = {k: f"root moduli tie at index {i}" for k, i in zip(within[::-1], local[::-1])}  # the first stays
        refusal = EqualModulusRoots(f"root moduli tie at index {local[0]}", index=local[0])
    if nodes.size:  # spread onto the grid before target is allocated
        d1 = np.zeros(fv.size, dtype=np.complex128)
        d2 = np.zeros(fv.size, dtype=np.complex128)
        d1[keep] = plan.beta2 * phi
        d2[keep] = phi
        del phi
    else:
        d1 = plan.beta2 * phi
        d2 = phi
    target = fv * gv + dv

    if nodes.size:
        # a run end's pair: a seam's tracked values, a cover pin, or the square-root pair
        t = target[ends]
        root = np.sqrt(t)
        tracked = np.array((fv[ends] + d1[ends], gv[ends] + d2[ends]))
        roots = np.array((root, np.divide(t, root, out=np.zeros_like(root), where=root != 0)))
        za, wa = np.where(seam, tracked, np.where(cover_pin, zw, roots))
        psi = target[nodes]
        zhat = np.sqrt(psi[halves[3]]).repeat(2)  # at each run's middle node, the far end of its halves
        z1, z2 = _factor_arrays(psi, *halves, za.ravel(), wa.ravel(), zhat)
        d1[owned] = z1[own] - fv[owned]
        d2[owned] = z2[own] - gv[owned]
        del z1, z2  # freed before verification allocates its arrays

    nodes, pin_d1, pin_d2, tol = plan.pinned
    if nodes.size:
        err1, err2 = (pyarith.cabs(x) for x in (d1[nodes] - pin_d1, d2[nodes] - pin_d2))
        err = np.where(err2 > err1, err2, err1)  # max(err1, err2)
        d1[nodes], d2[nodes] = pin_d1, pin_d2
        bad = np.flatnonzero(err > tol)
        within = np.searchsorted(plan.offsets, nodes[bad], side="right") - 1
        for k, e in zip(within.tolist(), err[bad].tolist()):
            message = f"edge construction disagrees with the pinned endpoint by {e}"
            refusal = refusal or VertexInconsistency(message)
            verdicts.setdefault(k, message)  # a tie or an earlier missed pin stays

    starts = plan.offsets[:-1]
    residual = np.maximum.reduceat(np.abs((fv + d1) * (gv + d2) - target), starts).tolist()
    scale = np.maximum.reduceat(np.abs(target), starts).tolist()
    bound1 = np.maximum.reduceat(np.abs(d1), starts).tolist()
    bound2 = np.maximum.reduceat(np.abs(d2), starts).tolist()
    limit, failed = cfg.epsilon0 * (1.0 + 1e-9), []
    for k, (r, sc, b1, b2) in enumerate(zip(residual, scale, bound1, bound2)):
        holds = (r <= RESIDUAL_TOL * (1.0 + sc), b1 <= limit, b2 <= limit)
        failed.append(verdicts.get(k) or (None if all(holds) else _CLAIMS[holds.index(False)]))
    if refusal is None and any(failed):
        refusal = InternalInvariantError(f"internal invariant failed: {next(filter(None, failed))}")
    return d1, d2, Certificate(cfg, plan.offsets, ends, plan.tiers, residual, bound1, bound2, failed), refusal


def solve_intervals(plan: IntervalPlan, dv):
    """_solve_ragged behind the delta0 gate: (d1, d2, certificate) of a
    result certified on every interval, else the solve's refusal raised."""
    if dv.shape != plan.fv.shape:
        raise PreconditionViolated("perturbation must live on the plan's grid", bound="dv.shape == fv.shape")
    plan.cfg.check_radius(float(np.max(np.abs(dv))))
    d1, d2, cert, refusal = _solve_ragged(plan, dv)
    if refusal is not None:
        raise refusal
    return d1, d2, cert


def solve_interval(plan: IntervalPlan, dv):
    """solve_intervals on a one-interval plan: (d1, d2, meta, residual,
    bound1, bound2) of a certified result."""
    d1, d2, cert = solve_intervals(plan, dv)
    (row,) = cert.rows()
    return (d1, d2, *row)


def factorize_interval_arrays(fv, gv, dv, eps0):
    """solve_interval(plan_interval(...), dv), except that a d past delta0 is
    refused before an infeasible cover."""
    try:
        plan = plan_interval(fv, gv, eps0)
    except CoverInfeasible:
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
    f._check_domain(g, d)
    cfg = PipelineConfig.for_target(eps0)
    if not np.any(d.values):
        zero = np.zeros(f.domain.n, dtype=np.complex128)
        return FactorizationResult.of(f.domain, (zero, zero, *Certificate.zero(cfg, (0, f.domain.n)).rows()[0]))
    solved = factorize_interval_arrays(f.values, g.values, d.values, eps0)
    return FactorizationResult.of(f.domain, solved)
