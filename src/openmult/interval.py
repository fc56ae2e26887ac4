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

import numpy as np

from .errors import (
    BoundaryMismatch,
    CoverInfeasible,
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
    if not 0.0 < eps0 < 1.0:
        raise PreconditionViolated("eps0 must lie in (0, 1)")
    eps1 = eps0 / 7.0
    return min(eps1 * eps1, shift_budget(eps1, eps1))


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
        return cls(
            epsilon0=eps0,
            epsilon1=eps1,
            eta1=eps1 * eps1,
            eta2=4.0 * eps1 * eps1,
            delta0=delta0(eps0),
        )


# ---------------------------------------------------------------------------
# Quadratic root tracking on the grid


def quadratic_correction(
    f: GridFunction, g: GridFunction, d: GridFunction, eta: float, eps: float, check: bool = True
) -> GridFunction:
    """phi with f*phi + g*phi**2 = d node-wise, |phi| <= eps.

    Requires |f| >= eta everywhere, |g| unimodular, and sup|d| within
    shift_budget(eta, eps).
    """
    fv, gv, dv = f.values, g.values, d.values
    if check:
        if float(np.min(np.abs(fv))) < eta * (1.0 - 1e-12):
            raise PreconditionViolated(
                "linear coefficient drops below the eta floor",
                bound="min|f| >= eta", value=float(np.min(np.abs(fv))), limit=eta,
            )
        if float(np.max(np.abs(np.abs(gv) - 1.0))) > 1e-9:
            raise PreconditionViolated("quadratic coefficient must be unimodular", bound="|g| = 1")
        _check_shift_budget(dv, eta, eps)
    phi = smaller_root_vec(-dv, fv, gv)
    if check:
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


def circle_extend(partial, defined=None, pin_left=None, pin_right=None):
    """Fill undefined index gaps with unit-circle values.

    Defined entries must be unimodular; undefined entries are NaN (or given
    by a `defined` mask).  Interior gaps are bridged by the shortest arc
    between their endpoint values, counterclockwise on antipodal ties.
    Boundary gaps extend the single adjacent defined value as a constant,
    unless a pinned boundary value is supplied, in which case the gap is
    bridged toward the pin.  Defined entries are preserved exactly.
    """
    wrap = isinstance(partial, GridFunction)
    vals = np.array(partial.values if wrap else partial, dtype=np.complex128)
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
    if not np.any(mask):
        out = np.ones(vals.size, dtype=np.complex128)
        return GridFunction(partial.domain, out) if wrap else out
    dev = np.abs(vals)
    dev -= 1.0
    np.abs(dev, out=dev)
    if float(np.max(dev, where=mask, initial=0.0)) > 1e-9:
        raise NonUnimodularInput("defined values must lie on the unit circle")

    n = vals.size
    for i, j in _true_runs(~mask):
        left = vals[i - 1] if i > 0 else None
        right = vals[j + 1] if j + 1 < n else None
        if left is not None and right is not None:
            # angle() maps antipodal pairs to +pi: counterclockwise tie-break
            delta = float(np.angle(right / left))
            span = j - i + 2
            ks = np.arange(1, j - i + 2)
            vals[i:j + 1] = left * np.exp(1j * delta * ks / span)
        elif left is not None:
            vals[i:j + 1] = left
        else:
            vals[i:j + 1] = right
    return GridFunction(partial.domain, vals) if wrap else vals


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


def _true_runs(mask):
    runs = []
    idx = np.flatnonzero(mask)
    if idx.size == 0:
        return runs
    starts = [int(idx[0])]
    ends = []
    gaps = np.flatnonzero(np.diff(idx) > 1)
    for gpos in gaps:
        ends.append(int(idx[gpos]))
        starts.append(int(idx[gpos + 1]))
    ends.append(int(idx[-1]))
    return list(zip(starts, ends))


def _cover_runs(h, eta1, eta2, force_nodes=()):
    """Maximal runs of {h < eta2} that contain a node of {h <= eta1}.

    Runs containing a node listed in force_nodes are kept as well.  Raises
    CoverInfeasible when a kept run's seam endpoint (an endpoint that is not
    a domain endpoint) sits at h <= eta1, i.e. the grid jumps from the inner
    to the outer threshold between adjacent nodes.
    """
    n = h.size
    runs = _true_runs(h < eta2)
    kept = []
    for lo, hi in runs:
        keep = bool(np.any(h[lo:hi + 1] <= eta1))
        if not keep:
            keep = any(lo <= k <= hi for k in force_nodes)
        if keep:
            kept.append((lo, hi))
    for lo, hi in kept:
        if lo > 0 and h[lo] <= eta1:
            raise CoverInfeasible(
                f"cover seam at node {lo} has h <= eta1; refine the grid"
            )
        if hi < n - 1 and h[hi] <= eta1:
            raise CoverInfeasible(
                f"cover seam at node {hi} has h <= eta1; refine the grid"
            )
    return kept


def sublevel_cover(h: GridFunction, eta1: float, eta2: float) -> IntervalCover:
    """Node-index cover with {h <= eta1} inside and {h < eta2} outside bound."""
    if not 0.0 < eta1 < eta2:
        raise PreconditionViolated("need 0 < eta1 < eta2")
    values = np.asarray(h.values)
    if float(np.max(np.abs(values.imag))) > 0.0:
        raise PreconditionViolated("sublevel function must be real-valued")
    hv = values.real
    if float(np.min(hv)) < 0.0:
        raise PreconditionViolated("sublevel function must be nonnegative")
    return IntervalCover(tuple(_cover_runs(hv, eta1, eta2)))


# ---------------------------------------------------------------------------
# Non-degeneracy phases


def _phase_formula(h1, h2):
    # One expression on purpose: for large arrays numpy computes it in place
    # in the conj() temporary, which fixes the operand order of the complex
    # product and so its rounding.
    u = h1 * np.conj(h2)
    r = np.abs(u)
    u *= 1j
    u /= r
    return u


def _nondeg_phase_arrays(h1, h2, eta, pin_left=None, pin_right=None):
    """(beta2, f_quad): the rotation phase and the rotated linear coefficient
    f_quad = h1 + h2*beta2, with |f_quad| >= eta certified."""
    a1 = np.abs(h1)
    a2 = np.abs(h2)
    h = a1 * a1 + a2 * a2
    hmin = float(np.min(h))
    if hmin < eta * eta * (1.0 - 1e-12):
        raise PreconditionViolated(
            "pair is not jointly eta^2-non-degenerate",
            bound="min(|h1|^2+|h2|^2) >= eta^2", value=hmin, limit=eta * eta,
        )
    eta0_sq = min(hmin - eta * eta, 0.4999 * eta * eta)
    if eta0_sq <= 0.0:
        if not (np.all(a1 > 0) and np.all(a2 > 0)):
            raise PreconditionViolated(
                "zero non-degeneracy margin at a node where a factor vanishes"
            )
        defined = np.ones(h1.size, dtype=bool)
    else:
        eta0 = math.sqrt(eta0_sq)
        # largest tau with sqrt(eta^2 + (1-tau^2)*eta0^2) - tau*eta0 >= eta
        tau = min(1.0, (math.sqrt(eta * eta + 2.0 * eta0_sq) - eta) / (2.0 * eta0)) * 0.999
        theta = tau * eta0
        defined = a1 > theta
        defined &= a2 > theta
    if defined.all():
        beta2 = _phase_formula(h1, h2)
    else:
        # Only the defined nodes, as an array of their own length: the
        # length decides how numpy rounds the product (see _phase_formula).
        beta2 = np.full(h1.size, UNDEFINED, dtype=np.complex128)
        beta2[defined] = _phase_formula(h1[defined], h2[defined])
    beta2 = circle_extend(beta2, defined, pin_left=pin_left, pin_right=pin_right)
    f_quad = h1 + h2 * beta2
    _verify(float(np.min(np.abs(f_quad))) >= eta * (1.0 - 1e-12), "rotated lower bound lost")
    return beta2, f_quad


def nondeg_phases(
    h1: GridFunction, h2: GridFunction, eta: float, *, pin_left=None, pin_right=None
) -> tuple[GridFunction, GridFunction]:
    """Unimodular beta1 (constant one) and beta2 with |h1*beta1 + h2*beta2| >= eta.

    Outside the small-value region of either factor, beta2 is the rotation
    that makes the moduli add Pythagorean-style; inside, it is bridged by
    circle_extend.  Optional unimodular pins fix beta2 at the interval ends,
    used when gluing edge constructions at shared vertices.
    """
    if h1.domain != h2.domain:
        raise PreconditionViolated("phases need a common domain")
    beta2, _f_quad = _nondeg_phase_arrays(h1.values, h2.values, eta, pin_left, pin_right)
    return GridFunction(h1.domain, np.ones_like(beta2)), GridFunction(h1.domain, beta2)


def _check_shift_budget(dv, eta, eps):
    budget = shift_budget(eta, eps)
    supd = float(np.max(np.abs(dv)))
    if supd > budget * (1.0 + 1e-12):
        raise PreconditionViolated(
            "perturbation exceeds the shift budget",
            bound="sup|d| <= shift_budget(eta, eps)", value=supd, limit=budget,
        )


def perturb_nondegenerate(
    h1: GridFunction,
    h2: GridFunction,
    d: GridFunction,
    eta: float,
    eps: float,
    *,
    pin_left=None,
    pin_right=None,
    check: bool = True,
) -> tuple[GridFunction, GridFunction]:
    """z1, z2 with h1*z1 + h2*z2 + z1*z2 = d node-wise and |z_i| <= eps.

    z1 = beta1*phi and z2 = beta2*phi where phi tracks the small root of the
    quadratic with linear coefficient h1*beta1 + h2*beta2 and unimodular
    leading coefficient beta1*beta2.
    """
    if not (h1.domain == h2.domain == d.domain):
        raise PreconditionViolated("inputs need a common domain")
    beta2, f_quad = _nondeg_phase_arrays(h1.values, h2.values, eta, pin_left, pin_right)
    if check:
        _check_shift_budget(d.values, eta, eps)
    phi = smaller_root_vec(-d.values, f_quad, beta2)
    return GridFunction(h1.domain, phi), GridFunction(h1.domain, beta2 * phi)


# ---------------------------------------------------------------------------
# Direct factorization with prescribed boundary data


def _half_arrays(psi, eps, za, wa, zhat):
    """Factor psi on a local grid with the (za, wa) pair pinned at index 0
    and both factors equal to zhat at the last index."""
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
    side: str = "left", check: bool = True,
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
    if check:
        _check_budget(pv, eps, (za, wa))
        end = 0 if side == "left" else -1
        other = -1 if side == "left" else 0
        _check_pair(za, wa, pv[end])
        if abs(zhat * zhat - pv[other]) > RESIDUAL_TOL * (1.0 + abs(pv[other])):
            raise BoundaryMismatch("zhat^2 does not match psi at the far end")
    if side == "left":
        z1, z2 = _half_arrays(pv, eps, za, wa, zhat)
    else:
        z1, z2 = _half_arrays(pv[::-1].copy(), eps, za, wa, zhat)
        z1, z2 = z1[::-1], z2[::-1]
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
    r1, r2 = _half_arrays(psi[mid:][::-1].copy(), eps, zb, wb, zhat)
    r1, r2 = r1[::-1], r2[::-1]
    z1 = np.concatenate([l1, r1[1:]])
    z2 = np.concatenate([l2, r2[1:]])
    return z1, z2


def factor_interval(
    psi: GridFunction, eps: float, za: complex, wa: complex, zb: complex, wb: complex,
    check: bool = True,
) -> tuple[GridFunction, GridFunction]:
    """Z1*Z2 = psi with full boundary pairs prescribed at both ends.

    Splits at the middle grid node, takes the principal square root of psi
    there as the shared value, and glues the two half constructions.
    """
    if psi.domain.n < 2:
        raise PreconditionViolated("need at least two nodes")
    pv = psi.values
    if check:
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
    factor values f+d1, g+d2 of the direct factorization.
    """

    kind: str
    d1: complex
    d2: complex
    beta2: complex | None = None
    za: complex | None = None
    wa: complex | None = None


@dataclass(frozen=True)
class FactorizationResult:
    """Certified perturbations with their residual and sup-norm bounds."""

    d1: GridFunction
    d2: GridFunction
    residual: float
    bound1: float
    bound2: float
    meta: dict = field(default_factory=dict, compare=False)

    def to_json(self) -> dict:
        return {
            "d1": self.d1.to_json(),
            "d2": self.d2.to_json(),
            "residual": repr(self.residual),
            "bound1": repr(self.bound1),
            "bound2": repr(self.bound2),
            "constants": {k: repr(v) if isinstance(v, float) else v for k, v in self.meta.items()},
        }


def _plan_cover(h, cfg, eta2_t, pin_left, pin_right):
    n = h.size
    force = []
    if pin_left is not None and pin_left.kind == "cover":
        if h[0] >= eta2_t:
            raise CoverInfeasible("left endpoint pinned as degenerate but not in the sublevel set")
        force.append(0)
    if pin_right is not None and pin_right.kind == "cover":
        if h[n - 1] >= eta2_t:
            raise CoverInfeasible("right endpoint pinned as degenerate but not in the sublevel set")
        force.append(n - 1)
    runs = _cover_runs(h, cfg.eta1, eta2_t, force_nodes=force)
    for lo, hi in runs:
        if lo == 0:
            if pin_left is not None and pin_left.kind == "nondeg":
                raise CoverInfeasible("cover run absorbed a non-degenerate pinned endpoint")
            if hi == 0:
                raise CoverInfeasible("single-node boundary cover run; refine the grid")
        if hi == n - 1:
            if pin_right is not None and pin_right.kind == "nondeg":
                raise CoverInfeasible("cover run absorbed a non-degenerate pinned endpoint")
            if lo == n - 1:
                raise CoverInfeasible("single-node boundary cover run; refine the grid")
    return runs


def _complement_ranges(runs, n):
    """Gaps between cover runs, inclusive of seam nodes."""
    out = []
    prev = 0
    prev_open = True  # domain start not inside a run
    for lo, hi in runs:
        if lo > 0:
            out.append((prev, lo))
        prev = hi
        prev_open = hi < n - 1
        if not prev_open:
            break
    if prev_open and (not runs or runs[-1][1] < n - 1):
        start = runs[-1][1] if runs else 0
        out.append((start, n - 1))
    return out


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


def zero_meta(cfg):
    """Constants reported when d vanishes and no pipeline runs."""
    return _meta(cfg, cfg.eta2, 5.0 * cfg.epsilon1, ())


@dataclass(frozen=True, eq=False)
class IntervalPlan:
    """What the pipeline computes before seeing d: the sublevel cover and, on
    each complement segment, the rotation phase and rotated coefficient."""

    fv: np.ndarray
    gv: np.ndarray
    cfg: PipelineConfig
    runs: tuple
    eta2: float
    eps_cover: float
    segments: tuple  # (s, e, beta2, f_quad)
    pins: tuple  # (pin_left, pin_right), EndpointPin or None


def plan_interval(fv, gv, eps0, pin_left=None, pin_right=None) -> IntervalPlan:
    """The d-independent part of the pipeline; refuses an infeasible cover or
    phase here.  One plan serves solve_interval for any number of d.  The plan
    holds fv and gv by reference: they must not change while it is in use."""
    cfg = PipelineConfig.for_target(eps0)
    n = fv.size
    h = np.abs(fv) ** 2 + np.abs(gv) ** 2
    eps1 = cfg.epsilon1
    # Wider fallback tier keeps every bound: seam moduli < 3*eps1 and
    # eps_cover + 3*eps1 <= 7*eps1 = eps0.
    eta2_t, eps_cov = cfg.eta2, 5.0 * eps1
    try:
        runs = _plan_cover(h, cfg, eta2_t, pin_left, pin_right)
    except CoverInfeasible:
        eta2_t, eps_cov = 9.0 * eps1 * eps1, 4.0 * eps1
        runs = _plan_cover(h, cfg, eta2_t, pin_left, pin_right)
    del h  # freed before the phases allocate their arrays

    segments = []
    for s, e in _complement_ranges(runs, n):
        pl = pin_left.beta2 if (s == 0 and pin_left is not None and pin_left.kind == "nondeg") else None
        pr = pin_right.beta2 if (e == n - 1 and pin_right is not None and pin_right.kind == "nondeg") else None
        beta2, f_quad = _nondeg_phase_arrays(fv[s:e + 1], gv[s:e + 1], eps1, pl, pr)
        segments.append((s, e, beta2, f_quad))
    return IntervalPlan(fv, gv, cfg, tuple(runs), eta2_t, eps_cov, tuple(segments), (pin_left, pin_right))


def solve_interval(plan: IntervalPlan, dv, *, strict=True):
    """The d-dependent part: (d1, d2, meta, residual, bound1, bound2), where
    residual = max|(f+d1)(g+d2) - (f*g+d)|, bound_i = max|d_i|."""
    cfg = plan.cfg
    fv, gv = plan.fv, plan.gv
    pin_left, pin_right = plan.pins
    n = fv.size
    if dv.shape != fv.shape:
        raise PreconditionViolated("perturbation must live on the plan's grid")
    if strict:
        _check_radius(dv, cfg)
    d1 = np.zeros(n, dtype=np.complex128)
    d2 = np.zeros(n, dtype=np.complex128)
    written = np.zeros(n, dtype=bool)

    for s, e, beta2, f_quad in plan.segments:
        dseg = dv[s:e + 1]
        if strict:
            _check_shift_budget(dseg, cfg.epsilon1, cfg.epsilon1)
        phi = smaller_root_vec(-dseg, f_quad, beta2)
        d1[s:e + 1] = beta2 * phi
        d2[s:e + 1] = phi
        written[s:e + 1] = True

    target = fv * gv + dv
    for lo, hi in plan.runs:
        psi = target[lo:hi + 1]
        if lo == 0:
            if pin_left is not None and pin_left.kind == "cover":
                za, wa = pin_left.za, pin_left.wa
            else:
                za = complex(np.sqrt(psi[0]))
                wa = psi[0] / za if za != 0 else 0j
        else:
            za = complex(fv[lo] + d1[lo])
            wa = complex(gv[lo] + d2[lo])
        if hi == n - 1:
            if pin_right is not None and pin_right.kind == "cover":
                zb, wb = pin_right.za, pin_right.wa
            else:
                zb = complex(np.sqrt(psi[-1]))
                wb = psi[-1] / zb if zb != 0 else 0j
        else:
            zb = complex(fv[hi] + d1[hi])
            wb = complex(gv[hi] + d2[hi])
        z1, z2 = _factor_arrays(psi, plan.eps_cover, za, wa, zb, wb)
        own_lo = lo if lo == 0 else lo + 1
        own_hi = hi if hi == n - 1 else hi - 1
        if own_lo <= own_hi:
            off = own_lo - lo
            span = own_hi - own_lo + 1
            d1[own_lo:own_hi + 1] = z1[off:off + span] - fv[own_lo:own_hi + 1]
            d2[own_lo:own_hi + 1] = z2[off:off + span] - gv[own_lo:own_hi + 1]
            written[own_lo:own_hi + 1] = True

    _verify(bool(np.all(written)), "pipeline left unassigned nodes")

    for pin, idx in ((pin_left, 0), (pin_right, n - 1)):
        if pin is not None:
            local = complex(d1[idx]), complex(d2[idx])
            d1[idx] = pin.d1
            d2[idx] = pin.d2
            err = max(abs(local[0] - pin.d1), abs(local[1] - pin.d2))
            if err > RESIDUAL_TOL * (1.0 + abs(pin.d1) + abs(pin.d2)):
                raise VertexInconsistency(
                    f"edge construction disagrees with the pinned endpoint by {err}"
                )

    residual = float(np.max(np.abs((fv + d1) * (gv + d2) - target)))
    bound1 = float(np.max(np.abs(d1)))
    bound2 = float(np.max(np.abs(d2)))
    if strict:
        scale = 1.0 + float(np.max(np.abs(target)))
        _verify(residual <= RESIDUAL_TOL * scale, "factorization residual out of tolerance")
        _verify(bound1 <= cfg.epsilon0 * (1.0 + 1e-9), "d1 exceeds eps0")
        _verify(bound2 <= cfg.epsilon0 * (1.0 + 1e-9), "d2 exceeds eps0")
    return d1, d2, _meta(cfg, plan.eta2, plan.eps_cover, plan.runs), residual, bound1, bound2


def _check_radius(dv, cfg):
    supd = float(np.max(np.abs(dv)))
    if supd > cfg.delta0 * (1.0 + 1e-12):
        raise PerturbationTooLarge(
            "perturbation exceeds delta0",
            bound="delta0", value=supd, limit=cfg.delta0,
        )


def factorize_interval_arrays(fv, gv, dv, eps0, *, strict=True, pin_left=None, pin_right=None):
    """solve_interval(plan_interval(...), dv), except that with strict=True a d
    past delta0 is refused before any refusal of the plan."""
    try:
        plan = plan_interval(fv, gv, eps0, pin_left, pin_right)
    except OpenMultError:
        if strict:
            _check_radius(dv, PipelineConfig.for_target(eps0))
        raise
    return solve_interval(plan, dv, strict=strict)


def open_mult_interval(
    f: GridFunction, g: GridFunction, d: GridFunction, eps0: float, *, strict: bool = True
) -> FactorizationResult:
    """Factor the perturbed product: (f+d1)(g+d2) = f*g + d with |d_i| <= eps0.

    Requires sup|d| <= delta0(eps0); the same radius works for every (f, g)
    pair, with no per-instance tuning.  With strict=False the admissibility
    gates are skipped and the caller judges the returned residual and bounds
    (used by the empirical openness probe).
    """
    if not (f.domain == g.domain == d.domain):
        raise PreconditionViolated("f, g, d need a common domain")
    cfg = PipelineConfig.for_target(eps0)
    if not np.any(d.values):
        zero = GridFunction(f.domain, np.zeros(f.domain.n, dtype=np.complex128))
        return FactorizationResult(
            d1=zero, d2=zero, residual=0.0, bound1=0.0, bound2=0.0, meta=zero_meta(cfg)
        )
    d1, d2, meta, residual, bound1, bound2 = factorize_interval_arrays(
        f.values, g.values, d.values, eps0, strict=strict
    )
    return FactorizationResult(
        d1=GridFunction(f.domain, d1),
        d2=GridFunction(f.domain, d2),
        residual=residual,
        bound1=bound1,
        bound2=bound2,
        meta=meta,
    )
