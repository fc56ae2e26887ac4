"""Norm-controlled inversion interface and the recursive factorization scheme.

Starting from a jointly non-degenerate pair (F, G) and a small H, the
recursion moves the pair toward an exact factorization of F*G + H while four
invariants hold at every step: the running product is conserved, the norms
stay below K, the joint lower bound stays above gamma, and the defect norm
halves.  Every iteration is recorded and auditable.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ClaimViolation, DegeneratePair, NonConvergence, PerturbationTooLarge, PreconditionViolated
from .functions import FiniteSpaceFunction, conjugate, min_modulus_sum, sup_norm

IDENTITY_TOL = 1e-9
GRACE = 1e-12


@dataclass(frozen=True)
class AlgebraModel:
    """A unital Banach-*-algebra presented through callables.

    `embed` maps an element to its sup-norm evaluable transform (a
    FiniteSpaceFunction); `C` bounds the embedding, `D` is the differential
    constant, and `psi` is the nondecreasing norm-control function: the norm
    of an inverse is bounded by psi(norm * sup-norm-of-inverse) / norm.
    `invert` must handle the positive elements |F|^2 + |G|^2 the scheme uses.
    """

    name: str
    norm: object
    embed: object
    conj: object
    invert: object
    C: float
    D: float
    psi: object


def sup_algebra_model(n: int) -> AlgebraModel:
    """Continuous functions on n points under the sup norm.

    Inversion is exact here, so the norm-control function is the identity.
    """
    return AlgebraModel(
        name=f"sup({n})",
        norm=sup_norm,
        embed=lambda el: el,
        conj=conjugate,
        invert=lambda el: FiniteSpaceFunction(1.0 / el.values),
        C=1.0,
        D=1.0,
        psi=lambda t: t,
    )


def diagonal_algebra_model(weights) -> AlgebraModel:
    """Unitisation of a weighted diagonal algebra.

    psi(t) = t*t dominates the inversion blow-up for every invertible
    element: the weighted tail of the inverse is bounded by the element norm
    times the squared sup norm of the inverse, and the unit coordinate by the
    sup norm itself.
    """
    weights = np.asarray(weights, dtype=float)
    c_embed = max(1.0, 1.0 / float(np.min(weights))) if weights.size else 1.0
    return AlgebraModel(
        name=f"diagonal({weights.size})",
        norm=lambda el: el.norm(),
        embed=lambda el: el.embed(),
        conj=lambda el: el.conj(),
        invert=lambda el: el.inverse(),
        C=c_embed,
        D=1.0,
        psi=lambda t: t * t,
    )


def inverse_norm_bound(norm_a: float, inv_sup: float, model: AlgebraModel) -> float:
    """Norm-control bound for an inverse: psi(norm_a * inv_sup) / norm_a."""
    if norm_a <= 0 or inv_sup <= 0:
        raise PreconditionViolated("norms must be positive", bound="norm_a > 0 and inv_sup > 0")
    return model.psi(norm_a * inv_sup) / norm_a


@dataclass(frozen=True)
class SchemeParams:
    """Constants derived from the pair: joint lower bound gamma, norm cap K,
    inversion cap T (with its raw value That), and admissible radius delta."""

    gamma: float
    K: float
    That: float
    T: float
    delta: float
    eps: float

    def __post_init__(self):
        if not (0.0 < self.gamma <= 1.0 and self.K >= 2.0 and self.T >= 1.0 and self.delta > 0.0):
            raise ValueError("scheme constants out of range")

    def to_json(self) -> dict:
        return {name: repr(value) for name, value in asdict(self).items()}


def scheme_params(F, G, eps: float, model: AlgebraModel) -> SchemeParams:
    """Compute the scheme constants for the pair (F, G) at target bound eps."""
    if not 0.0 < eps < 1.0:
        raise PreconditionViolated("eps must lie in (0, 1)", bound="0 < eps < 1", value=eps)
    inf_embed = min_modulus_sum(model.embed(F), model.embed(G))
    if inf_embed <= 0.0:
        raise DegeneratePair("inf over embedding nodes of |F| + |G| vanishes", bound="inf |F| + |G| > 0", value=inf_embed)
    gamma = min(1.0, 0.5 * inf_embed)
    K = 2.0 * max(model.norm(F), model.norm(G), 1.0)
    That = (2.0 * model.C / gamma**2) * model.psi(4.0 * K * K / gamma**2) if gamma**2 else math.inf  # 0 on underflow
    T = max(That, 1.0)
    try:
        delta = eps * gamma / (model.C * K**3 * T * T)
    except OverflowError:  # K**3 is past the float range
        delta = 0.0
    for name, value in (("That", That), ("delta", delta)):  # T = max(That, 1) is in range with That
        if not 0.0 < value < math.inf:
            raise PreconditionViolated(f"scheme constant {name} = {value!r} is out of range", bound=f"0 < {name} < inf")
    return SchemeParams(gamma=gamma, K=K, That=That, T=T, delta=delta, eps=eps)


@dataclass(frozen=True)
class TraceRecord:
    n: int
    norm_f: float
    norm_g: float
    norm_h: float
    inf_embed: float
    identity_residual: float
    claims: dict = field(compare=False)
    move_f: float = 0.0  # norm of the update step that produced this iterate
    move_g: float = 0.0

    def to_json(self) -> dict:
        return asdict(self)


@dataclass
class SchemeTrace:
    """Per-iteration audit trail of the recursion."""

    records: list = field(default_factory=list)
    reference_norm: float = 0.0

    def append(self, record: TraceRecord):
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_json_lines(self) -> str:
        return "\n".join(json.dumps(r.to_json(), sort_keys=True) for r in self.records)


def _claims_for(n, norm_f, norm_g, norm_h, inf_embed, residual, ref_norm, params):
    cap = 0.5 * params.K + 1.0 - 2.0 ** (-n)
    lower = params.gamma + params.gamma * 2.0 ** (-n)
    budget = 2.0 ** (-n) * params.delta
    return {
        "product_conserved": residual <= IDENTITY_TOL * (1.0 + ref_norm),
        "norms_capped": max(norm_f, norm_g) <= cap + GRACE,
        "lower_bound_kept": inf_embed >= lower - GRACE,
        "defect_halved": norm_h <= budget + GRACE,
        "slack": {
            "norm_cap": cap - max(norm_f, norm_g),
            "lower_bound": inf_embed - lower,
            "defect_budget": budget - norm_h,
        },
    }


CLAIM_KEYS = ("product_conserved", "norms_capped", "lower_bound_kept", "defect_halved")


def run_scheme(F, G, H, params: SchemeParams, model: AlgebraModel, max_iter: int = 200) -> tuple:
    """Run the recursion until the defect norm drops to 1e-12 * params.delta.

    Returns (f, g, trace) with f*g equal to F*G + H up to that defect and
    norm(f - F), norm(g - G) < params.eps.  A failing invariant raises
    ClaimViolation naming the iteration.
    """
    norm_h0 = model.norm(H)
    if norm_h0 >= params.delta:
        raise PerturbationTooLarge(
            "defect is not inside the scheme radius",
            bound="norm(H) < delta", value=norm_h0, limit=params.delta,
        )
    reference = F * G + H
    ref_norm = model.norm(reference)
    trace = SchemeTrace(reference_norm=ref_norm)
    Fn, Gn, Hn = F, G, H
    move_f = move_g = 0.0
    for n in range(max_iter + 1):
        residual = model.norm(Fn * Gn + Hn - reference)
        norm_f = model.norm(Fn)
        norm_g = model.norm(Gn)
        norm_h = model.norm(Hn)
        inf_embed = min_modulus_sum(model.embed(Fn), model.embed(Gn))
        claims = _claims_for(n, norm_f, norm_g, norm_h, inf_embed, residual, ref_norm, params)
        trace.append(
            TraceRecord(
                n=n,
                norm_f=norm_f,
                norm_g=norm_g,
                norm_h=norm_h,
                inf_embed=inf_embed,
                identity_residual=residual,
                claims=claims,
                move_f=move_f,
                move_g=move_g,
            )
        )
        for key in CLAIM_KEYS:
            if not claims[key]:
                raise ClaimViolation(n, key)
        if norm_h <= 1e-12 * params.delta:
            return Fn, Gn, trace
        u = Fn * model.conj(Fn) + Gn * model.conj(Gn)
        inv_u = model.invert(u)
        step_f = Hn * model.conj(Gn) * inv_u
        step_g = Hn * model.conj(Fn) * inv_u
        move_f, move_g = model.norm(step_f), model.norm(step_g)
        Fn, Gn, Hn = (
            Fn + step_f,
            Gn + step_g,
            -(Hn * Hn * model.conj(Fn * Gn) * inv_u * inv_u),
        )
    raise NonConvergence(f"defect above tolerance after {max_iter} iterations")


def audit_claims(trace: SchemeTrace, params: SchemeParams) -> dict:
    """Re-evaluate the invariants from the recorded norms; pass iff all hold.

    Recomputation from the stored numbers (not the stored booleans) makes a
    corrupted trace detectable.
    """
    if len(trace) == 0:
        raise PreconditionViolated("trace is empty", bound="nonempty trace")
    per_iteration = []
    overall = True
    for rec in trace:
        claims = _claims_for(
            rec.n, rec.norm_f, rec.norm_g, rec.norm_h, rec.inf_embed,
            rec.identity_residual, trace.reference_norm, params,
        )
        checks = {key: bool(claims[key]) for key in CLAIM_KEYS}
        overall = overall and all(checks.values())
        per_iteration.append({"n": rec.n, **checks, "slack": claims["slack"]})
    return {"pass": overall, "iterations": per_iteration}
