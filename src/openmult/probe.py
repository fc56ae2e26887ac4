"""Empirical openness estimates by brute-force sampling.

The probe bounds openness moduli from below without trusting the pipeline's
certificates: the scalar oracle searches a product-reachability grid, and the
pipeline probe pushes random perturbations past the certified radius and
verifies results a posteriori.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .errors import OpenMultError, PreconditionViolated
from .functions import GridFunction
from .interval import RESIDUAL_TOL, delta0, plan_interval, solve_interval
from .interval import open_mult_interval  # noqa: F401  traced under this name by perfbench/layers.py


@dataclass(frozen=True)
class ProbeReport:
    eps: float
    delta_constructive: float
    delta_empirical: float
    samples: int
    seed: int
    curve: tuple  # (radius, success_rate) pairs

    def to_json(self) -> dict:
        return {
            "eps": self.eps,
            "delta_constructive": repr(self.delta_constructive),
            "delta_empirical": repr(self.delta_empirical),
            "samples": self.samples,
            "seed": self.seed,
            "curve": [[repr(r), rate] for r, rate in self.curve],
        }

    def write_curve_csv(self, path):
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["r", "success_rate"])
            for r, rate in self.curve:
                writer.writerow([repr(r), rate])


def _psi_zero_reachable(x, y, eps):
    # x'*y' = 0 needs one factor exactly zero within its eps-ball
    return abs(x) <= eps or abs(y) <= eps


def _reachable(x, y, eps, w, grid):
    """Whether some x', y' in the eps-balls around x, y give x'*y' = x*y + w.

    Grid search over x' = x + eps*rho*exp(i*theta) with local refinement; the
    partner y' = psi/x' is feasible when it lands in the eps-ball around y.
    """
    psi = x * y + w
    if psi == 0:
        return _psi_zero_reachable(x, y, eps)
    lo_r, hi_r = 0.0, 1.0
    lo_t, hi_t = 0.0, 2.0 * np.pi
    center = x
    for _round in range(4):
        rho = np.linspace(lo_r, hi_r, grid)
        theta = np.linspace(lo_t, hi_t, grid, endpoint=False)
        rr, tt = np.meshgrid(rho, theta)
        cand = center + eps * rr * np.exp(1j * tt)
        ok = cand != 0
        dist = np.full(cand.shape, np.inf)
        dist[ok] = np.abs(psi / cand[ok] - y)
        best = float(np.min(dist))
        if best <= eps * (1.0 + 1e-9):
            return True
        i, j = np.unravel_index(int(np.argmin(dist)), dist.shape)
        r0, t0 = float(rr[i, j]), float(tt[i, j])
        span_r = (hi_r - lo_r) / grid * 2.0
        span_t = (hi_t - lo_t) / grid * 2.0
        lo_r, hi_r = max(0.0, r0 - span_r), min(1.0, r0 + span_r)
        lo_t, hi_t = t0 - span_t, t0 + span_t
    return False


def brute_scalar_delta(eps: float, x: complex, y: complex, grid: int = 32) -> float:
    """Largest radius r (bisected to 1e-4 relative) such that every sampled
    direction w with |w| = r admits factors within the eps-balls."""
    if grid < 8:
        raise PreconditionViolated("grid must be at least 8")

    def success(r):
        for phase in np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False):
            w = r * np.exp(1j * phase)
            psi = x * y + w
            if psi == 0:
                if not _psi_zero_reachable(x, y, eps):
                    return False
                continue
            if not _reachable(x, y, eps, w, grid):
                return False
        return True

    hi = eps * (abs(x) + abs(y) + eps) * 1.01 + 1e-12
    lo = 0.0
    if not success(hi):
        while hi - lo > 1e-4 * max(hi, 1e-12):
            mid = 0.5 * (lo + hi)
            if success(mid):
                lo = mid
            else:
                hi = mid
    else:
        lo = hi
    return lo


def probe_pipeline(
    f: GridFunction, g: GridFunction, eps0: float, trials: int, seed: int,
    max_steps: int = 16,
) -> ProbeReport:
    """Push random perturbations past the certified radius.

    For each radius on a fixed geometric ladder starting at delta0(eps0), run
    `trials` random directions through the pipeline with the admissibility
    gates off and verify identity and bounds a posteriori.  Reports the
    largest radius at which every sampled direction succeeded.  The cover and
    phases are planned once for (f, g); each trial is one solve_interval.
    """
    if trials < 1:
        raise PreconditionViolated("trials must be at least 1")
    rng = np.random.default_rng(seed)
    base = delta0(eps0)
    n = f.domain.n
    try:
        plan = plan_interval(f.values, g.values, eps0) if f.domain == g.domain else None
    except OpenMultError:
        plan = None  # refused whatever d is: every trial fails
    curve = []
    delta_emp = 0.0
    for k in range(max_steps):
        r = base * 1.5**k
        successes = 0
        for _ in range(trials):
            raw = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            sup = float(np.max(np.abs(raw)))
            dv = raw * (r / sup)
            if plan is None:
                continue
            try:
                residual, bound1, bound2 = solve_interval(plan, dv, strict=False)[3:]
            except OpenMultError:
                continue
            scale = 1.0 + float(np.max(np.abs(f.values * g.values + dv)))
            if (
                residual <= RESIDUAL_TOL * scale
                and bound1 <= eps0 * (1.0 + 1e-9)
                and bound2 <= eps0 * (1.0 + 1e-9)
            ):
                successes += 1
        rate = successes / trials
        curve.append((r, rate))
        if rate == 1.0:
            delta_emp = r
        else:
            break
    return ProbeReport(
        eps=eps0,
        delta_constructive=base,
        delta_empirical=delta_emp,
        samples=trials,
        seed=seed,
        curve=tuple(curve),
    )


def probe_report_to_json(report: ProbeReport) -> str:
    return json.dumps(report.to_json(), sort_keys=True)
