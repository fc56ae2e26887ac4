"""Empirical openness estimates by brute-force sampling.

The probe bounds openness moduli from below without trusting the pipeline's
certificates: the scalar oracle searches a product-reachability grid, and the
pipeline probe pushes random perturbations past the certified radius and
verifies results a posteriori.
"""

from __future__ import annotations

import contextlib
import csv
from dataclasses import dataclass

import numpy as np

from .errors import CoverInfeasible, PreconditionViolated
from .functions import GridFunction
from .interval import _ELIDE_BYTES, PinTable, _solve_ragged, delta0, plan_intervals
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


def _reachable(x, y, eps, w, grid):
    """Whether some x', y' in the eps-balls around x, y give x'*y' = x*y + w.

    Grid search over x' = x + eps*rho*exp(i*theta) with local refinement; the
    partner y' = psi/x' is feasible when it lands in the eps-ball around y.
    """
    psi = x * y + w
    if psi == 0:
        # x'*y' = 0 needs one factor exactly zero within its eps-ball
        return abs(x) <= eps or abs(y) <= eps
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
        raise PreconditionViolated("grid must be at least 8", bound="grid >= 8", value=grid, limit=8)

    def success(r):
        for phase in np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False):
            if not _reachable(x, y, eps, r * np.exp(1j * phase), grid):
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
    `trials` random directions through the ungated solve; a trial succeeds
    when the solve certifies its result (identity and bounds, checked a
    posteriori).  Reports the largest radius at which every sampled direction
    succeeded.  f and g on two grids are refused, an infeasible cover fails
    every trial, and an internal failure of the plan propagates.  A rung's
    trials are split evenly over the fewest chunks that keep every batched
    array below numpy's in-place reuse threshold, a short last chunk padded
    with copies of its own trials, so each trial gets the bits of a solve of
    its own on the call's one plan, over a chunk's worth of copies of (f, g)
    laid end to end, and fails on its own verdict (a root tie included) alone.
    """
    if trials < 1:
        raise PreconditionViolated("trials must be at least 1", bound="trials", value=trials, limit=1)
    if seed < 0:
        raise PreconditionViolated("seed must be non-negative", bound="seed", value=seed)
    rng = np.random.default_rng(seed)
    base = delta0(eps0)
    f._check_domain(g)
    n = f.domain.n
    cap = max(1, (_ELIDE_BYTES - 1) // (16 * n))
    chunk = -(-trials // -(-trials // cap))  # ceil(trials / the fewest chunks of at most cap)
    fv, gv = np.tile(f.values, chunk), np.tile(g.values, chunk)
    plan = None  # a cover infeasible whatever d is: every trial fails
    with contextlib.suppress(CoverInfeasible):
        plan = plan_intervals(fv, gv, eps0, np.arange(chunk + 1) * n, PinTable.of([(None, None)] * chunk))

    curve = []
    delta_emp = 0.0
    for k in range(max_steps):
        r = base * 1.5**k
        hits = 0
        for done in range(0, trials if plan is not None else 0, chunk):
            # the bits of one pair of standard_normal(n) calls per trial, real part first
            rows = min(chunk, trials - done)
            raw = rng.standard_normal((rows, 2, n))
            dv = raw[:, 0] + 1j * raw[:, 1]
            dv *= (r / np.max(np.abs(dv), axis=1))[:, None]
            padded = dv if rows == chunk else np.resize(dv, (chunk, n))  # dv, then copies of its own rows
            hits += _solve_ragged(plan, padded.ravel())[2].failed[:rows].count(None)
        curve.append((r, hits / trials))
        if hits < trials:
            break
        delta_emp = r
    return ProbeReport(
        eps=eps0,
        delta_constructive=base,
        delta_empirical=delta_emp,
        samples=trials,
        seed=seed,
        curve=tuple(curve),
    )
