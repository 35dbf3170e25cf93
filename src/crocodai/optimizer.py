"""Box-constrained minimum-variance portfolio optimization.

minimize    v' Cov v
subject to  sum(v) = 1,  0 <= v_i <= cap_i

Solved exactly by one primal active-set loop (Nocedal & Wright, Numerical
Optimization, 2nd ed., Algorithm 16.3) from the projection of the uniform
portfolio onto the capped simplex (exact breakpoint search). Each pass solves
the equality-constrained QP on the free weights, then either stops at the
first bound on the way and adds it to the working set, or moves to the
subproblem's minimiser and releases the bound with the most negative
multiplier. It stops when none is below -1e-12 * max|Cov|, a test relative to
Cov's scale, so the weights do not depend on the units of the returns.
`iterations` counts working-set changes. A Cov with eigenvalues slightly
below zero, which QpProblem admits, is first shifted by the identity to PSD.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProblemError, ModelError

_BOUND_EPS = 1e-12


@dataclass(frozen=True)
class QpProblem:
    cov: np.ndarray
    caps: np.ndarray  # per-asset upper bounds, each in (0, 1]

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        caps = np.asarray(self.caps, dtype=float)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "caps", caps)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ModelError("cov must be square")
        if len(caps) != cov.shape[0]:
            raise ModelError("need one cap per asset")
        if not np.all((caps > 0) & (caps <= 1)):
            raise InfeasibleProblemError("caps must lie in (0, 1]")
        if caps.sum() < 1.0 - 1e-12:
            raise InfeasibleProblemError(f"sum of caps {caps.sum()} < 1: no feasible portfolio")
        if not np.all(np.isfinite(cov)):
            raise ModelError("cov must be finite")
        if np.linalg.norm(cov - cov.T) > 1e-8 * max(np.linalg.norm(cov), 1e-300):
            raise ModelError("cov must be symmetric")
        eigmin = float(np.linalg.eigvalsh(cov)[0])
        if eigmin < -1e-8 * float(np.abs(cov).max()):
            raise ModelError(f"cov is not positive semi-definite (min eigenvalue {eigmin})")


@dataclass(frozen=True)
class QpSolution:
    weights: np.ndarray
    objective: float
    kkt_residual: float
    iterations: int


def project_capped_simplex(y: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Euclidean projection onto {v : sum(v) = 1, 0 <= v <= caps}.

    The projection is clip(y - tau, 0, caps) for the unique tau where the
    coordinate sum hits 1; tau is found by exact search over the sorted
    breakpoints (ties resolved by the stable sort, i.e. by asset index).
    """
    y = np.asarray(y, dtype=float)
    caps = np.asarray(caps, dtype=float)
    if caps.sum() < 1.0 - 1e-12:
        raise InfeasibleProblemError("sum of caps < 1: projection target is empty")

    bps = np.sort(np.concatenate([y, y - caps]), kind="stable")

    def total(tau: float) -> float:
        return float(np.clip(y - tau, 0.0, caps).sum())

    # total(tau) is continuous, non-increasing, piecewise linear with knees
    # exactly at the breakpoints; total(bps[0]) = sum(caps) >= 1 and
    # total(bps[-1]) = 0, so the crossing segment is bracketed
    left, right = 0, len(bps) - 1
    while right - left > 1:
        mid = (left + right) // 2
        if total(bps[mid]) >= 1.0:
            left = mid
        else:
            right = mid
    a, b = float(bps[left]), float(bps[right])
    ta, tb = total(a), total(b)
    tau = a if ta == tb else a + (ta - 1.0) * (b - a) / (ta - tb)
    v = np.clip(y - tau, 0.0, caps)
    # one exact correction step on the free set kills the last float error
    free = (v > 0.0) & (v < caps)
    gap = 1.0 - v.sum()
    if np.any(free) and gap != 0.0:
        v[free] += gap / free.sum()
        v = np.clip(v, 0.0, caps)
    return v


def kkt_check(weights: np.ndarray, problem: QpProblem) -> float:
    """Maximum stationarity violation of the KKT system at a feasible point.

    Zero residual certifies optimality; infeasible inputs are rejected.
    """
    v = np.asarray(weights, dtype=float)
    caps = problem.caps
    if abs(v.sum() - 1.0) > 1e-8 or np.any(v < -1e-8) or np.any(v > caps + 1e-8):
        raise InfeasibleProblemError("weights are not feasible")
    g = 2.0 * problem.cov @ v
    lower = v <= _BOUND_EPS
    upper = v >= caps - _BOUND_EPS
    free = ~(lower | upper)
    if np.any(free):
        kappa = -float(g[free].mean())
    else:
        lo = -float(g[lower].min()) if np.any(lower) else None
        hi = -float(g[upper].max()) if np.any(upper) else None
        if lo is not None and hi is not None:
            kappa = 0.5 * (lo + hi)
        else:
            kappa = lo if lo is not None else (hi if hi is not None else 0.0)
    resid = 0.0
    if np.any(free):
        resid = max(resid, float(np.abs(g[free] + kappa).max()))
    if np.any(lower):  # multiplier g_i + kappa must be >= 0 at the lower bound
        resid = max(resid, float(np.maximum(0.0, -(g[lower] + kappa)).max()))
    if np.any(upper):  # and <= 0 at the cap
        resid = max(resid, float(np.maximum(0.0, g[upper] + kappa).max()))
    return resid


def min_variance(problem: QpProblem) -> QpSolution:
    """Exact minimum-variance weights by the active-set loop described above."""
    caps = problem.caps
    m = len(caps)
    # in units of max|cov|, so every step, the stopping test included, is
    # independent of the units the returns were measured in
    cov = problem.cov / (float(np.abs(problem.cov).max()) or 1.0)
    # QpProblem admits eigenvalues down to -1e-8 * max|cov|; on a face with
    # negative curvature the KKT point is a saddle and the loop can cycle, so
    # shift the spectrum to make every face convex
    cov -= min(float(np.linalg.eigvalsh(cov)[0]), 0.0) * np.eye(m)
    v = project_capped_simplex(np.full(m, 1.0 / m), caps)
    lower, upper = v == 0.0, v == caps  # the working set: bounds held as equalities
    if np.all(lower | upper):  # a vertex: one free variable carries the budget
        k = int(np.argmax(v))
        lower[k] = upper[k] = False
    iterations = 0
    while True:
        free = ~(lower | upper)
        nf = int(free.sum())
        target = np.where(upper, caps, 0.0)
        kkt = np.ones((nf + 1, nf + 1))
        kkt[:nf, :nf] = 2.0 * cov[np.ix_(free, free)]
        kkt[nf, nf] = 0.0
        rhs = np.append(-2.0 * (cov @ target)[free], 1.0 - target.sum())
        try:
            sol = np.linalg.solve(kkt, rhs)
        except np.linalg.LinAlgError:  # singular cov on the free set
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
        target[free] = sol[:nf]
        step = target - v
        # the first bound a free variable reaches on the way to target; the
        # last free variable carries the budget and is never blocked
        moving = free & (step != 0.0)
        room = np.full(m, np.inf)
        room[moving] = np.where(step[moving] < 0.0, v[moving], caps[moving] - v[moving]) / np.abs(step[moving])
        j = int(np.argmin(room))
        if nf > 1 and room[j] <= 1.0:
            v = np.clip(v + room[j] * step, 0.0, caps)
            lower[j], upper[j] = step[j] < 0.0, step[j] > 0.0
            v[j] = caps[j] if upper[j] else 0.0
        else:
            v = np.clip(target, 0.0, caps)
            # bound multipliers, signed so that a negative one means the
            # objective falls off that bound; release the most negative
            lam = 2.0 * cov @ v + sol[nf]
            mult = np.where(lower, lam, np.where(upper, -lam, np.inf))
            j = int(np.argmin(mult))
            if mult[j] >= -1e-12:
                break
            lower[j] = upper[j] = False
        iterations += 1
    return QpSolution(weights=v, objective=float(v @ problem.cov @ v),
                      kkt_residual=kkt_check(v, problem), iterations=iterations)


def debt_ceilings_from(weights: np.ndarray, beta: float) -> np.ndarray:
    """Per-token fractional debt ceilings from optimal weights:
    zeta = min(1, (1 + beta) * v)."""
    if not 0 < beta < np.inf:  # a NaN or infinite beta makes NaN ceilings
        raise ModelError(f"flexibility margin beta must be finite and > 0, got {beta}")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ModelError("weights must be >= 0")
    return np.minimum(1.0, (1.0 + beta) * w)
