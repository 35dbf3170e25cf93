"""Box-constrained minimum-variance portfolio optimization.

minimize    v' Cov v
subject to  sum(v) = 1,  0 <= v_i <= cap_i

Solved by projected gradient descent (projection onto the capped simplex
via exact breakpoint search) with periodic active-set polish: once the
active set settles, the equality-constrained reduced system is solved
exactly, which drives the KKT residual to machine precision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InfeasibleProblemError, ModelError

KKT_TOL = 1e-6
MAX_ITER = 100_000
_BOUND_EPS = 1e-12


@dataclass(frozen=True)
class QpProblem:
    cov: np.ndarray
    caps: np.ndarray  # per-asset upper bounds, each in (0, 1]
    assets: tuple[str, ...] | None = None

    def __post_init__(self):
        cov = np.asarray(self.cov, dtype=float)
        caps = np.asarray(self.caps, dtype=float)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "caps", caps)
        if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
            raise ModelError("cov must be square")
        if len(caps) != cov.shape[0]:
            raise ModelError("need one cap per asset")
        if np.any(caps <= 0) or np.any(caps > 1):
            raise InfeasibleProblemError("caps must lie in (0, 1]")
        if caps.sum() < 1.0 - 1e-12:
            raise InfeasibleProblemError(f"sum of caps {caps.sum()} < 1: no feasible portfolio")
        if np.linalg.norm(cov - cov.T) > 1e-8 * max(np.linalg.norm(cov), 1e-300):
            raise ModelError("cov must be symmetric")
        eigmin = float(np.linalg.eigvalsh(cov)[0])
        if eigmin < -1e-8 * max(float(np.abs(cov).max()), 1.0):
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


def _active_sets(v: np.ndarray, caps: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    lower = v <= _BOUND_EPS
    upper = v >= caps - _BOUND_EPS
    free = ~(lower | upper)
    return free, lower, upper


def kkt_check(weights: np.ndarray, problem: QpProblem) -> float:
    """Maximum stationarity violation of the KKT system at a feasible point.

    Zero residual certifies optimality; infeasible inputs are rejected.
    """
    v = np.asarray(weights, dtype=float)
    caps = problem.caps
    if abs(v.sum() - 1.0) > 1e-8 or np.any(v < -1e-8) or np.any(v > caps + 1e-8):
        raise InfeasibleProblemError("weights are not feasible")
    g = 2.0 * problem.cov @ v
    free, lower, upper = _active_sets(v, caps)
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


def _polish(v: np.ndarray, problem: QpProblem) -> np.ndarray | None:
    """Solve the equality-constrained QP exactly on the current active set."""
    caps = problem.caps
    free, lower, upper = _active_sets(v, caps)
    nf = int(free.sum())
    if nf == 0:
        return None
    fixed = np.where(lower, 0.0, np.where(upper, caps, 0.0))
    cov = problem.cov
    kkt = np.zeros((nf + 1, nf + 1))
    kkt[:nf, :nf] = 2.0 * cov[np.ix_(free, free)]
    kkt[:nf, nf] = 1.0
    kkt[nf, :nf] = 1.0
    rhs = np.zeros(nf + 1)
    rhs[:nf] = -2.0 * cov[np.ix_(free, ~free)] @ fixed[~free]
    rhs[nf] = 1.0 - fixed[~free].sum()
    try:
        sol = np.linalg.solve(kkt, rhs)
    except np.linalg.LinAlgError:
        sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
    vf = sol[:nf]
    if np.any(vf < -1e-10) or np.any(vf > caps[free] + 1e-10):
        return None
    out = fixed.copy()
    out[free] = np.clip(vf, 0.0, caps[free])
    return out


def min_variance(problem: QpProblem) -> QpSolution:
    """Projected-gradient / active-set solve of the capped-simplex QP."""
    cov = problem.cov
    caps = problem.caps
    m = len(caps)
    lipschitz = 2.0 * max(float(np.linalg.eigvalsh(cov)[-1]), 1e-300)
    eta = 1.0 / lipschitz

    v = project_capped_simplex(np.full(m, 1.0 / m), caps)
    obj = float(v @ cov @ v)
    best_resid = kkt_check(v, problem)
    iterations = 0
    while best_resid > KKT_TOL and iterations < MAX_ITER:
        iterations += 1
        v_next = project_capped_simplex(v - eta * (2.0 * cov @ v), caps)
        obj_next = float(v_next @ cov @ v_next)
        if obj_next <= obj:  # monotone descent by the 1/L step, kept explicit
            v, obj = v_next, obj_next
        best_resid = kkt_check(v, problem)
        if best_resid <= KKT_TOL:
            break
        if iterations % 20 == 0 or iterations == 1:
            polished = _polish(v, problem)
            if polished is not None:
                p_obj = float(polished @ cov @ polished)
                if p_obj <= obj + 1e-15:
                    p_resid = kkt_check(polished, problem)
                    if p_resid < best_resid:
                        v, obj, best_resid = polished, p_obj, p_resid
    return QpSolution(weights=v, objective=obj, kkt_residual=best_resid, iterations=iterations)


def debt_ceilings_from(weights: np.ndarray, beta: float) -> np.ndarray:
    """Per-token fractional debt ceilings from optimal weights:
    zeta = min(1, (1 + beta) * v)."""
    if beta <= 0:
        raise ModelError("flexibility margin beta must be > 0")
    w = np.asarray(weights, dtype=float)
    if np.any(w < 0):
        raise ModelError("weights must be >= 0")
    return np.minimum(1.0, (1.0 + beta) * w)
