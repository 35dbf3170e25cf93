"""First-passage failure-probability estimation for a collateral portfolio.

A run fails when the portfolio's relative value (vs. the issue slot) drops
to theta/gamma' or below at any slot of the horizon: the collateral then no
longer covers theta times the stablecoins issued against it at initial
over-collateralization gamma'. Failure depends only on the portfolio's
relative composition, never on its absolute size.

Runs are pure functions of (config, seed, run index): draws come from
fixed-size counter-derived substreams, so parallel and serial execution
aggregate to bit-identical results. Portfolios that share a seed (all of
them under common random numbers) share each chunk's draws, colouring and
price paths, so a table sweep costs about one portfolio plus a weighting
per portfolio.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ModelError
from .riskmodel import NORMAL, STUDENT_T, PriceSeries, ReturnModel, common_timeline

CHUNK_RUNS = 1024  # substream granularity, independent of the job count
REPLAY_BLOCK = 256  # replay windows weighed together: ~3.5 MB at 6 assets, horizon 288


@dataclass(frozen=True)
class Portfolio:
    """Collateral basket as value fractions summing to one."""

    name: str
    assets: tuple[str, ...]
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "assets", tuple(self.assets))
        if len(self.assets) != len(w) or len(w) == 0:
            raise DataError("portfolio needs one weight per asset")
        if not np.all(np.isfinite(w)):
            raise DataError(f"portfolio weights must be finite, got {w}")
        if np.any(w < 0):
            raise DataError("portfolio weights must be >= 0")
        if abs(float(w.sum()) - 1.0) > 1e-9:
            raise DataError(f"portfolio weights must sum to 1, got {w.sum()!r}")

    @classmethod
    def from_amounts(cls, name: str, amounts: Mapping[str, float],
                     prices: Mapping[str, float] | None = None) -> "Portfolio":
        """Build from absolute token amounts (optionally priced); the overall
        scale cancels, only the relative composition survives."""
        assets = tuple(amounts)
        values = np.array(
            [amounts[a] * (prices[a] if prices else 1.0) for a in assets], dtype=float
        )
        total = values.sum()
        if total <= 0:
            raise DataError("portfolio must have positive total value")
        return cls(name, assets, values / total)

    @classmethod
    def from_weights(cls, name: str, weights: Mapping[str, float]) -> "Portfolio":
        assets = tuple(weights)
        w = np.array([weights[a] for a in assets], dtype=float)
        total = w.sum()
        if not 0.0 < total < math.inf:
            raise DataError(f"portfolio weights must have a positive, finite total, got {total!r}")
        return cls(name, assets, w / total)


@dataclass(frozen=True)
class FailureEstimate:
    probability: float
    ci_half_width: float
    runs: int
    horizon: int
    method: str
    gamma_prime: float
    theta: float
    seed: int
    failures: int

    def as_json(self) -> dict:
        return {
            "probability": self.probability,
            "ci_half_width": self.ci_half_width,
            "runs": self.runs,
            "horizon": self.horizon,
            "method": self.method,
            "gamma_prime": self.gamma_prime,
            "theta": self.theta,
            "seed": self.seed,
            "failures": self.failures,
        }


def confidence_interval(failures: int, runs: int) -> float:
    """Wald 95% half-width; degenerates to 0 at the p=0 and p=1 edges."""
    if not 0 <= failures <= runs or runs < 1:
        raise DataError("need 0 <= failures <= runs with runs >= 1")
    p = failures / runs
    return 1.96 * math.sqrt(p * (1.0 - p) / runs)


def _chunk_min_relvalue(args) -> np.ndarray:
    """Run-wise minimum relative value of every portfolio in a group that
    shares one seed: one chunk of innovations is drawn and coloured once, and
    each asset row the group uses is accumulated and exponentiated once."""
    model, members, horizon, n, distribution, seed, chunk_index, zero_drift = args
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    m = len(model.assets)
    if distribution == NORMAL:
        innov = rng.standard_normal((m, horizon, n))
    elif distribution == STUDENT_T:
        innov = np.empty((m, horizon, n))
        for i in range(m):
            nu = float(model.nu[i])
            if nu <= 2:
                raise ModelError(f"nu must exceed 2 for the t sampler, got {nu}")
            innov[i] = rng.standard_t(nu, (horizon, n)) / math.sqrt(nu / (nu - 2.0))
    else:
        raise ModelError(f"unknown distribution {distribution!r}")
    returns = np.einsum("ij,jtn->itn", model.chol, innov)
    del innov
    if not zero_drift:
        returns += model.mu[:, None, None]
    rows = np.unique(np.concatenate([idx for _, idx in members]))
    rel = returns if len(rows) == m else returns[rows]
    np.cumsum(rel, axis=1, out=rel)
    np.exp(rel, out=rel)  # per-asset price ratio paths
    return np.stack([
        np.einsum("i,itn->tn", weights, rel[np.searchsorted(rows, idx)]).min(axis=0)
        for weights, idx in members
    ])


def _min_relative_values(
    portfolios: Sequence[Portfolio],
    seeds: Sequence[int],
    model: ReturnModel,
    horizon: int,
    runs: int,
    distribution: str,
    zero_drift: bool,
    jobs: int = 1,
) -> np.ndarray:
    """Minimum relative portfolio value over slots 1..horizon, one row per
    portfolio and one column per run. Portfolios with equal seeds share their
    draws; each task is one chunk of runs for one such group."""
    groups: dict[int, list[int]] = {}
    for p_i, seed in enumerate(seeds):
        groups.setdefault(seed, []).append(p_i)
    spans, tasks = [], []
    for seed, members in groups.items():
        basket = tuple((portfolios[i].weights, model.index_of(portfolios[i].assets)) for i in members)
        for chunk_index, start in enumerate(range(0, runs, CHUNK_RUNS)):
            n = min(CHUNK_RUNS, runs - start)
            spans.append((members, slice(start, start + n)))
            tasks.append((model, basket, horizon, n, distribution, seed, chunk_index, zero_drift))
    if jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(_chunk_min_relvalue, tasks))
    else:
        parts = [_chunk_min_relvalue(t) for t in tasks]
    mins = np.empty((len(portfolios), runs))
    for (members, cols), part in zip(spans, parts):
        mins[members, cols] = part
    return mins


def _validate_levels(gamma_prime: float, theta: float) -> float:
    if not (gamma_prime > theta > 1.0):
        raise DataError(f"need gamma' > theta > 1, got {gamma_prime}, {theta}")
    return theta / gamma_prime


def simulate_failure(
    portfolio: Portfolio,
    model: ReturnModel,
    gamma_prime: float,
    theta: float,
    horizon: int,
    runs: int,
    distribution: str = STUDENT_T,
    seed: int = 0,
    zero_drift: bool = False,
    jobs: int = 1,
) -> FailureEstimate:
    """Monte Carlo first-passage failure probability with a Wald 95% CI: the
    one cell of a one-portfolio, one-gamma' `table_sweep`."""
    sweep = table_sweep(
        [portfolio], [gamma_prime], model, theta, horizon, runs, distribution, seed,
        zero_drift=zero_drift, jobs=jobs,
    )
    return sweep.estimates[(gamma_prime, portfolio.name)]


# ----------------------------------------------------------------------
# historical replay


def historical_replay(
    portfolio: Portfolio,
    series_map: Mapping[str, PriceSeries],
    gamma_prime: float,
    theta: float,
    horizon: int,
) -> FailureEstimate:
    """Evaluate the first-passage criterion over every horizon-long window of
    actual prices that fits inside a single period of the assets' common
    timeline. Windows are weighed REPLAY_BLOCK start slots at a time; each
    window's relative values are the same `weights @ (seg / seg[:, :1])` as
    one window on its own."""
    if not (gamma_prime >= theta > 1.0):
        raise DataError(f"need gamma' >= theta > 1, got {gamma_prime}, {theta}")
    threshold = theta / gamma_prime
    if horizon < 1:
        raise DataError("horizon must be >= 1")
    panel, cuts = common_timeline(series_map, portfolio.assets)
    windows = 0
    failures = 0
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < horizon + 1:
            continue
        # (start, asset, slot) view of every window starting in [a, b - horizon)
        view = sliding_window_view(panel[:, a:b], horizon + 1, axis=1).transpose(1, 0, 2)
        for lo in range(0, len(view), REPLAY_BLOCK):
            seg = view[lo : lo + REPLAY_BLOCK]
            # C-ordered, so matmul takes each window's (asset, slot) matrix in
            # the same layout, and sums in the same order, as a lone window
            ratio = np.empty(seg.shape)
            np.divide(seg, seg[:, :, :1], out=ratio)
            rel = portfolio.weights @ ratio
            failures += int(np.count_nonzero(rel.min(axis=1) <= threshold))
        windows += len(view)
    if windows == 0:
        raise DataError("insufficient data: no window of the requested horizon")
    return FailureEstimate(
        probability=failures / windows,
        ci_half_width=confidence_interval(failures, windows),
        runs=windows,
        horizon=horizon,
        method="historical",
        gamma_prime=gamma_prime,
        theta=theta,
        seed=0,
        failures=failures,
    )


# ----------------------------------------------------------------------
# batch sweeps (shared random numbers across the whole table)


@dataclass(frozen=True)
class SweepResult:
    gamma_primes: tuple[float, ...]
    portfolios: tuple[str, ...]
    estimates: dict[tuple[float, str], FailureEstimate]

    def to_csv(self) -> str:
        lines = ["gamma_prime," + ",".join(self.portfolios)]
        for g in self.gamma_primes:
            cells = [f"{self.estimates[(g, name)].probability:.6f}" for name in self.portfolios]
            lines.append(f"{g}," + ",".join(cells))
        return "\n".join(lines) + "\n"

    def as_json(self) -> dict:
        return {
            "gamma_primes": list(self.gamma_primes),
            "portfolios": list(self.portfolios),
            "cells": {
                f"{g}|{name}": est.as_json() for (g, name), est in sorted(self.estimates.items())
            },
        }


def table_sweep(
    portfolios: Sequence[Portfolio],
    gamma_primes: Sequence[float],
    model: ReturnModel,
    theta: float,
    horizon: int,
    runs: int,
    distribution: str = STUDENT_T,
    seed: int = 0,
    common_random_numbers: bool = True,
    zero_drift: bool = False,
    jobs: int = 1,
) -> SweepResult:
    """Cartesian product of portfolios and gamma' levels under one model.

    Every portfolio's run-wise minimum is computed once and thresholded per
    gamma'. With common random numbers all portfolios share one seed, so
    each chunk of runs is drawn, coloured and exponentiated once for the
    whole table and only the weighting is per portfolio; the failure
    probability is exactly non-increasing down the gamma' rows. Without
    them portfolio i draws from seed + 7919*(i+1).
    """
    thresholds = {g: _validate_levels(g, theta) for g in gamma_primes}
    if horizon < 1 or runs < 1:
        raise DataError(f"horizon and runs must be >= 1, got {horizon}, {runs}")
    names = [p.name for p in portfolios]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise DataError(f"portfolio names must be unique, repeated: {duplicates}")
    seeds = [
        seed if common_random_numbers else seed + 7919 * (p_i + 1) for p_i in range(len(portfolios))
    ]
    mins = _min_relative_values(portfolios, seeds, model, horizon, runs, distribution, zero_drift, jobs)
    estimates: dict[tuple[float, str], FailureEstimate] = {}
    for p_i, portfolio in enumerate(portfolios):
        for g in gamma_primes:
            failures = int(np.count_nonzero(mins[p_i] <= thresholds[g]))
            estimates[(g, portfolio.name)] = FailureEstimate(
                probability=failures / runs,
                ci_half_width=confidence_interval(failures, runs),
                runs=runs,
                horizon=horizon,
                method=distribution,
                gamma_prime=g,
                theta=theta,
                seed=seeds[p_i],
                failures=failures,
            )
    return SweepResult(
        gamma_primes=tuple(gamma_primes),
        portfolios=tuple(names),
        estimates=estimates,
    )
