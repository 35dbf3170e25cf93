"""First-passage failure-probability estimation for a collateral portfolio.

A run fails when the portfolio's relative value (vs. the issue slot) drops
to theta/gamma' or below at any slot of the horizon: the collateral then no
longer covers theta times the stablecoins issued against it at initial
over-collateralization gamma'. Failure depends only on the portfolio's
relative composition, never on its absolute size.

Runs are pure functions of (config, seed, run index): draws come from
fixed-size counter-derived substreams, and a parallel sweep runs threads in
one process over the same substreams, so it is bit-identical to a serial one.
Every chunk is drawn by `riskmodel.sample_returns`, the one sampler the
acceptance suite validates. Portfolios that share a seed (all of them under
common random numbers) share each chunk's draws, colouring and price paths.
Monte Carlo runs and historical replay windows alike are reduced to one
relative value each, which one estimate builder thresholds at theta/gamma'
for every gamma'. For a run, and for a replay window that can fail, it is the
exact minimum. A window whose sliding-minimum lower bound lies provably above
every threshold is never weighed, and carries that bound instead, so every
count is the count of the exact minima.

A chunk of n runs over the horizon works in one (assets, horizon, n)
buffer, its only large array, in six stages:

1. draw: `sample_returns` draws the innovations into the buffer, for the
   rows up to the group's last used one;
2. colour: it colours them in place by the Cholesky factor, in einsum's
   sum order;
3. cumsum: each slot adds the one before it, in place, as `np.cumsum` does,
   on one view per run of consecutive used rows;
4. exp: `np.exp` in place on the same views gives the price-ratio paths;
5. weight: each portfolio's value path is a sequential multiply-add of its
   assets' rows, read in place, in einsum's sum order, one block of
   COLOUR_BLOCK // n slots at a time into two reused buffers;
6. min: each block's run-wise minimum folds into the minimum over the
   horizon.

Each stage gives the bits of the einsum and cumsum formulation it replaced,
except where horizon * n is 1 (see `riskmodel.sample_returns`).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass
from functools import partial
from operator import call
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError, ProtocolError
from .riskmodel import COLOUR_BLOCK, STUDENT_T, PriceSeries, ReturnModel, common_timeline, sample_returns

CHUNK_RUNS = 1024  # substream granularity, independent of the job count
MAX_JOBS = 64  # the largest job count: the most worker threads one sweep starts
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
    def from_weights(cls, name: str, weights: Mapping[str, float]) -> "Portfolio":
        assets = tuple(weights)
        w = np.array([weights[a] for a in assets], dtype=float)
        with np.errstate(over="ignore"):
            total = float(w.sum())
        if total == math.inf and np.all(np.isfinite(w)):  # finite weights, too large to add
            w = w / w.max()
            total = float(w.sum())
        if not 0.0 < total < math.inf:
            raise DataError(f"portfolio weights must have a positive, finite total, got {total}")
        return cls(name, assets, w / total)


# ----------------------------------------------------------------------
# built-in portfolios (weights in percent, normalized on construction)

_BUILTIN_WEIGHTS: dict[str, dict[str, float]] = {
    "D-All": {"USDC": 47, "ETH": 19, "PAXG": 14, "USDP": 10, "USDT": 8, "WBTC": 2},
    "D-ERC": {"ETH": 90.2, "WBTC": 9.4, "GNO": 0.2, "LINK": 0.1, "MATIC": 0.05, "YFI": 0.05},
    "D-Mix1": {"ETH": 50, "WBTC": 30, "GNO": 5, "LINK": 5, "MATIC": 5, "YFI": 5},
    "D-Mix2": {"ETH": 20, "WBTC": 20, "GNO": 15, "LINK": 15, "MATIC": 15, "YFI": 15},
    "C-Mix1": {"ETH": 50, "WBTC": 30, "ADA": 5, "DOT": 5, "TRX": 5, "AVAX": 5},
    "C-Mix2": {"ETH": 20, "WBTC": 20, "ADA": 15, "DOT": 15, "TRX": 15, "AVAX": 15},
    # optimized fixtures; exact values are dataset-dependent
    "D-Opt": {"WBTC": 74.015, "GNO": 25.985},
    "C-Opt": {"WBTC": 62.204, "TRX": 37.796},
    "A-Opt": {
        "BSV": 8.728, "BTG": 0.796, "BTT": 36.821, "DCR": 4.357, "GNO": 5.221,
        "HT": 0.0762, "KCS": 2.726, "KLAY": 5.705, "LEO": 17.568, "OKB": 3.223,
        "TRX": 13.017, "TWT": 0.483, "XLM": 0.593,
    },
}

BUILTIN_PORTFOLIOS = tuple(_BUILTIN_WEIGHTS)

# candidate collateral universes for the optimizer CLI
UNIVERSES: dict[str, tuple[str, ...]] = {
    "D": ("ETH", "WBTC", "GNO", "LINK", "MATIC", "YFI"),
    "C": ("ETH", "WBTC", "ADA", "DOT", "TRX", "AVAX", "SOL", "ALGO", "EOS"),
}

PEGGED_SYMBOLS = frozenset(
    {"USDC", "USDT", "USDP", "BUSD", "DAI", "GUSD", "TUSD", "USDN", "PAXG", "USDD", "FRAX"}
)


def builtin_portfolio(name: str) -> Portfolio:
    if name not in _BUILTIN_WEIGHTS:
        raise ProtocolError(f"unknown builtin portfolio {name!r} (have {sorted(_BUILTIN_WEIGHTS)})")
    return Portfolio.from_weights(name, _BUILTIN_WEIGHTS[name])


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
        return asdict(self)


def confidence_interval(failures: int, runs: int) -> float:
    """Wald 95% half-width; degenerates to 0 at the p=0 and p=1 edges."""
    if not 0 <= failures <= runs or runs < 1:
        raise DataError("need 0 <= failures <= runs with runs >= 1")
    p = failures / runs
    return 1.96 * math.sqrt(p * (1.0 - p) / runs)


def _chunk_min_relvalue(model, members, horizon, n, distribution, seed, chunk_index, zero_drift) -> np.ndarray:
    """Run-wise minimum relative value of every portfolio in a group that
    shares one seed: one chunk of returns is drawn by `sample_returns` once,
    and each asset row the group uses is accumulated and exponentiated once.

    The path sums are sequential, slot t adding slot t-1 in place, as
    `np.cumsum(axis=1)` sums. Each portfolio's value path is w[0]*r[0], plus
    w[i]*r[i] for ascending i, each product rounded before it is added: the
    sum order of `np.einsum("i,itn->tn", w, r)` whenever horizon*n > 1."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(chunk_index,)))
    rows = np.unique(np.concatenate([idx for _, idx in members]))
    # each asset's horizon*n draws fill its (horizon, n) block in C order: the
    # same stream and layout as an (m, horizon, n) draw; rows past the group's
    # last are never drawn
    returns = sample_returns(model, horizon * n, distribution, rng, zero_drift, rows[-1] + 1)
    returns = returns.reshape(-1, horizon, n)
    for run in np.split(rows, np.flatnonzero(np.diff(rows) > 1) + 1):  # consecutive rows, in place
        rel = returns[run[0] : run[-1] + 1]
        for t in range(1, horizon):
            np.add(rel[:, t - 1], rel[:, t], out=rel[:, t])
        np.exp(rel, out=rel)  # per-asset price ratio paths
    step = min(horizon, max(1, COLOUR_BLOCK // n))  # slots weighed together
    mins = np.full((len(members), n), np.inf)
    acc, term = np.empty((step, n)), np.empty((step, n))
    for out, (weights, idx) in zip(mins, members):
        for lo in range(0, horizon, step):
            a, t = acc[: horizon - lo], term[: horizon - lo]
            np.multiply(weights[0], returns[idx[0], lo : lo + step], out=a)
            for w, i in zip(weights[1:], idx[1:]):
                np.multiply(w, returns[i, lo : lo + step], out=t)
                a += t
            np.minimum(out, a.min(axis=0), out=out)
    return mins


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
    portfolio and one column per run. Each task, one chunk of runs for the
    portfolios of one seed, draws from its own generator, only reads `model`
    and writes only its own cells, so tasks may run on threads at once."""
    groups: dict[int, list[int]] = {}
    for p_i, seed in enumerate(seeds):
        groups.setdefault(seed, []).append(p_i)
    baskets = [(p.weights, model.index_of(p.assets)) for p in portfolios]
    mins = np.empty((len(portfolios), runs))

    def fill(members, seed, chunk_index, start):
        n = min(CHUNK_RUNS, runs - start)
        mins[members, start : start + n] = _chunk_min_relvalue(
            model, [baskets[i] for i in members], horizon, n, distribution, seed, chunk_index, zero_drift)

    tasks = [partial(fill, members, seed, chunk_index, start) for seed, members in groups.items()
             for chunk_index, start in enumerate(range(0, runs, CHUNK_RUNS))]
    if jobs > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=min(jobs, len(tasks))) as pool:
            list(pool.map(call, tasks))
    else:  # in the calling thread, whose CPU time a caller may be timing
        list(map(call, tasks))
    return mins


# ----------------------------------------------------------------------
# historical replay


def _window_minima(rows: np.ndarray, width: int) -> np.ndarray:
    """Minimum of every `width`-slot window along the last axis of `rows`
    (one row, or a block of them), one per start slot: scipy's sliding
    minimum, its window shifted to start at each slot."""
    from scipy.ndimage import minimum_filter1d  # here, not at the top: only replay needs scipy
    return minimum_filter1d(rows, width, axis=-1, origin=-(width // 2))[..., : rows.shape[-1] - width + 1]


def historical_replay(
    portfolio: Portfolio,
    series_map: Mapping[str, PriceSeries],
    gamma_primes: Sequence[float],
    theta: float,
    horizon: int,
) -> SweepResult:
    """Evaluate the first-passage criterion, for every gamma' >= theta, over
    every horizon-long window of actual prices inside one period of the
    assets' common timeline. Each window gives the sweep's estimate builder
    one relative value: its exact minimum if it can fail, else a lower
    bound proven above every threshold.

    Bound, then prune. Each asset's lowest price over every window comes
    from `_window_minima`, so one lower bound per window,
    `weights @ (low / start)`, costs O(T*m) in all. Rounding is monotone, so
    low_i / p_i(t0) is at most every ratio the window divides for asset i.
    Barring underflow, a float m-term sum of non-negative products, in any
    order and with or without FMA, lies within a factor (1 +- g) of the
    exact sum, g = m*u / (1 - m*u), u = 2**-53 (Higham, Accuracy and
    Stability of Numerical Algorithms, 2nd ed., section 3.1). Every computed
    window value is therefore at least bound * (1 - g) / (1 + g). A bound
    above the largest threshold theta/gamma' times (1 + margin) proves that
    the window fails at no gamma'. The margin is 1e-12, and it grows with m
    past 4,000 assets: (1 + g) / (1 - g) - 1 stays below 8.9e-13 under 4,000
    assets, and the slack covers the rounding of the threshold product. Such
    a window enters the estimate builder with its bound. Only the others,
    about a fifth of the windows of the seed-0 benchmark prices, are weighed
    exactly: REPLAY_BLOCK of them are gathered at a time, and each is
    computed as `weights @ (seg / seg[:, :1])` like a lone window. So every
    count equals the full evaluation's by construction, and there is still
    one value per window start."""
    for g in gamma_primes:
        if not (g >= theta > 1.0):
            raise DataError(f"need gamma' >= theta > 1, got {g}, {theta}")
    if horizon < 1:
        raise DataError("horizon must be >= 1")
    panel, cuts = common_timeline(series_map, portfolio.assets)
    weights = portfolio.weights
    margin = 1e-12 * max(1.0, len(weights) / 4000)
    cut = max((theta / g for g in gamma_primes), default=-math.inf) * (1.0 + margin)
    mins = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a < horizon + 1:
            continue
        seg = panel[:, a:b]
        starts = b - a - horizon
        low = _window_minima(seg, horizon + 1)
        np.divide(low, seg[:, :starts], out=low)
        # every window's lower bound; a window that can fail gets its exact
        # minimum in its place
        values = weights @ low
        candidates = np.flatnonzero(values <= cut)
        # (start, asset, slot) view of every window starting in [a, b - horizon)
        view = sliding_window_view(seg, horizon + 1, axis=1).transpose(1, 0, 2)
        for lo in range(0, len(candidates), REPLAY_BLOCK):
            picks = candidates[lo : lo + REPLAY_BLOCK]
            # a C-ordered gather, so matmul takes each window's (asset, slot)
            # matrix in the same layout, and sums in the same order, as a
            # lone window
            ratio = np.ascontiguousarray(view[picks])
            ratio /= ratio[:, :, :1].copy()
            values[picks] = (weights @ ratio).min(axis=1)
            del ratio  # so two gathers are never alive at once
        mins.append(values)
    if not mins:
        raise DataError("insufficient data: no window of the requested horizon")
    return _estimates(
        np.concatenate(mins)[None, :], gamma_primes, theta, horizon, "historical",
        [portfolio.name], [0],
    )


# ----------------------------------------------------------------------
# batch sweeps (shared random numbers across the whole table)


@dataclass(frozen=True)
class SweepResult:
    gamma_primes: tuple[float, ...]
    portfolios: tuple[str, ...]
    estimates: dict[tuple[float, str], FailureEstimate]
    runs: int  # runs (or replay windows) behind every cell

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


def _estimates(
    mins: np.ndarray,
    gamma_primes: Sequence[float],
    theta: float,
    horizon: int,
    method: str,
    names: Sequence[str],
    seeds: Sequence[int],
) -> SweepResult:
    """One estimate per (gamma', portfolio) from a portfolios x runs array of
    minimum relative values: a run fails when its minimum is at or below
    theta/gamma'. Every gamma' counts the same minima, so the failure counts
    are non-increasing in gamma' by construction."""
    runs = mins.shape[1]
    estimates: dict[tuple[float, str], FailureEstimate] = {}
    for row, name, seed in zip(mins, names, seeds):
        for g in gamma_primes:
            failures = int(np.count_nonzero(row <= theta / g))
            estimates[(g, name)] = FailureEstimate(
                probability=failures / runs,
                ci_half_width=confidence_interval(failures, runs),
                runs=runs,
                horizon=horizon,
                method=method,
                gamma_prime=g,
                theta=theta,
                seed=seed,
                failures=failures,
            )
    return SweepResult(tuple(gamma_primes), tuple(names), estimates, runs)


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
    gamma' by the estimate builder replay also uses. With common random
    numbers all portfolios share one seed, so each chunk of runs is drawn,
    coloured and exponentiated once for the whole table and only the
    weighting is per portfolio; the failure probability is exactly
    non-increasing down the gamma' rows. Without them portfolio i draws
    from seed + 7919*(i+1).
    """
    for g in gamma_primes:
        if not (g > theta > 1.0):
            raise DataError(f"need gamma' > theta > 1, got {g}, {theta}")
    if horizon < 1 or runs < 1:
        raise DataError(f"horizon and runs must be >= 1, got {horizon}, {runs}")
    if not 1 <= jobs <= MAX_JOBS:
        raise DataError(f"jobs must be between 1 and {MAX_JOBS}, got {jobs}")
    if seed < 0:  # numpy's seed sequences take non-negative entropy only
        raise DataError(f"seed must be >= 0, got {seed}")
    names = [p.name for p in portfolios]
    duplicates = sorted({n for n in names if names.count(n) > 1})
    if duplicates:
        raise DataError(f"portfolio names must be unique, repeated: {duplicates}")
    seeds = [
        seed if common_random_numbers else seed + 7919 * (p_i + 1) for p_i in range(len(portfolios))
    ]
    mins = _min_relative_values(portfolios, seeds, model, horizon, runs, distribution, zero_drift, jobs)
    return _estimates(mins, gamma_primes, theta, horizon, distribution, names, seeds)
