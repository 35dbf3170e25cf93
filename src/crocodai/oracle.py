"""Per-token price feeds with Gaussian observation noise, corruptible
oracles, the medianizer consumed by vaults, and the corrupted-feed tail
experiment.

Corruption strategies: "constant-offset" shifts every report by a fixed
amount, "fixed-target" reports one constant value regardless of the base
price, "silent" reports nothing.

The tail experiment never builds the (trials, feeds) report array: it draws
the honest reports CHUNK_BYTES (512 KiB) or fewer at a time, in chunks of
whole trials (at least one), which give the values of one draw. A chunk
and the sorting network's temporaries thus fit a core's L2 cache at any
feed count. Batcher's merge-exchange network (Knuth, TAOCP vol. 3, section
5.2.2, Algorithm M) sorts the h honest columns with one `np.minimum` and one
`np.maximum` per comparator, O(h log^2 h) column operations, and the corrupt
reports, all one constant, merge in closed form. Min and max never round, so
each median is bit-identical to numpy's `median` of the full row. On 20,000
trials (2 vCPU) the network takes 0.12x numpy's time at h = 7, 0.7x at h = 60,
0.9x at h = 100 and 1.3x at h = 200; the repository's callers use h <= 7.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .errors import ProtocolError, QuorumError, StalePriceError
from .ledger import System

CONSTANT_OFFSET = "constant-offset"
FIXED_TARGET = "fixed-target"
SILENT = "silent"
MAX_FEEDS = 64  # the tail experiment's largest feed count
CHUNK_BYTES = 512 << 10  # honest reports drawn at once in the tail experiment, in bytes


def _finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ProtocolError(f"{name} must be finite, got {value}")


@dataclass
class PriceFeed:
    """One oracle's feed: honest reports carry N(mu, sigma2) observation noise."""

    oracle_id: int
    mu: float = 0.0
    sigma2: float = 1.0
    honest: bool = True
    strategy: str | None = None  # required when honest is False
    strategy_value: float = 0.0
    per_token: dict[int, tuple[float, float]] = field(default_factory=dict)

    def __post_init__(self):
        for name in ("mu", "sigma2", "strategy_value"):
            _finite(name, getattr(self, name))
        if self.sigma2 <= 0:
            raise ProtocolError("sigma2 must be > 0")
        if not self.honest and self.strategy not in (CONSTANT_OFFSET, FIXED_TARGET, SILENT):
            raise ProtocolError(f"unknown corruption strategy {self.strategy!r}")


def report_price(
    feed: PriceFeed, token_id: int, slot: int, base_price: float, rng: np.random.Generator
) -> float | None:
    """One report; corrupt feeds follow their strategy, silent ones return None."""
    _finite("base price", base_price)
    if base_price <= 0:
        raise ProtocolError("base price must be > 0")
    if feed.honest:
        mu, sigma2 = feed.per_token.get(token_id, (feed.mu, feed.sigma2))
        return max(0.0, base_price + rng.normal(mu, math.sqrt(sigma2)))
    if feed.strategy == SILENT:
        return None
    if feed.strategy == FIXED_TARGET:
        return max(0.0, feed.strategy_value)
    return max(0.0, base_price + feed.strategy_value)  # constant-offset


def medianize(reports: list[float]) -> float:
    """Median of the reports; even counts take the mean of the middle two."""
    if not reports:
        raise StalePriceError("no reports this slot, vault keeps its last value")
    return statistics.median(reports)


def update_vault_price(system: System, token_id: int, reports: list[float]) -> float:
    """Medianize, install and return the price the vaults will use from now on."""
    price = medianize(reports)  # raises StalePriceError when empty
    system.set_price(token_id, price)
    return price


# ----------------------------------------------------------------------
# corrupted-feed tail experiment


def tail_bound(n_feeds: int, n_corrupt: int, sigma_star: float, c: float) -> float:
    """Analytic exceedance bound: every honest feed must independently land
    beyond c for the median to cross, so the Gaussian tail bound applies once
    per honest feed.

    The log of the Gaussian factor, -honest * (c/sigma_star)^2 / 2, is taken
    from the ratio c/sigma_star, so neither c^2 nor sigma_star^2 is formed and
    no finite input overflows before the result itself does. At a
    sigma_star that is a power of two, 1 included, the bits are those of
    exp(-honest c^2 / (2 sigma_star^2))."""
    if c <= 0:
        return math.inf
    honest = n_feeds - n_corrupt
    ratio = c / sigma_star
    return math.exp(-honest * ratio * ratio / 2.0) * sigma_star / (c * math.sqrt(2.0 * math.pi))


@dataclass(frozen=True)
class TailEstimate:
    c: float
    empirical: float
    bound: float
    trials: int
    exceedances: int
    sigma_star: float

    @property
    def within_bound(self) -> bool:
        """The verdict on the bound, which is claimed only for c >= 2 sigma_star:
        there the empirical tail must not exceed it, and below it any passes."""
        return self.c < 2 * self.sigma_star or self.empirical <= self.bound


def _merge_exchange(n: int) -> list[tuple[int, int]]:
    """Comparators (i, j), i < j, of Batcher's merge-exchange sort of n keys
    (Knuth's Algorithm M): applied in order they sort any input."""
    pairs: list[tuple[int, int]] = []
    top = (1 << (n - 1).bit_length()) // 2  # largest power of two below n
    p = top
    while p:
        q, r, d = top, 0, p
        while True:
            pairs += [(i, i + d) for i in range(n - d) if i & p == r]
            if q == p:
                break
            d, q, r = q - p, q >> 1, p
        p >>= 1
    return pairs


def _median_with_target(honest: np.ndarray, n_corrupt: int, target: float) -> np.ndarray:
    """Per-trial median of the honest reports (one row per feed) together with
    n_corrupt reports of `target`, bit-identical to numpy's `median` of the
    merged row. Sorted honest columns hs give the r-th smallest merged report as
    min(max(target, hs[r - n_corrupt]), hs[r]), a bound dropped when its index
    is out of range."""
    hs = list(honest)
    h = len(hs)
    for i, j in _merge_exchange(h):
        hs[i], hs[j] = np.minimum(hs[i], hs[j]), np.maximum(hs[i], hs[j])

    def ranked(r: int) -> np.ndarray:
        x = np.maximum(hs[r - n_corrupt], target) if r >= n_corrupt else target
        return np.minimum(x, hs[r]) if r < h else x

    mid = (h + n_corrupt) // 2
    if (h + n_corrupt) % 2:
        return ranked(mid)
    return (ranked(mid - 1) + ranked(mid)) / 2.0


def tail_probability_experiment(
    n_feeds: int,
    n_corrupt: int,
    sigma_star: float,
    c: float,
    trials: int,
    rng: np.random.Generator,
) -> TailEstimate:
    """Estimate P(|median - p| > c) with a corrupted minority of feeds.

    The corrupted feeds report the displaced price p + c itself, the largest
    fixed distortion the quorum argument still tolerates: the median then
    moves strictly beyond c only when every honest feed does.
    """
    if n_corrupt < 0 or n_feeds <= 0:
        raise QuorumError("feed counts must be positive")
    if n_feeds > MAX_FEEDS:  # before n_feeds / 2, which overflows past 1e308
        raise ProtocolError(f"feed count {n_feeds} is above the ceiling of {MAX_FEEDS}")
    if not n_corrupt < n_feeds / 2:
        raise QuorumError(
            f"corrupted feeds must be a strict minority: {n_corrupt} of {n_feeds}"
        )
    if trials < 10**4:
        raise ProtocolError("need at least 10^4 trials")
    _finite("sigma_star", sigma_star)
    _finite("c", c)
    if sigma_star <= 0:
        raise ProtocolError("sigma_star must be > 0")

    # base price large enough that the floor-at-zero rule never binds
    base = 1000.0 * max(sigma_star, 1.0) + abs(c)
    if not math.isfinite(base):
        raise ProtocolError(f"sigma_star {sigma_star} or c {c} too large: "
                            "the base price 1000 * max(sigma_star, 1) + |c| is not finite")
    bound = tail_bound(n_feeds, n_corrupt, sigma_star, c)
    if not math.isfinite(bound) and c > 0:  # at c <= 0 the bound is inf by definition
        raise ProtocolError(f"tail bound not finite for sigma_star {sigma_star} and c {c}")
    honest = n_feeds - n_corrupt

    exceed = 0
    chunk = max(1, CHUNK_BYTES // (8 * honest))
    done = 0
    while done < trials:
        n = min(chunk, trials - done)
        reports = rng.normal(base, sigma_star, size=(n, honest))
        med = _median_with_target(reports.T, n_corrupt, base + c)
        exceed += int(np.count_nonzero(np.abs(med - base) > c))
        done += n
    return TailEstimate(
        c=c,
        empirical=exceed / trials,
        bound=bound,
        trials=trials,
        exceedances=exceed,
        sigma_star=sigma_star,
    )
