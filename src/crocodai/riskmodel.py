"""Statistical substrate of the risk analysis: price-series ingestion,
log returns, moment and tail estimation, Cholesky factorization, and
correlated normal / Student-t samplers.

Prices arrive as a CSV with header ``timestamp,<SYM1>,<SYM2>,...``,
ISO-8601 UTC timestamps at 5-minute slots, and decimal USD prices (empty
cell = missing). Gaps longer than two slot durations split a series into
periods; no return ever spans a period boundary. `common_timeline` is the
one alignment of several symbols (shared timestamps, price panel, period
cuts) that both the return model and the historical replay use.

The per-asset Student-t degrees of freedom are fitted by maximum likelihood
with an analytic gradient (`fit_nu`), about ten passes over the data per
asset.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np
from scipy.optimize import minimize
from scipy.special import digamma, gammaln

from .errors import DataError, ModelError
from .ledger import SLOT_SECONDS

NU_MIN = 2.1
NU_MAX = 200.0
MAX_GAP_SLOTS = 2
CHOLESKY_JITTERS = (1e-12, 1e-10, 1e-8)


# ----------------------------------------------------------------------
# price series


@dataclass
class PriceSeries:
    """Ordered (epoch-second, USD price) observations for one symbol."""

    symbol: str
    times: np.ndarray  # int64 epoch seconds, strictly increasing
    prices: np.ndarray  # float, > 0
    boundaries: frozenset[int] = field(default_factory=frozenset)  # index starts a new period

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.int64)
        self.prices = np.asarray(self.prices, dtype=float)
        if len(self.times) != len(self.prices):
            raise DataError(f"{self.symbol}: times and prices differ in length")
        if np.any(self.prices <= 0):
            raise DataError(f"{self.symbol}: prices must be > 0")
        if np.any(np.diff(self.times) <= 0):
            raise DataError(f"{self.symbol}: timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def periods(self) -> list[tuple[int, int]]:
        """Half-open index spans [start, end) of gap-free stretches."""
        if len(self) == 0:
            return []
        cuts = sorted(self.boundaries | {0, len(self)})
        return [(cuts[i], cuts[i + 1]) for i in range(len(cuts) - 1) if cuts[i + 1] > cuts[i]]


def _parse_timestamp(text: str, row: int) -> int:
    t = text.strip()
    if t.endswith("Z"):
        t = t[:-1] + "+00:00"
    try:
        dt = datetime.fromisoformat(t)
    except ValueError:
        raise DataError(f"row {row}: malformed timestamp {text!r}") from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return int(dt.timestamp())


def _gap_boundaries(times: np.ndarray) -> frozenset[int]:
    gaps = np.diff(times)
    idx = np.nonzero(gaps > MAX_GAP_SLOTS * SLOT_SECONDS)[0] + 1
    return frozenset(int(i) for i in idx)


def ingest_prices(path: str | Path) -> dict[str, PriceSeries]:
    """Read the price CSV into one PriceSeries per symbol column."""
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if not header or header[0].strip().lower() != "timestamp":
            raise DataError(f"{path}: first header column must be 'timestamp'")
        symbols = [h.strip() for h in header[1:]]
        if not symbols or any(not s for s in symbols):
            raise DataError(f"{path}: header must list at least one symbol")

        times: list[int] = []
        columns: list[list[float | None]] = [[] for _ in symbols]
        prev_time: int | None = None
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(symbols) + 1:
                raise DataError(
                    f"row {row_no}: expected {len(symbols) + 1} columns, got {len(row)}"
                )
            t = _parse_timestamp(row[0], row_no)
            if prev_time is not None and t <= prev_time:
                raise DataError(f"row {row_no}: timestamps must be strictly increasing")
            prev_time = t
            times.append(t)
            for i, cell in enumerate(row[1:]):
                cell = cell.strip()
                if not cell:
                    columns[i].append(None)
                    continue
                try:
                    price = float(cell)
                except ValueError:
                    raise DataError(f"row {row_no}: malformed price {cell!r}") from None
                if price <= 0:
                    raise DataError(f"row {row_no}: non-positive price {price} for {symbols[i]}")
                columns[i].append(price)

    out: dict[str, PriceSeries] = {}
    times_arr = np.asarray(times, dtype=np.int64)
    for symbol, col in zip(symbols, columns):
        mask = np.array([v is not None for v in col])
        st = times_arr[mask]
        sp = np.array([v for v in col if v is not None], dtype=float)
        out[symbol] = PriceSeries(symbol, st, sp, _gap_boundaries(st))
    return out


def log_returns(series: PriceSeries) -> np.ndarray:
    """Per-slot log returns ln(p_{t+1}/p_t), computed within periods only."""
    chunks = []
    for start, end in series.periods():
        if end - start >= 2:
            chunks.append(np.diff(np.log(series.prices[start:end])))
    if not chunks:
        raise DataError(f"{series.symbol}: series too short for returns")
    return np.concatenate(chunks)


def common_timeline(series_map: Mapping[str, PriceSeries], symbols: Sequence[str]
                    ) -> tuple[np.ndarray, list[int]]:
    """Price panel (symbols x T) over the timestamps where every symbol has an
    observation, and the period cuts [0, ..., T] of that common timeline: the
    gap rule is re-applied to it, so a span between two cuts is gap-free."""
    missing = [s for s in symbols if s not in series_map]
    if missing:
        raise DataError(f"symbols not in the dataset: {missing}")
    common = np.empty(0, dtype=np.int64)
    for i, s in enumerate(symbols):
        t = series_map[s].times
        common = t if i == 0 else np.intersect1d(common, t, assume_unique=True)
    panel = np.empty((len(symbols), len(common)))
    for i, s in enumerate(symbols):
        ser = series_map[s]
        panel[i] = ser.prices[np.searchsorted(ser.times, common)]
    return panel, sorted(_gap_boundaries(common) | {0, len(common)})


def aligned_log_returns(series_map: Mapping[str, PriceSeries], symbols: Sequence[str] | None = None
                        ) -> tuple[list[str], np.ndarray]:
    """Joint return matrix (assets x T) over the common timeline of the
    symbols; no return spans one of its period cuts."""
    symbols = list(symbols) if symbols is not None else sorted(series_map)
    panel, cuts = common_timeline(series_map, symbols)
    if panel.shape[1] < 2:
        raise DataError("fewer than two common observations across symbols")
    chunks = []
    for a, b in zip(cuts[:-1], cuts[1:]):
        if b - a >= 2:
            chunks.append(np.diff(np.log(panel[:, a:b]), axis=1))
    if not chunks:
        raise DataError("no period with two or more common observations")
    return symbols, np.concatenate(chunks, axis=1)


# ----------------------------------------------------------------------
# return model


@dataclass
class ReturnModel:
    """Per-slot drift, covariance of log returns, its Cholesky factor, and
    per-asset Student-t degrees of freedom."""

    assets: list[str]
    mu: np.ndarray  # per-slot drift
    cov: np.ndarray
    chol: np.ndarray
    nu: np.ndarray
    n_obs: int

    def index_of(self, symbols: Iterable[str]) -> np.ndarray:
        pos = {a: i for i, a in enumerate(self.assets)}
        missing = [s for s in symbols if s not in pos]
        if missing:
            raise ModelError(f"assets not in the model: {missing}")
        return np.array([pos[s] for s in symbols], dtype=int)

    def to_json(self) -> dict:
        return {
            "assets": self.assets,
            "mu": self.mu.tolist(),
            "cov": self.cov.tolist(),
            "chol": self.chol.tolist(),
            "nu": self.nu.tolist(),
            "n_obs": self.n_obs,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ReturnModel":
        return cls(
            assets=list(doc["assets"]),
            mu=np.asarray(doc["mu"], dtype=float),
            cov=np.asarray(doc["cov"], dtype=float),
            chol=np.asarray(doc["chol"], dtype=float),
            nu=np.asarray(doc["nu"], dtype=float),
            n_obs=int(doc["n_obs"]),
        )

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), sort_keys=True))

    @classmethod
    def load(cls, path: str | Path) -> "ReturnModel":
        doc = json.loads(Path(path).read_text())
        if "assets" not in doc and "model" in doc:  # CLI `fit` output envelope
            doc = doc["model"]
        return cls.from_json(doc)


def cholesky(cov: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == cov.

    Exact for the all-zero matrix; otherwise numpy's factorization with a
    relative diagonal jitter escalation of 1e-12..1e-8 before giving up.
    """
    cov = np.asarray(cov, dtype=float)
    if cov.ndim != 2 or cov.shape[0] != cov.shape[1]:
        raise ModelError("covariance must be a square matrix")
    scale = np.linalg.norm(cov)
    if scale == 0.0:
        return np.zeros_like(cov)
    if np.linalg.norm(cov - cov.T) > 1e-8 * scale:
        raise ModelError("covariance must be symmetric")
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    diag_scale = max(float(np.mean(np.diag(cov))), 1e-300)
    for jitter in CHOLESKY_JITTERS:
        try:
            return np.linalg.cholesky(cov + jitter * diag_scale * np.eye(len(cov)))
        except np.linalg.LinAlgError:
            continue
    raise ModelError("covariance is not positive semi-definite (jitter exhausted)")


def _t_neg_loglik(params: np.ndarray, x2: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood of a location-0 Student-t with
    (nu, sigma^2) = exp(params), and its gradient in params, given the
    squared observations."""
    nu, s2 = np.exp(params)
    z = x2 / (nu * s2)
    mean_log = float(np.log1p(z).mean())
    mean_frac = float((z / (1.0 + z)).mean())  # -d log1p(z) / d log(nu s2)
    half = 0.5 * (nu + 1.0)
    value = (gammaln(0.5 * nu) - gammaln(half) + 0.5 * math.log(math.pi * nu)
             + 0.5 * params[1] + half * mean_log)
    d_nu = (0.5 * digamma(0.5 * nu) - 0.5 * digamma(half) + 0.5 / nu
            + 0.5 * mean_log - half / nu * mean_frac)
    d_s2 = 0.5 - half * mean_frac
    return value, np.array([nu * d_nu, d_s2])


def fit_nu(standardized: np.ndarray) -> float:
    """Maximum-likelihood Student-t degrees of freedom on standardized
    returns, clamped to [2.1, 200] so the variance stays finite.

    The location-0 t log-likelihood is maximised jointly over
    (log nu, log sigma^2) by L-BFGS-B with its analytic gradient, log nu
    bounded to the clamp: about ten O(n) evaluations, where a generic simplex
    search over the log-pdf takes hundreds.
    """
    x2 = np.square(np.asarray(standardized, dtype=float))
    mean_x2 = float(x2.mean()) if x2.size else math.nan
    if not 0.0 < mean_x2 < math.inf:
        raise ModelError("t-fit needs finite input that is not all zero")
    nu0 = 5.0
    lo, hi = math.log(NU_MIN), math.log(NU_MAX)
    start = np.array([math.log(nu0), math.log(mean_x2 * (nu0 - 2.0) / nu0)])
    # the likelihood is flat in nu for large nu: at the default gtol of 1e-5 on
    # the per-point gradient, nu stops 7e-5 relative short of the optimum at nu=30
    result = minimize(
        _t_neg_loglik, start, args=(x2,), jac=True, method="L-BFGS-B",
        bounds=[(lo, hi), (None, None)], options={"gtol": 1e-8},
    )
    log_nu = float(result.x[0])
    # at a bound, report the clamp itself: exp(log(200)) is 199.99999999999991
    nu = NU_MIN if log_nu <= lo else NU_MAX if log_nu >= hi else math.exp(log_nu)
    return min(max(nu, NU_MIN), NU_MAX)


def estimate_model(returns_by_asset: Mapping[str, np.ndarray], min_obs: int = 100) -> ReturnModel:
    """Sample moments plus per-asset t tail fit over aligned return arrays."""
    assets = list(returns_by_asset)
    if not assets:
        raise ModelError("no assets given")
    arrays = [np.asarray(returns_by_asset[a], dtype=float) for a in assets]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise ModelError("return arrays must be aligned (equal lengths)")
    if n < min_obs:
        raise ModelError(f"need at least {min_obs} return observations, got {n}")
    matrix = np.vstack(arrays)
    mu = matrix.mean(axis=1)
    stds = matrix.std(axis=1, ddof=1)
    for a, s in zip(assets, stds):
        if s == 0.0:
            raise ModelError(f"zero-variance asset {a}")
    cov = np.cov(matrix, ddof=1)
    cov = np.atleast_2d(cov)
    chol = cholesky(cov)
    nu = np.array([fit_nu((row - m) / s) for row, m, s in zip(matrix, mu, stds)])
    return ReturnModel(assets=assets, mu=mu, cov=cov, chol=chol, nu=nu, n_obs=n)


def fit_model_from_series(series_map: Mapping[str, PriceSeries],
                          symbols: Sequence[str] | None = None,
                          min_obs: int = 100) -> ReturnModel:
    symbols, returns = aligned_log_returns(series_map, symbols)
    return estimate_model({s: returns[i] for i, s in enumerate(symbols)}, min_obs=min_obs)


# ----------------------------------------------------------------------
# samplers

NORMAL = "normal"
STUDENT_T = "t"


def sample_returns(
    model: ReturnModel,
    slots: int,
    distribution: str,
    rng: np.random.Generator,
    zero_drift: bool = False,
) -> np.ndarray:
    """Draw an (assets x slots) matrix of correlated per-slot log returns.

    Student-t innovations are standardized to unit variance (divide by
    sqrt(nu/(nu-2))) before the Cholesky coloring so the target covariance
    is matched for any degrees of freedom; drift is added per slot unless
    zero_drift is set.
    """
    m = len(model.assets)
    innovations = np.empty((m, slots))
    if distribution == NORMAL:
        innovations[:] = rng.standard_normal((m, slots))
    elif distribution == STUDENT_T:
        for i in range(m):  # fixed asset order keeps draws reproducible
            nu = float(model.nu[i])
            if nu <= 2:
                raise ModelError(f"nu must exceed 2 for the t sampler, got {nu}")
            innovations[i] = rng.standard_t(nu, slots) / math.sqrt(nu / (nu - 2.0))
    else:
        raise ModelError(f"unknown distribution {distribution!r}")
    returns = model.chol @ innovations
    if not zero_drift:
        returns += model.mu[:, None]
    return returns


def gbm_terminal(s0: float, mu: float, sigma: float, horizon: float, w: float | np.ndarray):
    """Terminal price of a geometric Brownian motion given the Brownian value
    w at the horizon: s0 * exp((mu - sigma^2/2) * horizon + sigma * w)."""
    if s0 <= 0:
        raise ModelError("s0 must be > 0")
    if sigma < 0:
        raise ModelError("sigma must be >= 0")
    return s0 * np.exp((mu - 0.5 * sigma * sigma) * horizon + sigma * np.asarray(w, dtype=float))


def prices_from_returns(s0: np.ndarray, returns: np.ndarray) -> np.ndarray:
    """Price paths from cumulative log returns; positive by construction."""
    cum = np.cumsum(returns, axis=-1)
    return np.asarray(s0)[..., None] * np.exp(cum)
