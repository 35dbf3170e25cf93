"""Statistical substrate of the risk analysis: price-series ingestion,
log returns, moment and tail estimation, Cholesky factorization, and the
one correlated normal / Student-t sampler (`sample_returns`), which the
Monte Carlo simulator draws through.

Prices arrive as a CSV with header ``timestamp,<SYM1>,<SYM2>,...``, each
symbol named once, and one row of 5-minute slot data per line:

- Lines end in ``\n``, ``\r\n`` or ``\r``. A line that is empty, or whose
  cells are all empty, is skipped; error messages name rows by their line
  number in the file, blank lines included.
- Cells are separated by commas and read as the csv module reads them: a
  cell may be wrapped in double quotes, but a quoted cell cannot hold a line
  break. Whitespace around a cell is dropped. A cell of more than
  `MAX_CELL_CHARS` (131,072) characters, quoted or not and header included,
  is an error naming its row, whatever the csv module's process-wide
  `field_size_limit`, which ingestion leaves as it found it.
- A timestamp is ISO 8601 as ``datetime.fromisoformat`` reads it; ``Z`` and
  a stamp without an offset mean UTC. Timestamps strictly increase.
- A price is a number as ``float`` reads it, and must be positive and
  finite: ``nan``, ``inf`` and ``1e400`` are rejected. An empty cell means
  the price is missing.

Gaps longer than two slot durations split a series into periods; no return
ever spans a period boundary. Periods are never stored: one gap rule
(`_gap_cuts`) derives them from timestamps. `common_timeline` is the one
alignment of one or more symbols (shared timestamps, price panel, and the gap
rule's cuts of those timestamps) that the return model and the replay use.

`ingest_prices` reads this one format a block of lines at a time, with one
of two readers: plain blocks fast, any other block row by row. A block that
is plain as a whole (ASCII, with no quote, whitespace or blank line, and no
line longer than a cell may be) is read by one call of numpy's C text reader,
``np.loadtxt``, which converts a number as ``float`` does; empty price cells
cost one more call. The rules are checked on what it read, and a timestamp
of the shape ``YYYY-MM-DDTHH:MM:SS`` (with no suffix, ``Z`` or
``+HH:MM``/``-HH:MM``) is read from its digits. Any other block, or one that
the reader or a rule refuses, is read by `_read_block`, which defines the
errors: it splits each line through the csv module, reads its timestamp with
``fromisoformat`` and each price with ``float``, and raises at the first bad
cell in reading order.

A model file (a `ReturnModel.to_json` document, or the CLI's `fit` output,
which wraps one as ``{"model": ...}``) holds ``assets``, ``mu``, ``cov``,
``nu`` and ``n_obs``. ``cov`` must be symmetric positive semi-definite: its
Cholesky factor, which the sampler colours with, is derived from it on load,
and a stored ``chol`` is ignored.

The per-asset Student-t degrees of freedom are fitted by maximum likelihood
with an analytic gradient (`fit_nu`), about ten passes over the data per
asset.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError, ModelError
from .ledger import SLOT_SECONDS

NU_MIN = 2.1
NU_MAX = 200.0
MAX_GAP_SLOTS = 2
MAX_CELL_CHARS = 131_072  # the longest price-CSV cell, quoted or not, header included
CHOLESKY_JITTERS = (1e-12, 1e-10, 1e-8)


# ----------------------------------------------------------------------
# price series


@dataclass
class PriceSeries:
    """Ordered (epoch-second, USD price) observations for one symbol."""

    symbol: str
    times: np.ndarray  # int64 epoch seconds, strictly increasing
    prices: np.ndarray  # float, finite and > 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=np.int64)
        self.prices = np.asarray(self.prices, dtype=float)
        if len(self.times) != len(self.prices):
            raise DataError(f"{self.symbol}: times and prices differ in length")
        if not np.all(np.isfinite(self.prices) & (self.prices > 0)):
            raise DataError(f"{self.symbol}: prices must be finite and > 0")
        if np.any(np.diff(self.times) <= 0):
            raise DataError(f"{self.symbol}: timestamps must be strictly increasing")

    def __len__(self) -> int:
        return len(self.times)

    def periods(self) -> list[tuple[int, int]]:
        """Half-open index spans [start, end) of gap-free stretches."""
        cuts = _gap_cuts(self.times)
        return list(zip(cuts, cuts[1:]))


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


def _gap_cuts(times: np.ndarray) -> list[int]:
    """The gap rule: period cuts [0, ..., len(times)], sorted and unique; a
    step longer than MAX_GAP_SLOTS slots starts a new period."""
    gaps = np.flatnonzero(np.diff(times) > MAX_GAP_SLOTS * SLOT_SECONDS) + 1
    return sorted({0, *gaps.tolist(), len(times)})


def _split_line(line: str, where: str) -> list[str]:
    """The cells of one line, quotes read as the csv module reads them; a
    cell longer than MAX_CELL_CHARS is a DataError that names `where`. The
    csv module's process-wide field limit is set for the read and put back."""
    ambient = csv.field_size_limit(MAX_CELL_CHARS)
    try:
        return next(csv.reader([line]), [])
    except csv.Error as exc:
        raise DataError(f"{where}: {exc}") from None
    finally:
        csv.field_size_limit(ambient)


# the file is parsed a block of about this many characters at a time, so that
# the cells of only one block are Python strings at once
_BLOCK_CHARS = 1 << 20
# what makes a line not plain: a quote, or any character str.strip removes
_NOT_PLAIN = ('"\t\x0b\x0c\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004'
              '\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000')
# a canonical stamp with its offset suffix, every digit read as 0
_STAMP_SHAPE = np.array([ord(c) for c in "0000-00-00T00:00:00+00:00"], dtype=np.uint32)


def _stamp_seconds(stamps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Epoch seconds of stripped timestamp cells (an object array), and the
    mask of the stamps that are malformed.

    A stamp of the canonical shape ``YYYY-MM-DDTHH:MM:SS`` with no suffix,
    ``Z`` or ``+HH:MM``/``-HH:MM`` whose fields are in range is read in
    bulk from its digits, the date counted in days by ``datetime64``.
    Every other stamp goes through `_parse_timestamp`, the definition of
    an accepted stamp.
    """
    n = len(stamps)
    stamps = stamps.tolist()
    lengths = np.fromiter(map(len, stamps), np.int64, n)
    # a longer stamp is cut to 25 characters, and its length makes it not canonical
    codes = np.array(stamps, dtype="U25").view(np.uint32).reshape(n, 25)
    digits = codes - ord("0")  # any other character wraps round to more than 9
    shape = np.where(digits <= 9, ord("0"), codes) == _STAMP_SHAPE

    def number(first: int, last: int) -> np.ndarray:
        value = np.zeros(n, dtype=np.int64)
        for col in range(first, last):
            value = value * 10 + digits[:, col]
        return value

    year, month, day = number(0, 4), number(5, 7), number(8, 10)
    hour, minute, second = number(11, 13), number(14, 16), number(17, 19)
    offset_hour, offset_minute = number(20, 22), number(23, 25)
    sign = codes[:, 19]
    canonical = shape[:, :19].all(axis=1)
    months = np.where(canonical, (year - 1970) * 12 + month - 1, 0)
    first_day = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    month_days = (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64) - first_day
    canonical &= ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1) & (day <= month_days)
                  & (hour <= 23) & (minute <= 59) & (second <= 59))
    with_offset = ((lengths == 25) & ((sign == ord("+")) | (sign == ord("-")))
                   & shape[:, 20:].all(axis=1) & (offset_hour <= 23) & (offset_minute <= 59))
    canonical &= (lengths == 19) | ((lengths == 20) & (sign == ord("Z"))) | with_offset
    offset = np.where(with_offset, np.where(sign == ord("-"), -60, 60) * (offset_hour * 60 + offset_minute), 0)

    seconds = (first_day + day - 1) * 86400 + hour * 3600 + minute * 60 + second - offset
    malformed = np.zeros(n, dtype=bool)
    for i in np.flatnonzero(~canonical):
        try:
            seconds[i] = _parse_timestamp(stamps[i], 0)  # the mask, not the message, is kept
        except DataError:
            malformed[i] = True
    return seconds, malformed


def _read_plain(text: str, lines: list[str], k: int, prev_time: int | None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """What `_read_block` returns for a block of data lines (`text`, split
    into `lines`), read by numpy's C text reader; or None, and `_read_block`
    reads the block.

    The block must be plain as a whole: ASCII, with no quote, whitespace or
    blank line (the reader would skip it, and warn on a block of nothing
    else), and no line longer than a cell may be. The reader refuses a line
    that is not k + 1 cells, an empty cell and a price that `float` reads but
    it cannot (``1_0``). A block it refuses is read once more with each empty
    cell written as ``nan``, unless a cell holds an ``n`` and so may spell
    ``nan`` itself. Any refusal or broken rule gives None.
    """
    if (not text.isascii() or any(char in text for char in _NOT_PLAIN) or "" in lines
            or max(map(len, lines)) > MAX_CELL_CHARS):
        return None

    def read(data: list[str]) -> np.ndarray:
        # comments=None, or "#" would cut the cell 1#2 to 1
        return np.loadtxt(data, dtype=[("stamp", object), ("prices", float, (k,))],
                          delimiter=",", comments=None, ndmin=1)

    filled = False
    try:
        table = read(lines)
    except ValueError:
        if "n" in text or "N" in text:
            return None
        # ",,,": the first pass fills every other empty cell, the second the rest
        text = text.replace(",,", ",nan,").replace(",,", ",nan,").replace(",\n", ",nan\n")
        if text.endswith(","):
            text += "nan"
        try:
            table = read(text.split("\n"))
        except ValueError:
            return None
        filled = True
    times, malformed = _stamp_seconds(table["stamp"])
    prices = table["prices"].copy()  # drops the stamps' strings with the table
    given = ~np.isnan(prices) if filled else np.ones(prices.shape, dtype=bool)
    if (malformed.any() or (np.diff(times) <= 0).any()
            or (prev_time is not None and times[0] <= prev_time)
            or not (((prices > 0) & (prices < np.inf)) | ~given).all()):
        return None
    return times, prices, given


def _read_block(lines: list[str], first_row: int, symbols: list[str], prev_time: int | None
                ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Times, prices (NaN where a cell is empty) and given-cell mask of the
    rows of a block of data lines that starts on line `first_row`, after the
    timestamp `prev_time`, read one line at a time; a line whose cells are
    all blank is skipped. The first bad cell in reading order, a row's width
    and timestamp before its prices, raises its DataError.
    """
    k = len(symbols)
    times: list[int] = []
    prices: list[float] = []
    for row, line in enumerate(lines, start=first_row):
        cells = _split_line(line, f"row {row}")
        stripped = [cell.strip() for cell in cells]
        if not any(stripped):
            continue
        if len(cells) != k + 1:
            raise DataError(f"row {row}: expected {k + 1} columns, got {len(cells)}")
        t = _parse_timestamp(cells[0], row)
        if prev_time is not None and t <= prev_time:
            raise DataError(f"row {row}: timestamps must be strictly increasing")
        times.append(prev_time := t)
        for symbol, cell in zip(symbols, stripped[1:]):
            try:
                price = float(cell) if cell else math.nan
            except ValueError:
                raise DataError(f"row {row}: malformed price {cell!r}") from None
            if cell and not 0 < price < math.inf:
                kind = "non-positive" if price <= 0 else "non-finite"
                raise DataError(f"row {row}: {kind} price {price} for {symbol}")
            prices.append(price)
    table = np.array(prices, dtype=float).reshape(-1, k)
    return np.array(times, dtype=np.int64), table, ~np.isnan(table)


def ingest_prices(path: str | Path) -> dict[str, PriceSeries]:
    """Read the price CSV into one PriceSeries per symbol column."""
    path = Path(path)
    with path.open() as fh:  # universal newlines: \r\n and \r read as \n
        first = fh.readline()
        if not first:
            raise DataError(f"{path}: empty file")
        header = _split_line(first.removesuffix("\n"), f"{path}: header")
        if not header or header[0].strip().lower() != "timestamp":
            raise DataError(f"{path}: first header column must be 'timestamp'")
        symbols = [h.strip() for h in header[1:]]
        if not symbols or any(not s for s in symbols):
            raise DataError(f"{path}: header must list at least one symbol")
        twice = [s for s, n in Counter(symbols).items() if n > 1]
        if twice:
            raise DataError(f"{path}: header names symbol {twice[0]!r} twice")

        k = len(symbols)
        blocks = [(np.empty(0, dtype=np.int64), np.empty((0, k)), np.empty((0, k), dtype=bool))]
        first_row, prev_time = 2, None
        while chunk := fh.readlines(_BLOCK_CHARS):
            text = "".join(chunk).removesuffix("\n")
            lines = text.split("\n")
            block = _read_plain(text, lines, k, prev_time)
            blocks.append(block or _read_block(lines, first_row, symbols, prev_time))
            first_row += len(lines)
            if len(blocks[-1][0]):
                prev_time = int(blocks[-1][0][-1])

    times, prices, given = (np.concatenate(parts) for parts in zip(*blocks))
    out: dict[str, PriceSeries] = {}
    for j, symbol in enumerate(symbols):
        st = times[given[:, j]]
        out[symbol] = PriceSeries(symbol, st, prices[given[:, j], j])
    return out


def common_timeline(series_map: Mapping[str, PriceSeries], symbols: Sequence[str]
                    ) -> tuple[np.ndarray, list[int]]:
    """Price panel (symbols x T) over the timestamps where every symbol has an
    observation, and the gap rule's period cuts [0, ..., T] of that timeline.
    A gap in one series lies between two consecutive common timestamps, so
    the common gap rule cuts there too."""
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
    return panel, _gap_cuts(common)


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
    """Per-slot drift, covariance of log returns, per-asset Student-t degrees
    of freedom, and the Cholesky factor of the covariance, which is derived
    from `cov` at construction and never given, so the sampler and the
    optimizer read one covariance."""

    assets: list[str]
    mu: np.ndarray  # per-slot drift
    cov: np.ndarray
    nu: np.ndarray
    n_obs: int
    chol: np.ndarray = field(init=False)

    def __post_init__(self):
        self.chol = cholesky(self.cov)

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
            "nu": self.nu.tolist(),
            "n_obs": self.n_obs,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "ReturnModel":
        """Read a `to_json` document. `assets` must be a list of strings
        that names each asset once, `mu` and `nu` must have one entry per
        asset, `cov` one row and column per asset, every entry must be
        finite, and `cov` must be symmetric positive semi-definite
        (`cholesky`); a stored `chol` is ignored. Else ModelError names the
        field."""
        assets = doc["assets"]
        if not isinstance(assets, list) or not all(isinstance(a, str) for a in assets):
            raise ModelError("field 'assets' must be a list of asset names")
        m = len(assets)
        if len(set(assets)) != m:
            raise ModelError("field 'assets' must name each asset once")
        fields = {}
        for name, shape in (("mu", (m,)), ("cov", (m, m)), ("nu", (m,))):
            value = np.asarray(doc[name], dtype=float)
            if value.shape != shape:
                want = (f"have {m} entries, one per asset" if len(shape) == 1
                        else f"be {m}x{m}, one row and column per asset")
                raise ModelError(f"field {name!r} must {want}, got shape {value.shape}")
            if not np.all(np.isfinite(value)):
                raise ModelError(f"field {name!r} must be finite")
            fields[name] = value
        return cls(assets=assets, n_obs=int(doc["n_obs"]), **fields)

    @classmethod
    def load(cls, path: str | Path) -> "ReturnModel":
        try:
            doc = json.loads(Path(path).read_text())
            if "assets" not in doc and "model" in doc:  # CLI `fit` output envelope
                doc = doc["model"]
            return cls.from_json(doc)
        except OSError as exc:
            raise ModelError(f"model file {path}: {exc.strerror}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ModelError(f"model file {path}: not valid JSON: {exc}") from None
        except KeyError as exc:
            raise ModelError(f"model file {path}: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError, OverflowError) as exc:
            raise ModelError(f"model file {path}: malformed: {exc}") from None
        except ModelError as exc:
            raise ModelError(f"model file {path}: {exc}") from None


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
    from scipy.special import digamma, gammaln  # here, not at the top: only the fit needs scipy
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
    from scipy.optimize import minimize
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
    nu = np.array([fit_nu((row - m) / s) for row, m, s in zip(matrix, mu, stds)])
    return ReturnModel(assets=assets, mu=mu, cov=cov, nu=nu, n_obs=n)


def fit_model_from_series(series_map: Mapping[str, PriceSeries],
                          symbols: Sequence[str] | None = None,
                          min_obs: int = 100) -> ReturnModel:
    symbols, returns = aligned_log_returns(series_map, symbols)
    return estimate_model({s: returns[i] for i, s in enumerate(symbols)}, min_obs=min_obs)


# ----------------------------------------------------------------------
# sampler

NORMAL = "normal"
STUDENT_T = "t"
COLOUR_BLOCK = 16_384  # columns coloured together: 128 KiB per row buffer


def sample_returns(
    model: ReturnModel,
    slots: int,
    distribution: str,
    rng: np.random.Generator,
    zero_drift: bool = False,
) -> np.ndarray:
    """Draw an (assets x slots) matrix of correlated per-slot log returns.

    Student-t innovations are standardized to unit variance (divide by
    sqrt(nu/(nu-2))) so the target covariance is matched for any degrees of
    freedom. The innovations x are then coloured in place by the
    lower-triangular Cholesky factor L, COLOUR_BLOCK columns at a time and
    row i = m-1 down to 0, so each row reads only rows not yet overwritten:
    every entry is L[i,0]*x[0], plus L[i,j]*x[j] for j = 1..i in ascending
    j, each product rounded before it is added, plus mu[i] unless zero_drift
    is set. This is the sum order of `np.einsum("ij,jk->ik", L, x) + mu`
    for every slot count above one; at one slot einsum's dot-product kernel
    sums in another order, and this kernel's result, which differs from it
    by up to about 1e-18, is the defined one.
    """
    m = len(model.assets)
    if distribution == NORMAL:
        x = rng.standard_normal((m, slots))
    elif distribution == STUDENT_T:
        x = np.empty((m, slots))
        for i in range(m):  # fixed asset order keeps draws reproducible
            nu = float(model.nu[i])
            if nu <= 2:
                raise ModelError(f"nu must exceed 2 for the t sampler, got {nu}")
            np.divide(rng.standard_t(nu, slots), math.sqrt(nu / (nu - 2.0)), out=x[i])
    else:
        raise ModelError(f"unknown distribution {distribution!r}")
    chol, mu = model.chol, model.mu
    acc = np.empty(min(slots, COLOUR_BLOCK))
    term = np.empty_like(acc)
    for lo in range(0, slots, COLOUR_BLOCK):
        block = x[:, lo : lo + COLOUR_BLOCK]
        a, t = acc[: block.shape[1]], term[: block.shape[1]]
        for i in range(m - 1, -1, -1):
            np.multiply(chol[i, 0], block[0], out=a)
            for j in range(1, i + 1):
                np.multiply(chol[i, j], block[j], out=t)
                a += t
            if not zero_drift:
                a += mu[i]
            block[i] = a
    return x
