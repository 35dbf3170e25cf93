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
is plain as a whole (ASCII, with no quote, whitespace, NUL or blank line, and
no line longer than a cell may be) is read by one call of numpy's C text
reader, ``np.loadtxt``, which converts a number as ``float`` does and takes a
timestamp as bytes; empty price cells cost one more call. The rules are
checked on what it read: stamps ``YYYY-MM-DDTHH:MM:SS`` with no suffix, ``Z``
or ``+HH:MM``/``-HH:MM`` go through one call of numpy's ``datetime64``
parser, any other stamp through ``fromisoformat``. Any other block, or one
that the reader or a rule refuses, is read by `_read_block`, which defines
the errors: it splits each line through the csv module, reads its timestamp
with ``fromisoformat`` and each price with ``float``, and raises at the first
bad cell in reading order. Each block carries its prices transposed, so the
series of one file share read-only arrays: every symbol with no missing cell
has the one timestamp array, and its prices are a row of one (symbols x rows)
matrix. A symbol with a missing cell gets its own copies of both.

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
from dataclasses import InitVar, dataclass, field
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
    times_checked: InitVar[bool] = False  # the caller checked that times strictly increase

    def __post_init__(self, times_checked: bool):
        self.times = np.asarray(self.times, dtype=np.int64)
        self.prices = np.asarray(self.prices, dtype=float)
        if len(self.times) != len(self.prices):
            raise DataError(f"{self.symbol}: times and prices differ in length")
        if not np.all(np.isfinite(self.prices) & (self.prices > 0)):
            raise DataError(f"{self.symbol}: prices must be finite and > 0")
        if not times_checked and np.any(np.diff(self.times) <= 0):
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
# a stamp's body with each digit read as 0, and how far above it each byte may
# be: 9 on a digit, 0 on a separator; 5 bytes of any value pad it to 24
_BODY = np.frombuffer(b"0000-00-00T00:00:00\0\0\0\0\0", np.uint8)
_BODY_SPAN = np.where(_BODY == ord("0"), 9, np.where(_BODY == 0, 255, 0)).astype(np.uint8)
_YEAR_ONE = int(np.datetime64("0001-01-01T00:00:00", "s").astype(np.int64))


def _stamp_seconds(codes: np.ndarray, lines: list[str]) -> np.ndarray | None:
    """Epoch seconds of the timestamps of `lines`, or None at the first stamp
    that is malformed. Row i of `codes` is the bytes of line i's record from
    numpy's text reader, first its stamp in a 26-byte field that drops
    trailing NULs. A stamp ``YYYY-MM-DDTHH:MM:SS`` with no suffix, ``Z`` or
    ``+HH:MM``/``-HH:MM`` is read in bulk, its body by numpy's ``datetime64``
    parser, which refuses (None) what ``fromisoformat`` refuses save year 0.
    Any other stamp, one that fills the field and may have been cut among
    them, goes through `_parse_timestamp`, the definition, with its line's text."""
    sign = codes[:, 19]
    signed = np.flatnonzero((sign == ord("+")) | (sign == ord("-")))
    offset = codes[signed, 19:26]  # +HH:MM or -HH:MM, and the NUL after it
    digits = (offset[:, [1, 2, 4, 5]] - ord("0")).astype(np.int64)  # any other byte wraps round past 9
    hours, minutes = digits[:, 0] * 10 + digits[:, 1], digits[:, 2] * 10 + digits[:, 3]
    with_offset = np.zeros(len(codes), dtype=bool)
    with_offset[signed] = ((offset[:, 3] == ord(":")) & (offset[:, 6] == 0) & (digits <= 9).all(axis=1)
                           & (hours <= 23) & (minutes <= 59))
    broken = ((codes[:, :24] - _BODY) > _BODY_SPAN).view(np.uint64)  # 8 bytes a word
    canonical = (((broken[:, 0] | broken[:, 1] | broken[:, 2]) == 0)
                 & ((sign == 0) | ((sign == ord("Z")) & (codes[:, 20] == 0)) | with_offset))
    seconds = np.zeros(len(codes), dtype=np.int64)
    try:
        seconds[canonical] = codes[canonical, :19].view("S19").ravel().astype("datetime64[s]")
    except ValueError:  # a field out of range: `_read_block` reads the block
        return None
    canonical &= seconds >= _YEAR_ONE
    seconds[signed] -= np.where(offset[:, 0] == ord("-"), -60, 60) * (hours * 60 + minutes)
    for i in np.flatnonzero(~canonical):
        try:
            seconds[i] = _parse_timestamp(lines[i].split(",", 1)[0], 0)
        except DataError:
            return None  # `_read_block` reads the block and raises the message
    return seconds


def _read_plain(text: str, lines: list[str], k: int, prev_time: int | None
                ) -> tuple[np.ndarray, np.ndarray] | None:
    """What `_read_block` returns for a block of data lines (`text`, split
    into `lines`), read by numpy's C text reader; or None, and `_read_block`
    reads the block.

    The block must be plain as a whole: ASCII, with no quote, whitespace, NUL
    or blank line (the reader would skip it, and warn on a block of nothing
    else), and no line longer than a cell may be. The reader reads a stamp as
    bytes, for `_stamp_seconds`, and refuses a line that is not k + 1 cells,
    an empty cell and a price that `float` reads but it cannot (``1_0``). A
    block it refuses is read once more with each empty cell written as
    ``nan``, unless a cell holds an ``n`` and so may spell ``nan`` itself.
    Any refusal or broken rule gives None.
    """
    if not text.isascii() or any(char in text for char in _NOT_PLAIN) or "\0" in text or not any(lines):
        return None
    start = 0  # a line start: the next MAX_CELL_CHARS + 1 characters must hold a line break
    while len(text) - start > MAX_CELL_CHARS:
        if not (start := text.rfind("\n", start, start + MAX_CELL_CHARS + 1) + 1):
            return None

    def read(data: list[str]) -> np.ndarray:
        # comments=None, or "#" would cut the cell 1#2 to 1
        return np.loadtxt(data, dtype=[("stamp", "S26"), ("prices", float, (k,))],
                          delimiter=",", comments=None, ndmin=1)

    filled = False
    try:
        table = read(lines)
    except ValueError:
        if "n" in text or "N" in text:
            return None
        # ",,,": the first pass fills every other empty cell, the second the rest
        text = (text + "\n").replace(",,", ",nan,").replace(",,", ",nan,").replace(",\n", ",nan\n")
        try:
            table = read(text.split("\n"))
        except ValueError:
            return None
        filled = True
    if len(table) < len(lines):  # the reader skipped a blank line
        return None
    times = _stamp_seconds(table.view(np.uint8).reshape(len(table), -1), lines)
    prices = table["prices"].T.copy()  # drops the stamps with the table
    if (times is None or (np.diff(times) <= 0).any()
            or (prev_time is not None and times[0] <= prev_time)
            or not (((prices > 0) & (prices < np.inf)) | (filled & np.isnan(prices))).all()):
        return None
    return times, prices


def _read_block(lines: list[str], first_row: int, symbols: list[str], prev_time: int | None
                ) -> tuple[np.ndarray, np.ndarray]:
    """Times and (symbols x rows) prices, NaN where a cell is empty, of the
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
    return np.array(times, dtype=np.int64), np.array(prices, dtype=float).reshape(-1, k).T.copy()


def ingest_prices(path: str | Path) -> dict[str, PriceSeries]:
    """Read the price CSV into one PriceSeries per symbol column, the series
    with no missing cell on shared read-only arrays."""
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
        blocks = [(np.empty(0, dtype=np.int64), np.empty((k, 0)))]
        first_row, prev_time = 2, None
        while text := fh.read(_BLOCK_CHARS):
            text += fh.readline()  # CPython resizes the string in place, with no copy
            lines = text.split("\n")
            if not lines[-1]:  # the text ends in a line break
                lines.pop()
            block = _read_plain(text, lines, k, prev_time)
            blocks.append(block or _read_block(lines, first_row, symbols, prev_time))
            first_row += len(lines)
            if len(blocks[-1][0]):
                prev_time = int(blocks[-1][0][-1])

    times, prices = (np.concatenate(parts, axis=-1) for parts in zip(*blocks))
    del blocks  # before the series' checks take their temporaries
    times.flags.writeable = prices.flags.writeable = False
    out: dict[str, PriceSeries] = {}
    for symbol, row in zip(symbols, prices):
        given = ~np.isnan(row)
        out[symbol] = (PriceSeries(symbol, times, row, times_checked=True) if given.all()
                       else PriceSeries(symbol, times[given], row[given], times_checked=True))
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
    times = {id(t): t for t in (series_map[s].times for s in symbols)}  # each array once
    common = next(iter(times.values()), np.empty(0, dtype=np.int64))
    for t in times.values():
        if not (t is common or np.array_equal(t, common)):
            common = np.intersect1d(common, t, assume_unique=True)
    # common is in every t: at the same length the same stamps, else gathered once per array
    at = {k: slice(None) if len(t) == len(common) else np.searchsorted(t, common)
          for k, t in times.items()}
    panel = np.empty((len(symbols), len(common)))
    for i, s in enumerate(symbols):
        panel[i] = series_map[s].prices[at[id(series_map[s].times)]]
    return panel, _gap_cuts(common)


def aligned_log_returns(series_map: Mapping[str, PriceSeries], symbols: Sequence[str] | None = None
                        ) -> tuple[list[str], np.ndarray]:
    """Joint return matrix (assets x T) over the common timeline of the
    symbols; no return spans one of its period cuts."""
    symbols = list(symbols) if symbols is not None else sorted(series_map)
    panel, cuts = common_timeline(series_map, symbols)
    if panel.shape[1] < 2:
        raise DataError("fewer than two common observations across symbols")
    np.log(panel, out=panel)
    # one return per step inside a period: period i's land i columns left of its slots
    returns = np.empty((len(symbols), panel.shape[1] - (len(cuts) - 1)))
    if not returns.shape[1]:
        raise DataError("no period with two or more common observations")
    for i, (a, b) in enumerate(zip(cuts, cuts[1:])):  # np.diff's subtraction, in place
        np.subtract(panel[:, a + 1 : b], panel[:, a : b - 1], out=returns[:, a - i : b - 1 - i])
    return symbols, returns


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


def estimate_model(assets: Sequence[str], returns: np.ndarray, min_obs: int = 100) -> ReturnModel:
    """Sample moments plus per-asset t tail fit over an (assets x n) matrix
    of aligned returns, one row per asset. The matrix is centred in place:
    on return each row holds its returns less their mean."""
    assets = list(assets)
    if not assets:
        raise ModelError("no assets given")
    if returns.ndim != 2 or len(returns) != len(assets):
        raise ModelError(f"need one row of returns per asset: {len(assets)} assets, "
                         f"returns of shape {returns.shape}")
    n, need = returns.shape[1], max(min_obs, 2)  # n - 1 divides below
    if n < need:
        raise ModelError(f"need at least {need} return observations, got {n}")
    # centred in place; the steps and sum orders of np.std and np.cov
    # (ddof=1), so mu, the stds and cov are theirs bit for bit
    mu = returns.mean(axis=1)
    returns -= mu[:, None]
    stds = np.sqrt(np.array([np.square(row).sum() for row in returns]) / (n - 1))
    for a, s in zip(assets, stds):
        if s == 0.0:
            raise ModelError(f"zero-variance asset {a}")
    cov = np.dot(returns, returns.T)
    cov *= np.true_divide(1, n - 1)
    nu = np.array([fit_nu(row / s) for row, s in zip(returns, stds)])
    return ReturnModel(assets=assets, mu=mu, cov=cov, nu=nu, n_obs=n)


def fit_model_from_series(series_map: Mapping[str, PriceSeries],
                          symbols: Sequence[str] | None = None,
                          min_obs: int = 100) -> ReturnModel:
    return estimate_model(*aligned_log_returns(series_map, symbols), min_obs=min_obs)


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
    rows: int | None = None,
) -> np.ndarray:
    """Draw an (assets x slots) matrix of correlated per-slot log returns,
    or its first `rows` rows only, with the same bits: a normal draw fills
    the rows in C order, a t draw goes asset by asset, and row i is coloured
    from rows j <= i only.

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
    m = len(model.assets) if rows is None else rows
    if distribution == NORMAL:
        x = rng.standard_normal((m, slots))
    elif distribution == STUDENT_T:
        low = [nu for nu in model.nu.tolist() if nu <= 2]  # rows drawn or not
        if low:
            raise ModelError(f"nu must exceed 2 for the t sampler, got {low[0]}")
        x = np.empty((m, slots))
        for i, nu in enumerate(model.nu[:m].tolist()):  # fixed asset order keeps draws reproducible
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
