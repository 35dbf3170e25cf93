import csv
import json
import math
import re
import subprocess
import sys
import tracemalloc
import warnings
from datetime import datetime, timedelta, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from conftest import toy_model, write_price_csv
from crocodai import riskmodel
from crocodai.errors import DataError, ModelError
from crocodai.riskmodel import (
    NORMAL,
    NU_MAX,
    NU_MIN,
    STUDENT_T,
    PriceSeries,
    ReturnModel,
    aligned_log_returns,
    cholesky,
    common_timeline,
    estimate_model,
    fit_model_from_series,
    fit_nu,
    ingest_prices,
    sample_returns,
)


class TestIngest:
    def test_two_row_file(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:00:00Z,100\n2022-01-01T00:05:00Z,110\n")
        series = ingest_prices(f)
        assert list(series) == ["BTC"]
        assert len(series["BTC"]) == 2
        assert series["BTC"].periods() == [(0, 2)]

    def test_negative_price_reports_row(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:00:00Z,100\n2022-01-01T00:05:00Z,-1\n")
        with pytest.raises(DataError, match="row 3"):
            ingest_prices(f)

    def test_gap_becomes_period_boundary(self, tmp_path):
        f = write_price_csv(tmp_path / "p.csv", ["BTC"], slots=20, gap_at=9)
        series = ingest_prices(f)
        assert series["BTC"].periods() == [(0, 10), (10, 20)]

    def test_two_slot_gap_is_not_a_boundary(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "timestamp,BTC\n"
            "2022-01-01T00:00:00Z,100\n"
            "2022-01-01T00:10:00Z,101\n"  # 2 slots: allowed
        )
        assert ingest_prices(f)["BTC"].periods() == [(0, 2)]

    def test_non_monotone_timestamps_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "timestamp,BTC\n2022-01-01T00:05:00Z,100\n2022-01-01T00:00:00Z,101\n"
        )
        with pytest.raises(DataError, match="row 3"):
            ingest_prices(f)

    def test_malformed_row_rejected(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:00:00Z,100,7\n")
        with pytest.raises(DataError, match="row 2"):
            ingest_prices(f)

    def test_empty_cell_is_missing(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "timestamp,BTC,ETH\n"
            "2022-01-01T00:00:00Z,100,10\n"
            "2022-01-01T00:05:00Z,,11\n"
            "2022-01-01T00:10:00Z,102,12\n"
        )
        series = ingest_prices(f)
        assert len(series["BTC"]) == 2
        assert len(series["ETH"]) == 3

    @pytest.mark.parametrize("cell", ["nan", "inf", "NaN", "1e400"])
    def test_non_finite_price_rejected(self, tmp_path, cell):
        f = tmp_path / "p.csv"
        f.write_text(
            "timestamp,BTC\n"
            "2022-01-01T00:00:00Z,1\n"
            f"2022-01-01T00:05:00Z,{cell}\n"
            "2022-01-01T00:10:00Z,2\n"
        )
        with pytest.raises(DataError, match=r"^row 3: non-finite price (nan|inf) for BTC$"):
            ingest_prices(f)

    def test_row_numbers_count_blank_lines_and_blocks(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "timestamp,BTC\r\n"
            "2022-01-01T00:00:00Z,1\r\n"
            "2022-01-01T00:05:00Z,2\r\n"
            "\r\n"
            " , \r\n"
            "2022-01-01T00:05:00Z,3\r\n"
        )
        for block_chars in (1, 1 << 20):
            with mock.patch.object(riskmodel, "_BLOCK_CHARS", block_chars):
                with pytest.raises(DataError, match="^row 6: timestamps must be strictly increasing$"):
                    ingest_prices(f)

    def test_empty_and_header_only_files(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text("")
        with pytest.raises(DataError, match="empty file"):
            ingest_prices(f)
        f.write_text("\n")
        with pytest.raises(DataError, match="first header column"):
            ingest_prices(f)
        f.write_text("timestamp,BTC\n")
        assert len(ingest_prices(f)["BTC"]) == 0

    def test_symbol_named_twice_rejected(self, tmp_path):
        # the second BTC column used to replace the first without a word
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC,ETH, BTC\n2022-01-01T00:00:00Z,1,2,3\n")
        with pytest.raises(DataError, match=f"^{re.escape(str(f))}: header names symbol 'BTC' twice$"):
            ingest_prices(f)

    def test_not_plain_lists_every_stripped_character(self):
        stripped = {c for c in map(chr, range(0x110000)) if c.isspace()} - {"\n"}
        assert set(riskmodel._NOT_PLAIN) == stripped | {'"'}


def write_panel_csv(path, symbols, rows, seed=0, hole_every=None):
    """A gap-free 5-minute price CSV built in bulk; with `hole_every`, the
    last symbol's cell is empty on every `hole_every`-th row."""
    rng = np.random.default_rng(seed)
    prices = 100.0 * np.exp(np.cumsum(rng.normal(0.0, 0.01, (rows, len(symbols))), axis=0))
    stamps = np.datetime64("2022-08-26T02:00:00") + np.arange(rows) * np.timedelta64(300, "s")
    lines = ["timestamp," + ",".join(symbols)]
    for i, (stamp, row) in enumerate(zip(stamps.astype(str), prices.tolist())):
        cells = [f"{p:.6f}" for p in row]
        if hole_every and i % hole_every == hole_every - 1:
            cells[-1] = ""
        lines.append(stamp + "Z," + ",".join(cells))
    path.write_text("\n".join(lines) + "\n")
    return path


class TestSharedSeries:
    """The series of one file share their arrays, read-only; a symbol with a
    missing cell has its own."""

    @pytest.mark.parametrize("block_chars", [64, 1 << 20])
    def test_gap_free_series_share_one_timeline_and_one_matrix(self, tmp_path, block_chars):
        f = write_panel_csv(tmp_path / "p.csv", ["BTC", "ETH", "SOL"], 300)
        with mock.patch.object(riskmodel, "_BLOCK_CHARS", block_chars):
            series = ingest_prices(f)
        times = series["BTC"].times
        assert all(s.times is times for s in series.values())
        matrix = series["BTC"].prices.base
        assert matrix is not None and all(s.prices.base is matrix for s in series.values())
        assert matrix.shape == (3, 300)

    def test_write_to_a_series_raises_and_leaves_the_others_alone(self, tmp_path):
        f = write_panel_csv(tmp_path / "p.csv", ["BTC", "ETH", "SOL"], 300)
        series = ingest_prices(f)
        before = {s: (v.times.copy(), v.prices.copy()) for s, v in series.items()}
        btc = series["BTC"]
        for write in (lambda: btc.times.__setitem__(0, 0), lambda: btc.prices.__setitem__(0, 1.0),
                      lambda: btc.prices.__imul__(2.0), lambda: btc.times.sort()):
            with pytest.raises(ValueError, match="read-only"):
                write()
        for s, (times, prices) in before.items():
            assert np.array_equal(series[s].times, times) and np.array_equal(series[s].prices, prices)

    def test_symbol_with_holes_gets_its_own_arrays(self, tmp_path):
        f = write_panel_csv(tmp_path / "p.csv", ["BTC", "ETH", "SOL"], 300, hole_every=50)
        series = ingest_prices(f)
        btc, eth, sol = series["BTC"], series["ETH"], series["SOL"]
        assert (len(btc), len(eth), len(sol)) == (300, 300, 294)
        assert eth.times is btc.times
        assert not np.shares_memory(sol.times, btc.times)
        assert not np.shares_memory(sol.prices, btc.prices.base)
        assert np.array_equal(sol.times, np.delete(btc.times, np.arange(49, 300, 50)))
        sol.prices[0] = 1.0  # its own, so writable, and no other series changes
        assert np.isfinite(btc.prices).all() and btc.prices[0] != 1.0

    def test_aligned_read_of_shared_series_calls_no_intersection(self, tmp_path):
        f = write_panel_csv(tmp_path / "p.csv", ["BTC", "ETH", "SOL"], 300)
        series = ingest_prices(f)
        with (mock.patch.object(np, "intersect1d", wraps=np.intersect1d) as intersect,
              mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search):
            panel, cuts = common_timeline(series, ["SOL", "BTC"])
            # equal timestamps in another array count as the same timeline
            copied = {s: PriceSeries(s, v.times.copy(), v.prices) for s, v in series.items()}
            again, _ = common_timeline(copied, ["SOL", "BTC"])
        assert (intersect.call_count, search.call_count) == (0, 0)
        assert panel.tolist() == [series["SOL"].prices.tolist(), series["BTC"].prices.tolist()]
        assert np.array_equal(again, panel) and cuts == [0, 300]

    def test_each_distinct_timeline_is_aligned_once(self, tmp_path):
        # the seed-0 benchmark file's 8 symbols, SOL with holes and in the
        # middle of the sorted order: one intersection with SOL's stamps and
        # one gather for the shared timeline, however many symbols share it
        symbols = ["ADA", "AVAX", "BTC", "DOT", "ETH", "TRX", "WBTC", "SOL"]
        series = ingest_prices(write_panel_csv(tmp_path / "p.csv", symbols, 300, hole_every=50))
        with (mock.patch.object(np, "intersect1d", wraps=np.intersect1d) as intersect,
              mock.patch.object(np, "searchsorted", wraps=np.searchsorted) as search):
            panel, cuts = common_timeline(series, sorted(symbols))
        assert (intersect.call_count, search.call_count) == (1, 1)
        common = series["SOL"].times
        want = [series[s].prices[np.isin(series[s].times, common)] for s in sorted(symbols)]
        assert np.array_equal(panel, want) and cuts == [0, len(common)]

    def test_shared_timeline_is_checked_once_per_file(self, tmp_path):
        # the reader checks one block's order; no series checks it again
        symbols = [f"S{i}" for i in range(8)]
        f = write_panel_csv(tmp_path / "p.csv", symbols, 300, hole_every=50)
        with mock.patch.object(np, "diff", wraps=np.diff) as diff:
            series = ingest_prices(f)
        assert diff.call_count == 1
        assert [len(s) for s in series.values()] == [300] * 7 + [294]


class TestMemoryGates:
    """Working sets of ingest and fit, counted by tracemalloc over a
    20,000-row, 8-symbol file, never timed. Ingest holds its blocks and
    their concatenation once, and keeps no copy for each symbol; the fit
    holds the aligned panel and the returns, centred in place, and no copy
    for np.std or np.cov."""

    ROWS, SYMBOLS = 20_000, [f"S{i}" for i in range(8)]

    @staticmethod
    def traced(call):
        """What `call` returns, and the bytes it left allocated and its peak."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = call()
            kept, peak = tracemalloc.get_traced_memory()
            return result, kept - base, peak - base
        finally:
            tracemalloc.stop()

    def test_ingest_keeps_its_data_once_and_peaks_at_about_twice(self, tmp_path):
        f = write_panel_csv(tmp_path / "p.csv", self.SYMBOLS, self.ROWS)
        with mock.patch.object(riskmodel, "_BLOCK_CHARS", 4096):
            ingest_prices(f)  # first calls, so no lazy set-up is counted
            series, kept, peak = self.traced(lambda: ingest_prices(f))
        assert [len(s) for s in series.values()] == [self.ROWS] * 8
        data = self.ROWS * (1 + len(self.SYMBOLS)) * 8  # one timestamp and one float per cell
        assert kept <= 1.1 * data, kept / data
        assert peak <= 2.2 * data, peak / data

    def test_fit_holds_under_three_price_matrices(self, tmp_path):
        series = ingest_prices(write_panel_csv(tmp_path / "p.csv", self.SYMBOLS, self.ROWS))
        fit_model_from_series(series)  # first calls, so no lazy set-up is counted
        model, _, peak = self.traced(lambda: fit_model_from_series(series))
        assert model.n_obs == self.ROWS - 1
        matrix = self.ROWS * len(self.SYMBOLS) * 8
        assert peak <= 2.2 * matrix, peak / matrix


@pytest.mark.parametrize("block_chars", [1, 64, 1 << 20])
class TestPlainBlockTraps:
    """Plain lines that a C text reader could read otherwise than the rules
    say: each is read, or refused, as the rules say."""

    @staticmethod
    def ingest(path, block_chars):
        with mock.patch.object(riskmodel, "_BLOCK_CHARS", block_chars):
            return ingest_prices(path)

    def test_blank_only_block_raises_no_warning(self, tmp_path, block_chars):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:00:00Z,1\n\n\n\n2022-01-01T00:05:00Z,2\n\n\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = self.ingest(f, block_chars)
        assert series["BTC"].prices.tolist() == [1.0, 2.0]

    def test_hash_in_a_price_is_not_a_comment(self, tmp_path, block_chars):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:00:00Z,1\n2022-01-01T00:05:00Z,1#2\n")
        with pytest.raises(DataError, match="^row 3: malformed price '1#2'$"):
            self.ingest(f, block_chars)

    def test_long_stamp_is_read_whole(self, tmp_path, block_chars):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:00:00.000000+05:00,1\n2022-01-01T00:05:00Z,2\n")
        times = self.ingest(f, block_chars)["BTC"].times
        start = datetime(2021, 12, 31, 19, tzinfo=timezone.utc).timestamp()
        assert times.tolist() == [start, start + 18_300]

    def test_underscore_in_a_price_reads_as_float_reads_it(self, tmp_path, block_chars):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:00:00Z,1_0\n2022-01-01T00:05:00Z,2\n")
        assert self.ingest(f, block_chars)["BTC"].prices.tolist() == [10.0, 2.0]

    def test_stamp_out_of_order_is_named_by_its_line(self, tmp_path, block_chars):
        # at block size 1 the order is checked across blocks, and the row
        # number counts the blank lines of a block read before
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:05:00Z,1\n\n\n2022-01-01T00:10:00Z,2\n"
                     "2022-01-01T00:00:00Z,3\n")
        with pytest.raises(DataError, match="^row 6: timestamps must be strictly increasing$"):
            self.ingest(f, block_chars)

    def test_plain_line_longer_than_a_cell_is_refused(self, tmp_path, block_chars):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC\n2022-01-01T00:00:00Z,1\n"
                     f"2022-01-01T00:05:00Z,{'0' * (riskmodel.MAX_CELL_CHARS + 1)}1.5\n")
        with pytest.raises(DataError, match=r"^row 3: field larger than field limit \(131072\)$"):
            self.ingest(f, block_chars)


@pytest.mark.parametrize("block_chars", [1, 64, 1 << 20])
class TestMissingCellTraps:
    """Lines that a reader filling empty cells, or reading a block line by
    line, could read otherwise than the rules say: each is read, or refused,
    as the rules say."""

    ingest = staticmethod(TestPlainBlockTraps.ingest)

    def test_unclosed_quote_does_not_join_the_next_line(self, tmp_path, block_chars):
        f = tmp_path / "p.csv"
        f.write_text('timestamp,BTC\n"2022-01-01T00:00:00Z,1\n2022-01-01T00:05:00Z",2\n')
        with pytest.raises(DataError, match="^row 2: expected 2 columns, got 1$"):
            self.ingest(f, block_chars)

    def test_nan_is_refused_beside_an_empty_cell(self, tmp_path, block_chars):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC,ETH\n2022-01-01T00:00:00Z,1,\n2022-01-01T00:05:00Z,nan,2\n")
        with pytest.raises(DataError, match="^row 3: non-finite price nan for BTC$"):
            self.ingest(f, block_chars)

    def test_stamp_only_row_takes_part_in_the_order(self, tmp_path, block_chars):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC,ETH\n2022-01-01T00:00:00Z,1,2\n2022-01-01T00:10:00Z,,\n"
                     "2022-01-01T00:05:00Z,3,4\n")
        with pytest.raises(DataError, match="^row 4: timestamps must be strictly increasing$"):
            self.ingest(f, block_chars)

    def test_underscore_beside_an_empty_cell_reads_as_float_reads_it(self, tmp_path, block_chars):
        f = tmp_path / "p.csv"
        f.write_text("timestamp,BTC,ETH\n2022-01-01T00:00:00Z,1,\n2022-01-01T00:05:00Z,1_0,3\n")
        series = self.ingest(f, block_chars)
        start = datetime(2022, 1, 1, tzinfo=timezone.utc).timestamp()
        assert series["BTC"].prices.tolist() == [1.0, 10.0]
        assert series["ETH"].prices.tolist() == [3.0]
        assert series["ETH"].times.tolist() == [start + 300]


def reference_ingest(path) -> dict[str, tuple[np.ndarray, np.ndarray, list[tuple[int, int]]]]:
    """The row-by-row parser that `ingest_prices` replaced, plus its one new
    rule: a non-finite price is rejected."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        symbols = [h.strip() for h in next(reader)[1:]]
        times: list[int] = []
        columns: list[list[float | None]] = [[] for _ in symbols]
        prev_time = None
        for row_no, row in enumerate(reader, start=2):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(symbols) + 1:
                raise DataError(f"row {row_no}: expected {len(symbols) + 1} columns, got {len(row)}")
            t = riskmodel._parse_timestamp(row[0], row_no)
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
                if not math.isfinite(price):
                    raise DataError(f"row {row_no}: non-finite price {price} for {symbols[i]}")
                columns[i].append(price)
    out = {}
    times_arr = np.asarray(times, dtype=np.int64)
    for symbol, col in zip(symbols, columns):
        st_ = times_arr[np.array([v is not None for v in col], dtype=bool)]
        cuts = [0, *(np.flatnonzero(np.diff(st_) > 2 * 300) + 1).tolist(), len(st_)]
        out[symbol] = (st_, np.array([v for v in col if v is not None], dtype=float),
                       [(a, b) for a, b in zip(cuts, cuts[1:]) if b > a])
    return out


# (position, text) written over a row's canonical stamp: a field out of range,
# a bad suffix, or no stamp at all
_BAD_STAMPS = [(0, "0000"), (5, "13"), (5, "00"), (8, "32"), (8, "31"), (8, "00"), (11, "24"),
               (14, "60"), (17, "60"), (19, "+24:00"), (19, "+05:0x"), (19, "Q"), (0, "yesterday")]
_BAD_CELLS = {
    "price": ["abc", "1.2.3", "0x10", "--1", "1,5"],
    "non-positive": ["0", "-0", "-1.5", "-inf", "0.0"],
    "non-finite": ["nan", "inf", "NaN", "1e400", "+Infinity"],
}


@st.composite
def _stamp(draw, t: int) -> str:
    utc = datetime.fromtimestamp(t, timezone.utc)
    form = draw(st.sampled_from(["naive", "Z", "offset", "fraction", "space", "quoted"]))
    if form == "naive":
        stamp = utc.strftime("%Y-%m-%dT%H:%M:%S")
    elif form == "Z":
        stamp = utc.strftime("%Y-%m-%dT%H:%M:%SZ")
    elif form == "offset":
        minutes = draw(st.integers(-(23 * 60 + 59), 23 * 60 + 59))
        stamp = utc.astimezone(timezone(timedelta(minutes=minutes))).isoformat()
    elif form == "fraction":  # not the canonical shape, but fromisoformat reads it
        stamp = utc.strftime("%Y-%m-%dT%H:%M:%S.%f")
    elif form == "space":
        stamp = utc.strftime("%Y-%m-%d %H:%M:%S")
    else:
        return utc.strftime('"%Y-%m-%dT%H:%M:%SZ"')
    return draw(st.sampled_from(["{}", " {}", "{}\t"])).format(stamp)


_PRICE_CELLS = st.one_of(
    st.floats(1e-6, 1e9).map(repr),
    st.floats(1e-3, 1e6).map(lambda x: f"{x:.6f}"),
    st.floats(1e-3, 1e6).map(lambda x: f" {x!r}\t"),
    st.floats(1e-3, 1e6).map(lambda x: f'"{x!r}"'),
    st.sampled_from(["", "", "  ", "1_000", "1E3"]),
)


@st.composite
def _price_csv(draw) -> tuple[str, int]:
    """A price CSV as text, and the block size to parse it with."""
    k = draw(st.integers(1, 3))
    t = draw(st.integers(1_500_000_000 // 60, 1_700_000_000 // 60)) * 60
    lines: list[list[str] | str] = []
    times = {}  # line index -> epoch seconds of its row
    for _ in range(draw(st.integers(0, 20))):
        if draw(st.integers(0, 7)) == 0:
            lines.append(draw(st.sampled_from(["", "  ", ",", "," * k, " ," * k, '""'])))
        t += 300 * draw(st.sampled_from([1, 1, 1, 2, 3, 50]))  # 3 and 50 slots are gaps
        times[len(lines)] = t
        lines.append([draw(_stamp(t))] + [draw(_PRICE_CELLS) for _ in range(k)])
    # up to three faults of different kinds, each on any row, so the first bad
    # cell in reading order is found across kinds
    faults = draw(st.sampled_from([0, 0, 1, 1, 2, 3]))
    for kind in draw(st.permutations(["columns", "stamp", "order", *_BAD_CELLS]))[:faults]:
        if not times:
            break
        i = draw(st.sampled_from(sorted(times)))
        row = lines[i]
        # a malformed stamp or price may be wrapped in spaces or quotes
        wrap = draw(st.sampled_from(["{}", "{}", " {} ", '"{}"', ' "{}" ', '" {}"']))
        if kind == "columns":
            row.append("1") if draw(st.booleans()) else row.pop()
        elif kind == "stamp":
            stamp = datetime.fromtimestamp(times[i], timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            at, text = draw(st.sampled_from(_BAD_STAMPS))
            row[0] = wrap.format(stamp[:at] + text + stamp[at + len(text):])
        elif kind == "order":
            row[0] = "2000-01-01T00:00:00Z"
        elif len(row) > 1:  # a row cut to its stamp has no price to spoil
            row[draw(st.integers(1, len(row) - 1))] = wrap.format(draw(st.sampled_from(_BAD_CELLS[kind])))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(["timestamp," + ",".join(f"S{i}" for i in range(k))]
                        + [line if isinstance(line, str) else ",".join(line) for line in lines])
    return text + draw(st.sampled_from(["", newline])), draw(st.sampled_from([1, 64, 1 << 20]))


_PLAIN_PRICE_CELLS = st.one_of(
    st.floats(1e-6, 1e9).map(repr),
    st.floats(1e-3, 1e6).map(lambda x: f"{x:.6f}"),
    st.sampled_from(["+5", ".5", "5.", "1E+05", "123456789012345678901234567890", "", ""]),
)
# cells that break a rule, or that a C text reader may read otherwise than
# float: 1_0 it refuses, 1#2 it would cut at a comment sign, and nan it reads
# as an empty cell once the empty cells are written as nan
_PLAIN_ODD_CELLS = ["1_0", "1#2", "infinity", "nan", "1e-400", "-0"]
# a stamp out of order, one out of range and one malformed
_PLAIN_ODD_STAMPS = ["2000-01-01T00:00:00", "2023-02-29T00:00:00", "yesterday"]


@st.composite
def _plain_price_csv(draw) -> tuple[str, int]:
    """A price CSV with no quote, whitespace or blank line, some of its
    price cells and whole rows of them empty, and the block size to parse
    it with."""
    k = draw(st.integers(1, 3))
    t = draw(st.integers(1_500_000_000 // 60, 1_700_000_000 // 60)) * 60
    rows = []
    for _ in range(draw(st.integers(1, 20))):
        t += 300 * draw(st.sampled_from([1, 1, 1, 2, 3, 50]))  # 3 and 50 slots are gaps
        utc = datetime.fromtimestamp(t, timezone.utc)
        form = draw(st.sampled_from(["naive", "Z", "seconds", "microseconds"]))
        if form in ("naive", "Z"):
            stamp = utc.strftime("%Y-%m-%dT%H:%M:%S" + "Z" * (form == "Z"))
        else:  # a fraction with an offset is 32 characters
            zone = timezone(timedelta(minutes=draw(st.integers(-(23 * 60 + 59), 23 * 60 + 59))))
            stamp = utc.astimezone(zone).isoformat(timespec=form)
        if draw(st.integers(0, 3)) == 0:  # a stamp with no price
            rows.append([stamp] + [""] * k)
        else:
            rows.append([stamp] + [draw(_PLAIN_PRICE_CELLS) for _ in range(k)])
    # up to two odd cells, each on any row
    for _ in range(draw(st.sampled_from([0, 1, 1, 2, 2]))):
        row = draw(st.sampled_from(rows))
        column = draw(st.integers(0, k))
        row[column] = draw(st.sampled_from(_PLAIN_ODD_CELLS if column else _PLAIN_ODD_STAMPS))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(["timestamp," + ",".join(f"S{i}" for i in range(k))]
                        + [",".join(row) for row in rows])
    return text + draw(st.sampled_from(["", newline])), draw(st.sampled_from([1, 64, 1 << 20]))


class TestIngestMatchesRowParser:
    @staticmethod
    def assert_same(path, block_chars=1 << 20):
        """ingest_prices gives the reference parser's series, or its error."""
        try:
            expected = reference_ingest(path)
        except DataError as exc:
            expected = str(exc)
        try:
            with mock.patch.object(riskmodel, "_BLOCK_CHARS", block_chars):
                series = ingest_prices(path)
        except DataError as exc:
            assert str(exc) == expected
            return
        assert not isinstance(expected, str), expected
        assert list(series) == list(expected)
        for symbol, (times, prices, periods) in expected.items():
            got = series[symbol]
            assert got.times.dtype == np.int64 and got.prices.dtype == np.float64
            assert np.array_equal(got.times, times)
            assert np.array_equal(got.prices, prices)
            assert got.periods() == periods

    @given(_price_csv())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_same_series_or_same_error(self, tmp_path_factory, case):
        text, block_chars = case
        path = tmp_path_factory.getbasetemp() / "equivalence.csv"
        path.write_bytes(text.encode())
        self.assert_same(path, block_chars)

    @pytest.mark.parametrize("stamp", [
        "2024-02-29T12:00:00Z", "2023-02-29T12:00:00Z", "2023-04-31T00:00:00", "2023-13-01T00:00:00",
        "2023-00-10T00:00:00", "2023-01-00T00:00:00", "0000-01-01T00:00:00", "0001-01-01T00:00:00",
        "9999-12-31T23:59:59", "1969-12-31T23:59:59Z", "2023-01-01T24:00:00", "2023-01-01T23:60:00",
        "2023-01-01T23:59:60", "2023-01-01T00:00:00+05:30", "2023-01-01T00:00:00-23:59",
        "2023-01-01T00:00:00+05:60", "2023-01-01T00:00:00+23:60", "2023-01-01T00:00:00+24:00",
        "2023-01-01T00:00:00-00:00",
        "2023-01-01T00:00:00z", "2023-01-01t00:00:00", "2023-01-01T00:00:00.5", "2023-01-01T00:00:00ZZ",
        "2023-01-01T00:00", "2023-01-01", "2023-01-01T00:00:00+0530", "\u0662023-01-01T00:00:00",
        # 25, 26 and 27 bytes: as long as, and longer than, a fixed-width stamp field
        "2023-01-01T00:00:00.00000", "2023-01-01T00:00:00.000000", "2023-01-01T00:00:00+05:300",
        "2023-01-01T00:00:00+05:30Z", "2023-01-01T00:00:00.000000Z", "2023-01-01T00:00:00.000000x",
        # a fixed-width bytes field drops trailing NULs
        "2023-01-01T00:00:00Z\x00", "2023-01-01T00:00:00\x00", "2023-01-01T00:00:00Z\x00x",
        "2023-01-01T00:00:00\x00+05:00",
        # a canonical body and one stray byte, or a body cut short
        "2023-01-01T00:00:00x", "2023-01-01T00:00:00+", "2023-01-01T00:00:00\x7f",
        "2023-01-01T00:00Z", "2023-01-01T00:00-05", "2023-01-01T00:00:0Z",
        # a zero millisecond fraction, read in bulk, and fractions of another shape
        "2023-01-01T00:00:00.000Z", "2023-01-01T00:00:00.000", "1969-12-31T23:59:59.000Z",
        "2023-01-01T00:00:00.001Z", "2023-01-01T00:00:00.00Z", "2023-01-01T00:00:00.0000Z",
    ])
    def test_same_stamp_or_same_error(self, tmp_path, stamp):
        path = tmp_path / "p.csv"
        path.write_text(f"timestamp,BTC\n{stamp},1\n")
        self.assert_same(path)

    @given(_plain_price_csv())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_plain_file_same_series_or_same_error(self, tmp_path_factory, case):
        text, block_chars = case
        path = tmp_path_factory.getbasetemp() / "plain.csv"
        path.write_bytes(text.encode())
        self.assert_same(path, block_chars)


class TestPlainBlockCounts:
    """numpy's text reader reads each plain block in one call, or two when
    the block has an empty cell, and only a block that it or a rule refuses
    is read row by row. Counted through wrappers, never timed."""

    @staticmethod
    def counted_ingest(path, block_chars):
        with (mock.patch.object(riskmodel, "_BLOCK_CHARS", block_chars),
              mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt,
              mock.patch.object(riskmodel, "_read_block", wraps=riskmodel._read_block) as per_cell):
            series = ingest_prices(path)
        return series, loadtxt, per_cell

    @staticmethod
    def block_count(path, block_chars) -> int:
        with open(path) as fh:
            fh.readline()
            return sum(1 for _ in iter(lambda: fh.read(block_chars) + fh.readline(), ""))

    @pytest.mark.parametrize("block_chars", [1, 2_000, 1 << 20])
    def test_plain_file_is_read_once_per_block(self, tmp_path, block_chars):
        f = write_price_csv(tmp_path / "p.csv", ["BTC", "ETH", "SOL"], slots=200)
        series, loadtxt, per_cell = self.counted_ingest(f, block_chars)
        assert loadtxt.call_count == self.block_count(f, block_chars)
        assert per_cell.call_count == 0
        assert [len(s) for s in series.values()] == [200, 200, 200]

    def test_empty_cell_keeps_its_block_on_the_fast_path(self, tmp_path):
        # the reader refuses the block with the empty cell, then reads it again
        # with that cell written as nan
        f = write_price_csv(tmp_path / "p.csv", ["BTC", "ETH", "SOL"], slots=200)
        lines = f.read_text().split("\n")
        lines[101] = lines[101].rsplit(",", 1)[0] + ","  # row 102 lacks its SOL price
        f.write_text("\n".join(lines))
        series, loadtxt, per_cell = self.counted_ingest(f, 2_000)
        assert loadtxt.call_count == self.block_count(f, 2_000) + 1 > 3
        assert per_cell.call_count == 0
        assert [len(s) for s in series.values()] == [200, 200, 199]

    def test_quoted_cell_sends_only_its_block_row_by_row(self, tmp_path):
        f = write_price_csv(tmp_path / "p.csv", ["BTC", "ETH", "SOL"], slots=200)
        lines = f.read_text().split("\n")
        stamp, rest = lines[101].split(",", 1)
        lines[101] = f'"{stamp}",{rest}'  # row 102's stamp is quoted
        f.write_text("\n".join(lines))
        series, loadtxt, per_cell = self.counted_ingest(f, 2_000)
        assert loadtxt.call_count == self.block_count(f, 2_000) - 1 > 2
        assert per_cell.call_count == 1
        block_lines, first_row = per_cell.call_args.args[:2]
        assert first_row <= 102 < first_row + len(block_lines)
        assert [len(s) for s in series.values()] == [200, 200, 200]

    @pytest.mark.parametrize("suffix, parsed", [("Z", 0), ("", 0), ("+00:00", 0), ("-05:30", 0),
                                                (".000Z", 0), (".000", 0), (".500Z", 200)])
    def test_only_a_stamp_of_another_shape_is_parsed_alone(self, tmp_path, suffix, parsed):
        f = write_price_csv(tmp_path / "p.csv", ["BTC", "ETH", "SOL"], slots=200)
        f.write_text(f.read_text().replace("Z,", suffix + ","))
        with mock.patch.object(riskmodel, "_parse_timestamp", wraps=riskmodel._parse_timestamp) as parse:
            series, _, per_cell = self.counted_ingest(f, 1 << 20)
        assert (parse.call_count, per_cell.call_count) == (parsed, 0)
        assert [len(s) for s in series.values()] == [200, 200, 200]


class TestLogReturns:
    def test_definition(self):
        s = PriceSeries("X", [0, 300], [100.0, 110.0])
        _, (r,) = aligned_log_returns({s.symbol: s})
        assert r == pytest.approx([math.log(1.1)])
        assert r[0] == pytest.approx(0.0953102, abs=1e-7)

    def test_constant_series_all_zeros(self):
        s = PriceSeries("X", [0, 300, 600], [5.0, 5.0, 5.0])
        assert np.all(aligned_log_returns({s.symbol: s})[1] == 0.0)

    def test_returns_skip_period_boundary(self):
        times = [0, 300, 600, 20000, 20300]
        s = PriceSeries("X", times, [1, 2, 4, 8, 16])
        _, (r,) = aligned_log_returns({s.symbol: s})
        assert len(r) == 3  # junctions 0-1, 1-2 and 3-4 only

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf"), 0.0])
    def test_series_rejects_a_price_that_is_not_finite_and_positive(self, bad):
        # NaN and inf used to construct and give NaN returns
        with pytest.raises(DataError, match="X: prices must be finite and > 0"):
            PriceSeries("X", np.arange(4) * 300, [1.0, bad, 2.0, 3.0])

    @pytest.mark.parametrize("times", [[0, 300, 300], [0, 600, 300]])
    def test_series_rejects_times_that_do_not_strictly_increase(self, times):
        with pytest.raises(DataError, match="^X: timestamps must be strictly increasing$"):
            PriceSeries("X", times, [1.0, 2.0, 3.0])

    def test_too_short(self):
        s = PriceSeries("X", [0], [1.0])
        with pytest.raises(DataError):
            aligned_log_returns({s.symbol: s})

    def test_aligned_uses_common_timestamps(self, tmp_path):
        f = tmp_path / "p.csv"
        f.write_text(
            "timestamp,A,B\n"
            "2022-01-01T00:00:00Z,1,2\n"
            "2022-01-01T00:05:00Z,2,\n"
            "2022-01-01T00:10:00Z,4,8\n"
        )
        symbols, rets = aligned_log_returns(ingest_prices(f))
        assert symbols == ["A", "B"]
        assert rets.shape == (2, 1)
        assert rets[0, 0] == pytest.approx(math.log(4.0))


    def test_common_timeline_panel_and_cuts(self):
        # B misses t=600; the 3,000 s jump after t=900 is a gap (> 2 slots)
        a = PriceSeries("A", [0, 300, 600, 900, 3900, 4200], [1, 2, 3, 4, 5, 6])
        b = PriceSeries("B", [0, 300, 900, 3900, 4200, 4500], [10, 20, 40, 50, 60, 70])
        panel, cuts = common_timeline({"A": a, "B": b}, ["B", "A"])
        assert panel.tolist() == [[10, 20, 40, 50, 60], [1, 2, 4, 5, 6]]
        assert cuts == [0, 3, 5]

    def test_one_series_boundary_cuts_the_common_timeline(self):
        # only A has a gap, 900 -> 1800; B has no observation at 900, so the
        # gap lies inside the common step 600 -> 1800, which is cut
        a = PriceSeries("A", [0, 300, 600, 900, 1800, 2100, 2400], np.arange(1.0, 8.0))
        b = PriceSeries("B", [0, 300, 600, 1200, 1500, 1800, 2100, 2400], np.arange(1.0, 9.0))
        assert (a.periods(), b.periods()) == ([(0, 4), (4, 7)], [(0, 8)])
        for order in (["A", "B"], ["B", "A"]):
            _, cuts = common_timeline({"A": a, "B": b}, order)
            assert cuts == [0, 3, 6]
        _, rets = aligned_log_returns({"A": a, "B": b})
        assert rets.shape == (2, 4)
        assert rets[0].tolist() == pytest.approx(np.log([2 / 1, 3 / 2, 6 / 5, 7 / 6]).tolist())

    def test_returns_are_each_periods_log_diff_bit_for_bit(self):
        rng = np.random.default_rng(4)
        times = np.cumsum(rng.choice([300, 300, 300, 900], 2_000))
        a = PriceSeries("A", times, np.exp(rng.normal(0.0, 0.5, 2_000)))
        kept = times[rng.random(2_000) < 0.9]
        b = PriceSeries("B", kept, np.exp(rng.normal(0.0, 0.5, len(kept))))
        panel, cuts = common_timeline({"A": a, "B": b}, ["A", "B"])
        expected = np.concatenate([np.diff(np.log(panel[:, lo:hi]), axis=1)
                                   for lo, hi in zip(cuts, cuts[1:]) if hi - lo >= 2], axis=1)
        assert len(cuts) > 3
        assert np.array_equal(aligned_log_returns({"A": a, "B": b})[1], expected)

    def test_common_timeline_unknown_symbol(self):
        with pytest.raises(DataError, match="not in the dataset"):
            common_timeline({"A": PriceSeries("A", [0], [1.0])}, ["A", "Z"])


def t_loglik(x, nu, scale):
    return float(stats.t.logpdf(x, nu, 0.0, scale).sum())


class TestFitNu:
    """The Newton fit maximises the same location-0 likelihood as
    `scipy.stats.t.fit(x, floc=0)`, so it must land on the same nu."""

    @pytest.mark.parametrize("nu", [3.0, 5.0, 10.0, 30.0])
    def test_agrees_with_scipy(self, nu):
        x = np.random.default_rng(int(nu)).standard_t(nu, 100_000)
        x = (x - x.mean()) / x.std(ddof=1)
        ref_nu, _, ref_scale = stats.t.fit(x, floc=0.0)
        got = fit_nu(x)
        assert abs(got - ref_nu) <= 1e-3 * ref_nu
        # at its own nu, the profile likelihood is not below scipy's optimum
        _, _, scale = stats.t.fit(x, fdf=got, floc=0.0)
        assert t_loglik(x, got, scale) >= t_loglik(x, ref_nu, ref_scale) - 1e-6 * len(x)

    def test_gaussian_clamps_to_max(self):
        assert fit_nu(np.random.default_rng(1).standard_normal(100_000)) == NU_MAX

    def test_cauchy_clamps_to_min(self):
        assert fit_nu(np.random.default_rng(2).standard_cauchy(100_000)) == NU_MIN

    @pytest.mark.parametrize("bad", [[1.0, np.nan, -1.0], [1.0, np.inf, -1.0], [0.0, 0.0], []])
    def test_degenerate_input_rejected(self, bad):
        with pytest.raises(ModelError):
            fit_nu(np.array(bad))

    def test_deterministic(self):
        x = np.random.default_rng(7).standard_t(4.0, 20_000)
        assert fit_nu(x) == fit_nu(x.copy())


def _lbfgsb_objective(params, x2):
    """The mean negative log-likelihood of a location-0 Student-t with
    (nu, sigma^2) = exp(params), with its gradient, as the fit computed it
    before its Newton solve: on scipy's special functions."""
    nu, s2 = np.exp(params)
    z = x2 / (nu * s2)
    mean_log = float(np.log1p(z).mean())
    mean_frac = float((z / (1.0 + z)).mean())
    half = 0.5 * (nu + 1.0)
    value = (special.gammaln(0.5 * nu) - special.gammaln(half) + 0.5 * math.log(math.pi * nu)
             + 0.5 * params[1] + half * mean_log)
    d_nu = (0.5 * special.digamma(0.5 * nu) - 0.5 * special.digamma(half) + 0.5 / nu
            + 0.5 * mean_log - half / nu * mean_frac)
    return value, np.array([nu * d_nu, 0.5 - half * mean_frac])


def lbfgsb_nu(x):
    """The former `fit_nu`: L-BFGS-B from the same start, log nu bounded
    to the clamp."""
    x2 = np.square(x)
    lo, hi = math.log(NU_MIN), math.log(NU_MAX)
    result = optimize.minimize(
        _lbfgsb_objective, [math.log(5.0), math.log(x2.mean() * 3.0 / 5.0)], args=(x2,), jac=True,
        method="L-BFGS-B", bounds=[(lo, hi), (None, None)], options={"gtol": 1e-8})
    log_nu = float(result.x[0])
    return NU_MIN if log_nu <= lo else NU_MAX if log_nu >= hi else math.exp(log_nu)


def profile_objective(x, nu):
    """The objective at `nu`, minimised over sigma^2, with its final sum
    taken exactly (`math.fsum`): the scale's optimum is the root of the
    derivative in log sigma^2, which increases from 0.5 - (nu + 1)/2 to 0.5."""
    x2 = np.square(x)
    half = 0.5 * (nu + 1.0)

    def slope(b):
        z = x2 / (nu * math.exp(b))
        return 0.5 - half * float((z / (1.0 + z)).mean())

    positive = x2[x2 > 0.0]
    b = optimize.brentq(slope, math.log(positive.min() / nu) - 40.0,
                        math.log(positive.max() / nu) + 40.0, xtol=1e-14)
    z = x2 / (nu * math.exp(b))
    return (math.lgamma(0.5 * nu) - math.lgamma(half) + 0.5 * math.log(math.pi * nu)
            + 0.5 * b + half * math.fsum(np.log1p(z)) / len(z))


@pytest.fixture(scope="module")
def seed0_returns(tmp_path_factory):
    """Each asset's standardized returns of the seed-0 100,000-slot CSV."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic_prices.py"
    path = tmp_path_factory.mktemp("seed0") / "prices.csv"
    subprocess.run([sys.executable, str(script), "--slots", "100000", "--seed", "0",
                    "--out", str(path)], check=True, stdout=subprocess.DEVNULL)
    assets, returns = aligned_log_returns(ingest_prices(path))
    returns -= returns.mean(axis=1, keepdims=True)
    return dict(zip(assets, returns / returns.std(axis=1, ddof=1, keepdims=True)))


class TestFitNuAgainstLbfgsb:
    """The Newton fit against the L-BFGS-B solve it replaced, on the same
    likelihood: its profile objective is at most L-BFGS-B's, but for a
    rounding allowance of 1e-15 relative, and its nu lies within 1e-4
    relative of L-BFGS-B's, the clamps exactly. `check` returns the fitted
    nu and the number of likelihood evaluations it took."""

    @staticmethod
    def check(x):
        with mock.patch.object(riskmodel, "_t_objective", wraps=riskmodel._t_objective) as objective:
            got = fit_nu(x)
        ref = lbfgsb_nu(x)
        assert abs(got - ref) <= 1e-4 * ref
        if ref in (NU_MIN, NU_MAX):
            assert got == ref
        reference = profile_objective(x, ref)
        assert profile_objective(x, got) <= reference + 1e-15 * abs(reference)
        return got, objective.call_count

    @pytest.mark.parametrize("nu", [2.5, 4.0, 10.0, 30.0, 80.0, 500.0])
    def test_t_samples(self, nu):
        x = np.random.default_rng(20 + int(nu)).standard_t(nu, 50_000)
        self.check((x - x.mean()) / x.std(ddof=1))

    @pytest.mark.parametrize("asset", ["ADA", "AVAX", "BTC", "DOT", "ETH", "SOL", "TRX", "WBTC"])
    def test_seed0_assets(self, seed0_returns, asset):
        assert self.check(seed0_returns[asset])[1] <= 8

    @pytest.mark.parametrize("sample, clamp", [("normal", NU_MAX), ("cauchy", NU_MIN)])
    def test_clamps_hit_exactly(self, sample, clamp):
        # on the clamp a step moves log sigma^2 alone: a full step projected
        # onto the clamp took 39 and 50 evaluations here
        x = getattr(np.random.default_rng(3), f"standard_{sample}")(50_000)
        nu, evaluations = self.check(x)
        assert nu == clamp and evaluations <= 15


class TestEstimateModel:
    def test_recovers_t_dof(self):
        rng = np.random.default_rng(11)
        x = rng.standard_t(4.0, 100_000) * 0.01
        y = rng.standard_t(4.0, 100_000) * 0.015
        model = estimate_model(["P", "Q"], np.vstack([x, y]))
        assert np.all(model.nu >= 3.5) and np.all(model.nu <= 4.5)

    def test_gaussian_clamps_high(self):
        rng = np.random.default_rng(12)
        model = estimate_model(["G"], rng.standard_normal((1, 100_000)) * 0.01)
        assert model.nu[0] >= 100.0  # clamp ceiling is 200

    def test_zero_variance_rejected(self):
        with pytest.raises(ModelError, match="zero-variance"):
            estimate_model(["C"], np.zeros((1, 500)))

    def test_min_observations(self):
        with pytest.raises(ModelError):
            estimate_model(["X"], np.random.default_rng(0).normal(size=(1, 50)))

    @pytest.mark.parametrize("min_obs", [-1, 0, 1, 2])
    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_returns_rejected_at_any_min_obs(self, min_obs, n):
        # n - 1 divides the variance: at n = 1 numpy warned and fit_nu
        # refused the NaNs for the wrong cause
        with pytest.raises(ModelError, match=f"need at least 2 return observations, got {n}"):
            estimate_model(["X", "Y"], np.full((2, n), 0.01), min_obs=min_obs)

    def test_asset_named_twice_rejected(self):
        # a built model took the repeat, which only a loaded one refused
        x = np.random.default_rng(2).normal(size=(3, 300)) * 0.01
        with pytest.raises(ModelError, match="name each asset once, got 'A' twice"):
            estimate_model(["A", "B", "A"], x)

    def test_row_count_other_than_the_asset_count_rejected(self):
        rng = np.random.default_rng(0)
        for shape in [(1, 200), (3, 200), (200,), (2, 1, 200)]:
            with pytest.raises(ModelError, match="one row of returns per asset"):
                estimate_model(["A", "B"], rng.normal(size=shape))

    def test_matrix_is_centred_in_place(self):
        x = np.random.default_rng(4).normal(size=(2, 300)) + [[1.0], [-2.0]]
        centred = x - x.mean(axis=1, keepdims=True)
        estimate_model(["A", "B"], x)
        assert np.array_equal(x, centred)

    def test_moments_are_numpys_bit_for_bit(self):
        rng = np.random.default_rng(9)
        x = rng.standard_t(4.0, (3, 5_001)) * [[0.01], [0.02], [0.005]] + [[1e-4], [0.0], [-3e-4]]
        model = estimate_model(["A", "B", "C"], x.copy())
        assert np.array_equal(model.mu, x.mean(axis=1))
        assert np.array_equal(model.cov, np.cov(x, ddof=1))
        stds = x.std(axis=1, ddof=1)
        assert model.nu.tolist() == [fit_nu((row - m) / s) for row, m, s in zip(x, x.mean(axis=1), stds)]

    def test_roundtrip_json(self, tmp_path):
        rng = np.random.default_rng(5)
        model = estimate_model(["A", "B"], rng.normal(size=(2, 500)) * [[0.01], [0.02]])
        path = tmp_path / "model.json"
        path.write_text(json.dumps(model.to_json(), sort_keys=True))
        loaded = ReturnModel.load(path)
        assert loaded.assets == model.assets
        assert np.array_equal(loaded.cov, model.cov)
        assert np.array_equal(loaded.nu, model.nu)

    def test_fit_from_series(self, tmp_path):
        f = write_price_csv(tmp_path / "p.csv", ["BTC", "ETH"], slots=300, seed=3)
        model = fit_model_from_series(ingest_prices(f))
        assert model.assets == ["BTC", "ETH"]
        assert model.n_obs == 299


class TestCholesky:
    def test_known_factor(self):
        cov = np.array([[4.0, 2.0], [2.0, 3.0]])
        L = cholesky(cov)
        assert L == pytest.approx(np.array([[2.0, 0.0], [1.0, math.sqrt(2.0)]]))
        assert L @ L.T == pytest.approx(cov)

    def test_identity(self):
        assert np.array_equal(cholesky(np.eye(3)), np.eye(3))

    def test_indefinite_rejected(self):
        with pytest.raises(ModelError):
            cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))  # eigenvalue -1

    def test_asymmetric_rejected(self):
        with pytest.raises(ModelError):
            cholesky(np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_zero_matrix_exact(self):
        assert np.array_equal(cholesky(np.zeros((3, 3))), np.zeros((3, 3)))

    def test_singular_psd_gets_jitter(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])  # rank one
        L = cholesky(cov)
        assert np.linalg.norm(L @ L.T - cov) / np.linalg.norm(cov) < 1e-10


class TestSampler:
    def test_zero_covariance_zero_drift_gives_zeros(self):
        model = toy_model(np.zeros((2, 2)))
        r = sample_returns(model, 10, STUDENT_T, np.random.default_rng(0))
        assert np.array_equal(r, np.zeros((2, 10)))

    def test_perfect_correlation_duplicates_rows(self):
        s2 = 0.04
        model = toy_model([[s2, s2], [s2, s2]])
        r = sample_returns(model, 500, NORMAL, np.random.default_rng(1))
        assert np.allclose(r[0], r[1], atol=1e-4)

    def test_empirical_covariance_converges(self):
        rng0 = np.random.default_rng(2)
        a = rng0.normal(size=(3, 3))
        cov = a @ a.T + 0.5 * np.eye(3)
        model = toy_model(cov, nu=6.0)

        def err(n, seed):
            r = sample_returns(model, n, STUDENT_T, np.random.default_rng(seed))
            emp = np.cov(r, ddof=1)
            return np.linalg.norm(emp - cov) / np.linalg.norm(cov)

        coarse, fine = err(10_000, 3), err(1_000_000, 3)
        assert fine < 0.01
        assert fine < coarse  # ~1/sqrt(N) improvement

    def test_determinism(self):
        model = toy_model(np.eye(2) * 0.01)
        a = sample_returns(model, 50, STUDENT_T, np.random.default_rng(9))
        b = sample_returns(model, 50, STUDENT_T, np.random.default_rng(9))
        assert np.array_equal(a, b)

    def test_drift_added_per_slot(self):
        model = toy_model(np.zeros((1, 1)), mu=[0.5])
        r = sample_returns(model, 4, NORMAL, np.random.default_rng(0))
        assert np.array_equal(r, np.full((1, 4), 0.5))
        r0 = sample_returns(model, 4, NORMAL, np.random.default_rng(0), zero_drift=True)
        assert np.array_equal(r0, np.zeros((1, 4)))

    def test_low_dof_rejected(self):
        model = toy_model(np.eye(1), nu=2.0)
        with pytest.raises(ModelError):
            sample_returns(model, 5, STUDENT_T, np.random.default_rng(0))


def generic_model(m: int) -> ReturnModel:
    """A model with a dense, non-diagonal Cholesky factor, a drift and
    per-asset degrees of freedom."""
    rng = np.random.default_rng(100 + m)
    a = rng.normal(size=(m, m)) * 0.01
    model = toy_model(a @ a.T + 1e-5 * np.eye(m), mu=rng.normal(size=m) * 1e-4)
    model.nu = np.linspace(2.5, 30.0, m)
    return model


def einsum_reference(model, slots, distribution, rng, zero_drift):
    """The sampler as einsum defines it: the same draws, coloured by
    np.einsum("ij,jk->ik", chol, innovations) plus the drift."""
    m = len(model.assets)
    if distribution == NORMAL:
        innovations = rng.standard_normal((m, slots))
    else:
        innovations = np.empty((m, slots))
        for i, nu in enumerate(model.nu):
            innovations[i] = rng.standard_t(nu, slots) / math.sqrt(nu / (nu - 2.0))
    returns = np.einsum("ij,jk->ik", model.chol, innovations)
    if not zero_drift:
        returns = returns + model.mu[:, None]
    return returns


class TestColouringKernel:
    """`sample_returns` colours in place, block by block and row by row, in
    the sum order of np.einsum: its output is bit-identical to einsum's for
    every slot count above one."""

    B = riskmodel.COLOUR_BLOCK

    @pytest.mark.parametrize("m", [1, 8])
    @pytest.mark.parametrize("slots", [2, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("distribution", [NORMAL, STUDENT_T])
    @pytest.mark.parametrize("zero_drift", [False, True])
    def test_bit_identical_to_einsum(self, m, slots, distribution, zero_drift):
        model = generic_model(m)
        assert m == 1 or np.count_nonzero(np.tril(model.chol, -1)) == m * (m - 1) // 2
        got = sample_returns(model, slots, distribution, np.random.default_rng(slots), zero_drift)
        want = einsum_reference(model, slots, distribution, np.random.default_rng(slots), zero_drift)
        assert got.shape == (m, slots)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("slots", [1, 2 * B + 3])
    @pytest.mark.parametrize("distribution", [NORMAL, STUDENT_T])
    @pytest.mark.parametrize("zero_drift", [False, True])
    def test_first_rows_are_the_full_draws_rows(self, slots, distribution, zero_drift):
        # a normal draw fills rows in C order, the t draw goes asset by
        # asset, and row i is coloured from rows j <= i only
        model = generic_model(8)
        full = sample_returns(model, slots, distribution, np.random.default_rng(slots), zero_drift)
        for rows in (1, 5, 8):
            got = sample_returns(model, slots, distribution, np.random.default_rng(slots),
                                 zero_drift, rows)
            assert got.shape == (rows, slots)
            assert np.array_equal(got, full[:rows])

    def test_low_dof_beyond_the_rows_drawn_is_rejected(self):
        model = generic_model(3)
        model.nu = np.array([4.0, 5.0, 2.0])
        with pytest.raises(ModelError, match="got 2.0$"):
            sample_returns(model, 5, STUDENT_T, np.random.default_rng(0), rows=1)

    def test_one_slot_is_the_sequential_sum(self):
        # einsum's dot-product kernel takes over at one slot; the kernel's
        # sequential multiply-add is the defined result there
        model = generic_model(8)
        x = np.random.default_rng(0).standard_normal((8, 1))
        want = np.empty(8)
        for i in range(8):
            acc = model.chol[i, 0] * x[0, 0]
            for j in range(1, i + 1):
                acc += model.chol[i, j] * x[j, 0]
            want[i] = acc + model.mu[i]
        got = sample_returns(model, 1, NORMAL, np.random.default_rng(0))
        assert np.array_equal(got[:, 0], want)
