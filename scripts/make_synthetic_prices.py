#!/usr/bin/env python3
"""Generate a synthetic 5-minute price CSV so the full pipeline can be
exercised without the original dataset.

Writes correlated heavy-tailed paths for a handful of symbols, with one
multi-hour gap to exercise the period-boundary handling. The same flags,
seed and numpy give the same bytes.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

SYMBOLS = ["BTC", "ETH", "WBTC", "ADA", "DOT", "TRX", "AVAX", "SOL"]
START = np.datetime64("2022-08-26T02:00:00", "s")
STEP_S = 5 * 60
GAP_S = 6 * 60 * 60
# rows formatted and written at a time, so the text is never held whole
BLOCK_ROWS = 8192


def draw_prices(slots: int, seed: int) -> np.ndarray:
    """The price paths, one row per symbol and one column per slot."""
    rng = np.random.default_rng(seed)
    m = len(SYMBOLS)
    base_corr = 0.65 * np.ones((m, m)) + 0.35 * np.eye(m)
    vols = rng.uniform(0.002, 0.008, m)
    cov = base_corr * np.outer(vols, vols)
    chol = np.linalg.cholesky(cov)

    nu = 4.0
    shocks = rng.standard_t(nu, (m, slots)) / np.sqrt(nu / (nu - 2.0))
    returns = chol @ shocks
    return 100.0 * np.exp(np.cumsum(returns, axis=1))


def stamps(slots: int, gap_at: int) -> np.ndarray:
    """Each slot's time in epoch seconds: 5 minutes apart, and 6 hours more
    after slot `gap_at` when it is one of the slots; any other `gap_at`
    means no gap."""
    seconds = START.astype(np.int64) + STEP_S * np.arange(slots, dtype=np.int64)
    if 0 <= gap_at < slots:
        seconds[gap_at + 1:] += GAP_S
    return seconds


def write_csv(f, prices: np.ndarray, seconds: np.ndarray) -> None:
    """Write the header and one `<UTC second>Z,<price>,...` row per slot,
    each price with six decimals (`'%.6f' % x` is `f"{x:.6f}"`). Each block
    of rows is one `%` against the row template repeated once per row."""
    f.write("timestamp," + ",".join(SYMBOLS) + "\n")
    row = "%sZ," + ",".join(["%.6f"] * len(prices)) + "\n"
    for lo in range(0, len(seconds), BLOCK_ROWS):
        hi = lo + BLOCK_ROWS
        block = np.empty((len(seconds[lo:hi]), 1 + len(prices)), dtype=object)
        block[:, 0] = np.datetime_as_string(seconds[lo:hi].astype("datetime64[s]"), unit="s")
        block[:, 1:] = prices[:, lo:hi].T
        f.write(row * len(block) % tuple(block.flat))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="synthetic_prices.csv")
    parser.add_argument("--slots", type=int, default=5000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--gap-at", type=int, default=2500)
    args = parser.parse_args(argv)

    out = Path(args.out)
    problem = None
    if args.slots < 0:
        problem = f"--slots {args.slots}: must be >= 0"
    elif out.is_dir():
        problem = f"--out {args.out}: Is a directory"
    elif not out.parent.is_dir():
        problem = f"--out {args.out}: directory {out.parent} not found"
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    prices = draw_prices(args.slots, args.seed)
    try:
        with out.open("w") as f:
            write_csv(f, prices, stamps(args.slots, args.gap_at))
    except OSError as exc:
        print(f"error: --out {args.out}: cannot write: {exc.strerror}", file=sys.stderr)
        return 2
    print(f"wrote {args.slots} slots x {len(SYMBOLS)} symbols to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
