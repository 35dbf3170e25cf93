#!/usr/bin/env python3
"""Fit the return model on a price CSV and produce the failure-probability
table (portfolios x initial over-collateralization levels), plus the
minimum-variance portfolio and its derived debt ceilings.

Uses CROCODAI_DATA/prices.csv when --prices is not given.
"""

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from crocodai.errors import CrocodaiError
from crocodai.montecarlo import BUILTIN_PORTFOLIOS, Portfolio, builtin_portfolio, table_sweep
from crocodai.optimizer import QpProblem, debt_ceilings_from, min_variance
from crocodai.riskmodel import fit_model_from_series, ingest_prices


def tables(args, prices: Path) -> None:
    model = fit_model_from_series(ingest_prices(prices))
    # built before the sweep, so an infeasible --cap is refused before any work
    qp = QpProblem(cov=model.cov, caps=np.full(len(model.assets), args.cap))
    print(f"fitted {len(model.assets)} assets over {model.n_obs} joint return slots")

    portfolios = []
    for name in BUILTIN_PORTFOLIOS:
        p = builtin_portfolio(name)
        if all(a in model.assets for a in p.assets):
            portfolios.append(p)
    for sym in model.assets:
        portfolios.append(Portfolio(sym, (sym,), np.array([1.0])))
    print("portfolios:", ", ".join(p.name for p in portfolios))

    sweep = table_sweep(
        portfolios, [1.2, 1.3, 1.4, 1.5], model,
        theta=args.theta, horizon=args.horizon, runs=args.runs, seed=args.seed,
    )
    csv_path = Path(f"{args.out_prefix}_table.csv")
    csv_path.write_text(sweep.to_csv())
    Path(f"{args.out_prefix}_table.json").write_text(json.dumps(sweep.as_json(), indent=2))
    print(f"failure table -> {csv_path}")
    print(sweep.to_csv())

    solution = min_variance(qp)
    ceilings = debt_ceilings_from(solution.weights, beta=0.1)
    weights = {a: round(float(w), 5) for a, w in zip(model.assets, solution.weights) if w > 1e-6}
    print(f"min-variance portfolio (cap {args.cap}):", weights)
    print("debt ceilings:", {a: round(float(z), 5) for a, z in zip(model.assets, ceilings) if z > 1e-6})


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--prices")
    parser.add_argument("--theta", type=float, default=1.1)
    parser.add_argument("--horizon", type=int, default=288)
    parser.add_argument("--runs", type=int, default=100_000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--cap", type=float, default=0.2)
    parser.add_argument("--out-prefix", default="risk")
    args = parser.parse_args(argv)

    prices = Path(args.prices or os.path.join(os.environ.get("CROCODAI_DATA", "."), "prices.csv"))
    out_dir = Path(f"{args.out_prefix}_table.csv").parent
    problem = None
    if prices.is_dir():
        problem = f"--prices {prices}: Is a directory"
    elif not prices.exists():
        problem = f"--prices {prices}: not found"
    elif not out_dir.is_dir():
        problem = f"--out-prefix {args.out_prefix}: directory {out_dir} not found"
    else:
        try:
            tables(args, prices)
        except CrocodaiError as exc:  # a CSV or a flag that ingest, fit, QP or sweep refuses
            problem = str(exc)
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    return 0

if __name__ == "__main__":
    sys.exit(main())
