"""Operator-facing command line: ingestion, model fitting, failure
simulation, historical replay, portfolio optimization, protocol scenarios,
and the corrupted-oracle tail experiment.

Every output embeds the tool version and a digest of the effective
configuration; identical flags and seed produce byte-identical files.
Exit codes: 0 success, 1 assertion/scenario failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import CrocodaiError
from .montecarlo import Portfolio, historical_replay, table_sweep
from .optimizer import QpProblem, debt_ceilings_from, min_variance
from .oracle import tail_probability_experiment
from .riskmodel import (
    NORMAL,
    STUDENT_T,
    ReturnModel,
    fit_model_from_series,
    ingest_prices,
)
from .scenarios import PEGGED_SYMBOLS, UNIVERSES, builtin_portfolio, run_scenario_file

DATA_ENV = "CROCODAI_DATA"


class CliError(Exception):
    """Usage-level problem: bad paths, bad flag combinations (exit code 2)."""


def _config_digest(config: dict) -> str:
    blob = json.dumps(config, sort_keys=True, separators=(",", ":"), default=str)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _write_json(path: str | None, payload: dict, config: dict) -> None:
    payload = dict(payload)
    payload["tool_version"] = __version__
    payload["config"] = config
    payload["config_digest"] = _config_digest(config)
    text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _prices_path(args) -> Path:
    if getattr(args, "prices", None):
        path = Path(args.prices)
        if not path.exists():
            raise CliError(f"price file not found: {path}")
        return path
    root = os.environ.get(DATA_ENV)
    if root:
        candidate = Path(root) / "prices.csv"
        if candidate.exists():
            return candidate
        raise CliError(f"{DATA_ENV} is set but {candidate} does not exist")
    raise CliError(f"no --prices given and {DATA_ENV} is not set")


def _floats(text: str, flag: str) -> list[float]:
    """Parse a comma-separated list of numbers given to `flag`."""
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise CliError(f"{flag}: not a comma-separated list of numbers: {text!r}") from None


def _load_model(args) -> ReturnModel:
    if getattr(args, "model", None):
        path = Path(args.model)
        if not path.exists():
            raise CliError(f"model file not found: {path}")
        return ReturnModel.load(path)
    series = ingest_prices(_prices_path(args))
    symbols = args.symbols.split(",") if getattr(args, "symbols", None) else None
    return fit_model_from_series(series, symbols, min_obs=args.min_obs)


def _portfolio(args, model: ReturnModel | None = None) -> Portfolio:
    spec = args.portfolio
    if spec.endswith(".json"):
        path = Path(spec)
        if not path.exists():
            raise CliError(f"portfolio file not found: {path}")
        try:
            doc = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CliError(f"portfolio file {path}: not valid JSON: {exc}") from None
        weights = doc.get("weights") if isinstance(doc, dict) else None
        if not isinstance(weights, dict):
            raise CliError(f"portfolio file {path}: $.weights must be an object of asset weights")
        for asset, w in weights.items():
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise CliError(f"portfolio file {path}: $.weights.{asset} is not a number: {w!r}")
        return Portfolio.from_weights(doc.get("name", path.stem), weights)
    try:
        return builtin_portfolio(spec)
    except CrocodaiError:
        raise CliError(
            f"unknown portfolio {spec!r}: use a builtin name or a .json weights file"
        ) from None


# ----------------------------------------------------------------------
# subcommands


def cmd_ingest(args) -> int:
    series = ingest_prices(_prices_path(args))
    summary = {
        sym: {
            "observations": len(s),
            "periods": len(s.periods()),
            "first": int(s.times[0]),
            "last": int(s.times[-1]),
        }
        for sym, s in sorted(series.items())
    }
    _write_json(args.out, {"symbols": summary}, {"command": "ingest", "prices": str(_prices_path(args))})
    return 0


def cmd_fit(args) -> int:
    model = _load_model(args)
    config = {
        "command": "fit",
        "symbols": model.assets,
        "min_obs": args.min_obs,
    }
    _write_json(args.out, {"model": model.to_json()}, config)
    return 0


def cmd_simulate(args) -> int:
    gammas = _floats(args.gamma_prime, "--gamma-prime")
    model = _load_model(args)
    portfolio = _portfolio(args, model)
    result = table_sweep(
        [portfolio],
        gammas,
        model,
        theta=args.theta,
        horizon=args.horizon,
        runs=args.n,
        distribution=STUDENT_T if args.method == "t" else NORMAL,
        seed=args.seed,
        zero_drift=args.zero_drift,
        jobs=args.jobs,
    )
    config = {
        "command": "simulate",
        "portfolio": portfolio.name,
        "gamma_prime": gammas,
        "theta": args.theta,
        "horizon": args.horizon,
        "n": args.n,
        "method": args.method,
        "seed": args.seed,
        "zero_drift": args.zero_drift,
    }
    if args.csv:
        Path(args.csv).write_text(result.to_csv())
    _write_json(args.out, {"results": result.as_json()}, config)
    return 0


def cmd_replay(args) -> int:
    gammas = _floats(args.gamma_prime, "--gamma-prime")
    series = ingest_prices(_prices_path(args))
    portfolio = _portfolio(args)
    rows = {}
    for g in gammas:
        est = historical_replay(portfolio, series, g, args.theta, args.horizon)
        rows[str(g)] = est.as_json()
    config = {
        "command": "replay",
        "portfolio": portfolio.name,
        "gamma_prime": gammas,
        "theta": args.theta,
        "horizon": args.horizon,
    }
    _write_json(args.out, {"results": rows}, config)
    return 0


def cmd_optimize(args) -> int:
    model = _load_model(args)
    # default caps mirror the reference choices: 0.1 for the open universe,
    # 0.2 for the curated ones
    if args.cap is None:
        args.cap = 0.1 if args.universe == "A" else 0.2
    if args.universe:
        if args.universe == "A":
            symbols = [s for s in model.assets if s not in PEGGED_SYMBOLS]
        elif args.universe in UNIVERSES:
            symbols = [s for s in UNIVERSES[args.universe] if s in model.assets]
        else:
            raise CliError(f"unknown universe {args.universe!r}; have D, C, A")
        if not symbols:
            raise CliError(f"universe {args.universe!r} has no overlap with the model assets")
    else:
        symbols = list(model.assets)
    idx = model.index_of(symbols)
    cov = model.cov[np.ix_(idx, idx)]
    caps = np.full(len(symbols), args.cap)
    problem = QpProblem(cov=cov, caps=caps, assets=tuple(symbols))
    solution = min_variance(problem)
    ceilings = debt_ceilings_from(solution.weights, args.beta)
    config = {
        "command": "optimize",
        "universe": args.universe or "all",
        "cap": args.cap,
        "beta": args.beta,
        "symbols": symbols,
    }
    payload = {
        "weights": {s: float(w) for s, w in zip(symbols, solution.weights)},
        "objective": solution.objective,
        "kkt_residual": solution.kkt_residual,
        "iterations": solution.iterations,
        "debt_ceilings": {s: float(z) for s, z in zip(symbols, ceilings)},
    }
    _write_json(args.out, payload, config)
    return 0


def cmd_scenario(args) -> int:
    tokens = list(args.file)
    if tokens and tokens[0] == "run":  # `scenario run file.json` form
        tokens = tokens[1:]
    if len(tokens) != 1:
        raise CliError("usage: crocodai scenario [run] <file.json>")
    path = Path(tokens[0])
    if not path.exists():
        raise CliError(f"scenario file not found: {path}")
    report = run_scenario_file(path)
    _write_json(args.out, {"report": report}, {"command": "scenario", "file": str(path)})
    return 0 if report["passed"] else 1


def cmd_oracle_tail(args) -> int:
    rng = np.random.default_rng(args.seed)
    rows = []
    ok = True
    for c in _floats(args.c, "--c"):
        est = tail_probability_experiment(
            args.feeds, args.corrupt, args.sigma, c, args.trials, rng
        )
        rows.append(
            {
                "c": est.c,
                "empirical": est.empirical,
                "bound": est.bound,
                "exceedances": est.exceedances,
            }
        )
        if c >= 2 * args.sigma and est.empirical > est.bound:
            ok = False
    config = {
        "command": "oracle-tail",
        "feeds": args.feeds,
        "corrupt": args.corrupt,
        "sigma": args.sigma,
        "c": args.c,
        "trials": args.trials,
        "seed": args.seed,
    }
    _write_json(args.out, {"results": rows, "within_bound": ok}, config)
    return 0 if ok else 1


# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crocodai",
        description="Multi-chain stablecoin simulator and de-peg risk toolkit",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_prices(p):
        p.add_argument("--prices", help=f"price CSV (default: $'{DATA_ENV}'/prices.csv)")

    def add_model(p):
        add_prices(p)
        p.add_argument("--model", help="fitted model JSON (skips fitting)")
        p.add_argument("--symbols", help="comma-separated symbol subset to fit")
        p.add_argument("--min-obs", type=int, default=100, dest="min_obs")

    p = sub.add_parser("ingest", help="parse a price CSV and summarize the series")
    add_prices(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_ingest)

    p = sub.add_parser("fit", help="fit the correlated return model")
    add_model(p)
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("simulate", help="Monte Carlo failure probabilities")
    add_model(p)
    p.add_argument("--portfolio", required=True, help="builtin name or weights .json")
    p.add_argument("--gamma-prime", default="1.2,1.3,1.4,1.5", dest="gamma_prime")
    p.add_argument("--theta", type=float, default=1.1)
    p.add_argument("--n", type=int, default=100_000)
    p.add_argument("--horizon", type=int, default=288)
    p.add_argument("--method", choices=["t", "normal"], default="t")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--zero-drift", action="store_true", dest="zero_drift")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--out")
    p.add_argument("--csv", help="also write the result table as CSV")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("replay", help="historical rolling-window failure rates")
    add_prices(p)
    p.add_argument("--portfolio", required=True)
    p.add_argument("--gamma-prime", default="1.2,1.3,1.4,1.5", dest="gamma_prime")
    p.add_argument("--theta", type=float, default=1.1)
    p.add_argument("--horizon", type=int, default=288)
    p.add_argument("--out")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("optimize", help="minimum-variance collateral portfolio")
    add_model(p)
    p.add_argument("--universe", choices=["D", "C", "A"], help="restrict to a known universe")
    p.add_argument("--cap", "--lambda", dest="cap", type=float, default=None,
                   help="per-asset weight cap (default 0.2, or 0.1 for universe A)")
    p.add_argument("--beta", type=float, default=0.1, help="flexibility margin for ceilings")
    p.add_argument("--out")
    p.set_defaults(func=cmd_optimize)

    p = sub.add_parser("scenario", help="run a protocol scenario file")
    p.add_argument("file", nargs="+", help="scenario file (an optional leading 'run' is accepted)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("oracle-tail", help="corrupted-feed median tail experiment")
    p.add_argument("--feeds", type=int, default=5)
    p.add_argument("--corrupt", type=int, default=2)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--c", default="2,3,4,5")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle_tail)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (CliError, CrocodaiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
