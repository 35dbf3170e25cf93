"""Operator-facing command line: ingestion, model fitting, failure
simulation, historical replay, portfolio optimization, protocol scenarios,
and the corrupted-oracle tail experiment.

Each subcommand reads its flags, normalising them in place on `args` as it
goes (comma lists parsed, `--prices` the file actually read, `--cap` its
effective value, the scenario file without its optional leading `run`), and
returns its payload and exit code. `main` then writes the one output: the
payload, the tool version, the configuration (the subcommand's name and every
flag except `--out`, `--csv` and `--jobs`, which change where a result goes or
how its work is split, not what it is), the SHA-256 of every input file read
(`input_sha256`) and the digest of that configuration and those hashes;
identical flags, input files and seed produce byte-identical files.
Exit codes: 0 success, 1 assertion/scenario failure, 2 usage error, which
includes an input file that is missing or not a file, and an output that
cannot be written (its directory is checked before the work starts).

Each subcommand, or the helper that reads its input, imports the engine it
runs when it runs: `scenario` and `oracle-tail` load no risk engine.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .errors import CrocodaiError

if TYPE_CHECKING:
    from .montecarlo import Portfolio
    from .riskmodel import PriceSeries, ReturnModel

DATA_ENV = "CROCODAI_DATA"
# the attributes of the parsed flags left out of the recorded configuration
NOT_CONFIG = ("func", "out", "csv", "jobs", "input_sha256")


class CliError(Exception):
    """Usage-level problem: bad paths, bad flag combinations (exit code 2)."""


def _input_file(args, dest: str, path, label: str) -> Path:
    """`path`, given as `label`, once it is known to be a regular file. Its
    SHA-256 is recorded as `args.input_sha256[dest]`, read in chunks, so a
    large file is never held whole."""
    path = Path(path)
    if not path.exists():
        raise CliError(f"{label} {path}: not found")
    if path.is_dir():
        raise CliError(f"{label} {path}: Is a directory")
    if not path.is_file():
        raise CliError(f"{label} {path}: not a regular file")
    try:
        with path.open("rb") as f:
            args.input_sha256[dest] = hashlib.file_digest(f, "sha256").hexdigest()
    except OSError as exc:
        raise CliError(f"{label} {path}: {exc.strerror}") from None
    return path


def _write(path: str, text: str, flag: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise CliError(f"{flag} {path}: cannot write: {exc.strerror}") from None


def _check_outputs(args) -> None:
    """Refuse an --out or --csv that cannot name a file before any work."""
    for flag in ("out", "csv"):
        path = getattr(args, flag, None)
        if not path:
            continue
        if Path(path).is_dir():
            raise CliError(f"--{flag} {path}: Is a directory")
        if not Path(path).parent.is_dir():
            raise CliError(f"--{flag} {path}: directory {Path(path).parent} not found")


def _read_prices(args) -> dict[str, PriceSeries]:
    """Ingest the price file, and record it as `args.prices`: `--prices`, or
    `$CROCODAI_DATA/prices.csv` when the flag is not given."""
    from .riskmodel import ingest_prices
    if not args.prices:
        root = os.environ.get(DATA_ENV)
        if not root:
            raise CliError(f"no --prices given and {DATA_ENV} is not set")
        args.prices = Path(root) / "prices.csv"
    path = _input_file(args, "prices", args.prices, "--prices")
    args.prices = str(path)
    return ingest_prices(path)


def _floats(text: str, flag: str) -> list[float]:
    """Parse a comma-separated list of finite numbers given to `flag`."""
    try:
        values = [float(x) for x in text.split(",")]
    except ValueError:
        raise CliError(f"{flag}: not a comma-separated list of numbers: {text!r}") from None
    if not np.isfinite(values).all():  # json.dumps would write them as Infinity or NaN
        raise CliError(f"{flag}: every number must be finite, got {text!r}")
    return values


def _load_model(args) -> ReturnModel:
    from .riskmodel import ReturnModel, fit_model_from_series
    args.symbols = args.symbols.split(",") if args.symbols else None
    if args.model:
        return ReturnModel.load(_input_file(args, "model", args.model, "--model"))
    return fit_model_from_series(_read_prices(args), args.symbols, min_obs=args.min_obs)


def _portfolio(args) -> Portfolio:
    from .montecarlo import Portfolio, builtin_portfolio
    spec = args.portfolio
    if spec.endswith(".json"):
        path = _input_file(args, "portfolio", spec, "--portfolio")
        try:
            doc = json.loads(path.read_text())
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CliError(f"portfolio file {path}: not valid JSON: {exc}") from None
        weights = doc.get("weights") if isinstance(doc, dict) else None
        if not isinstance(weights, dict):
            raise CliError(f"portfolio file {path}: $.weights must be an object of asset weights")
        name = doc.get("name", path.stem)
        if not isinstance(name, str):
            raise CliError(f"portfolio file {path}: $.name must be a string, got {name!r}")
        for asset, w in weights.items():
            if isinstance(w, bool) or not isinstance(w, (int, float)):
                raise CliError(f"portfolio file {path}: $.weights.{asset} is not a number: {w!r}")
        return Portfolio.from_weights(name, weights)
    try:
        return builtin_portfolio(spec)
    except CrocodaiError:
        raise CliError(
            f"unknown portfolio {spec!r}: use a builtin name or a .json weights file"
        ) from None


# ----------------------------------------------------------------------
# subcommands: each returns (payload, exit code)


def cmd_ingest(args) -> tuple[dict, int]:
    series = _read_prices(args)
    summary = {
        sym: {
            "observations": len(s),
            "periods": len(s.periods()),
            "first": int(s.times[0]) if len(s) else None,
            "last": int(s.times[-1]) if len(s) else None,
        }
        for sym, s in sorted(series.items())
    }
    return {"symbols": summary}, 0


def cmd_fit(args) -> tuple[dict, int]:
    return {"model": _load_model(args).to_json()}, 0


def cmd_simulate(args) -> tuple[dict, int]:
    from .montecarlo import table_sweep
    from .riskmodel import NORMAL, STUDENT_T
    args.gamma_prime = _floats(args.gamma_prime, "--gamma-prime")
    model = _load_model(args)
    result = table_sweep(
        [_portfolio(args)],
        args.gamma_prime,
        model,
        theta=args.theta,
        horizon=args.horizon,
        runs=args.n,
        distribution=STUDENT_T if args.method == "t" else NORMAL,
        seed=args.seed,
        zero_drift=args.zero_drift,
        jobs=args.jobs,
    )
    if args.csv:
        _write(args.csv, result.to_csv(), "--csv")
    return {"results": result.as_json()}, 0


def cmd_replay(args) -> tuple[dict, int]:
    from .montecarlo import historical_replay
    args.gamma_prime = gammas = _floats(args.gamma_prime, "--gamma-prime")
    series = _read_prices(args)
    portfolio = _portfolio(args)
    result = historical_replay(portfolio, series, gammas, args.theta, args.horizon)
    rows = {str(g): result.estimates[(g, portfolio.name)].as_json() for g in gammas}
    return {"results": rows}, 0


def cmd_optimize(args) -> tuple[dict, int]:
    from .montecarlo import PEGGED_SYMBOLS, UNIVERSES
    from .optimizer import QpProblem, debt_ceilings_from, min_variance
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
    problem = QpProblem(cov=cov, caps=caps)
    solution = min_variance(problem)
    ceilings = debt_ceilings_from(solution.weights, args.beta)
    payload = {
        "weights": {s: float(w) for s, w in zip(symbols, solution.weights)},
        "objective": solution.objective,
        "kkt_residual": solution.kkt_residual,
        "iterations": solution.iterations,
        "debt_ceilings": {s: float(z) for s, z in zip(symbols, ceilings)},
    }
    return payload, 0


def cmd_scenario(args) -> tuple[dict, int]:
    from .scenarios import run_scenario_file
    tokens = list(args.file)
    if tokens and tokens[0] == "run":  # `scenario run file.json` form
        tokens = tokens[1:]
    if len(tokens) != 1:
        raise CliError("usage: crocodai scenario [run] <file.json>")
    path = _input_file(args, "file", tokens[0], "scenario file")
    args.file = str(path)
    report = run_scenario_file(path)
    return {"report": report}, 0 if report["passed"] else 1


def cmd_oracle_tail(args) -> tuple[dict, int]:
    from .oracle import tail_probability_experiment
    args.c = _floats(args.c, "--c")
    rng = np.random.default_rng(args.seed)
    rows = []
    ok = True
    for c in args.c:
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
        ok &= est.within_bound
    return {"results": rows, "within_bound": ok}, 0 if ok else 1


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
    args = build_parser().parse_args(argv)
    args.input_sha256 = {}
    try:
        _check_outputs(args)
        if getattr(args, "seed", 0) < 0:  # before any ingest or fit
            raise CliError(f"--seed: must be >= 0, got {args.seed}")
        payload, code = args.func(args)
        config = {k: v for k, v in vars(args).items() if k not in NOT_CONFIG}
        identity = {"config": config, "input_sha256": args.input_sha256}
        blob = json.dumps(identity, sort_keys=True, separators=(",", ":"))
        payload.update(tool_version=__version__, **identity,
                       config_digest=hashlib.sha256(blob.encode()).hexdigest()[:16])
        text = json.dumps(payload, sort_keys=True, indent=2, default=str) + "\n"
        if args.out:
            _write(args.out, text, "--out")
        else:
            sys.stdout.write(text)
    except (CliError, CrocodaiError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
