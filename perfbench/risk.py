"""Risk-engine workloads: `mc-table` and `risk-cli`.

Both read the same synthetic price CSV, made by the repository's own
generator (`scripts/make_synthetic_prices.py --slots 100000`, 8 symbols)
from the benchmark seed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

from crocodai import cli, montecarlo, riskmodel, scenarios
from crocodai.riskmodel import NU_MAX, NU_MIN, STUDENT_T

from common import PassResult, clock, mark, since

PRICE_SLOTS = 100_000
GAMMAS = (1.2, 1.3, 1.4, 1.5)
THETA = 1.1
HORIZON = 288


def make_prices(root: Path, work: Path, seed: int) -> Path:
    out = work / "prices.csv"
    subprocess.run(
        [sys.executable, str(root / "scripts" / "make_synthetic_prices.py"),
         "--slots", str(PRICE_SLOTS), "--seed", str(seed), "--out", str(out)],
        check=True, stdout=subprocess.DEVNULL, timeout=120,
    )
    return out


def _monotone_cells(cells: dict, names, gammas, runs: int) -> list[str]:
    """Invariants of a failure table, given as (gamma', portfolio) ->
    (probability, failures): probabilities in [0, 1], and under common
    random numbers never increasing down the gamma' rows."""
    problems = []
    for name in names:
        last = None
        for g in gammas:
            probability, failures = cells[(g, name)]
            if not (0.0 <= probability <= 1.0 and 0 <= failures <= runs):
                problems.append(f"{name} @ {g}: probability {probability} out of range")
            if last is not None and probability > last:
                problems.append(f"{name} @ {g}: {probability} > {last} at the lower gamma'")
            last = probability
    return problems


class McTable:
    """The paper's failure table: 6 portfolios x 4 gamma', 4,096 t-runs each."""

    name = "mc-table"
    PORTFOLIOS = ("C-Mix1", "C-Mix2", "C-Opt")
    SINGLE = ("BTC", "ETH", "SOL")
    RUNS = 4096
    MIN_PASSES = 2
    SPANS = ("montecarlo.table_sweep",)

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed, self.root, self.work = seed, root, work

    def sizes(self) -> dict:
        return {"price_slots": PRICE_SLOTS, "symbols": 8, "portfolios": 6, "gammas": len(GAMMAS),
                "runs": self.RUNS, "horizon": HORIZON, "distribution": STUDENT_T, "jobs": 1}

    def prepare(self) -> None:
        series = riskmodel.ingest_prices(make_prices(self.root, self.work, self.seed))
        self.model = riskmodel.fit_model_from_series(series)
        self.portfolios = [scenarios.builtin_portfolio(n) for n in self.PORTFOLIOS] + [
            montecarlo.Portfolio.from_weights(a, {a: 1.0}) for a in self.SINGLE
        ]

    def _sweep(self, portfolios, runs: int, jobs: int):
        return montecarlo.table_sweep(
            portfolios, GAMMAS, self.model, theta=THETA, horizon=HORIZON, runs=runs,
            distribution=STUDENT_T, seed=self.seed, common_random_numbers=True, jobs=jobs,
        )

    def run_pass(self, tracer=None) -> PassResult:
        begin = mark()
        result = self._sweep(self.portfolios, self.RUNS, jobs=1)
        step = since(begin)
        start, wall = begin[0], step[0]
        names = [p.name for p in self.portfolios]
        cells = {k: (e.probability, e.failures) for k, e in result.estimates.items()}
        problems = _monotone_cells(cells, names, GAMMAS, self.RUNS)
        digest = hashlib.sha256(json.dumps(result.as_json(), sort_keys=True).encode()).hexdigest()
        return PassResult(start=start, wall=wall, steps=[step], ops=len(names) * self.RUNS,
                          attempted=len(result.estimates), failed=len(problems),
                          failures=problems, digest=digest)

    def final_checks(self) -> list[str]:
        """Parallel and serial sweeps must agree bit for bit. Not timed: on two
        shared cores the speed-up would measure the scheduler."""
        small = self.portfolios[1:3]
        serial = self._sweep(small, 2048, jobs=1).as_json()
        parallel = self._sweep(small, 2048, jobs=2).as_json()
        return [] if serial == parallel else ["table_sweep with jobs=2 differs from jobs=1"]


class RiskCli:
    """The operator's flow, as in-process `crocodai.cli.main` calls."""

    name = "risk-cli"
    SIM_RUNS = 4096
    MIN_PASSES = 2
    SPANS = ("cli.ingest", "cli.fit", "cli.simulate", "cli.replay", "cli.optimize",
             "cli.oracle_tail", "riskmodel.ingest_prices", "riskmodel.fit_model_from_series",
             "riskmodel.aligned_log_returns", "riskmodel.estimate_model", "riskmodel.fit_nu",
             "montecarlo.table_sweep", "montecarlo.historical_replay", "optimizer.min_variance",
             "oracle.tail_probability_experiment")

    def __init__(self, seed: int, root: Path, work: Path):
        self.seed, self.root, self.work = seed, root, work

    def sizes(self) -> dict:
        return {"price_slots": PRICE_SLOTS, "symbols": 8, "simulate_runs": self.SIM_RUNS,
                "simulate_method": "normal", "replay_gammas": len(GAMMAS),
                "oracle_trials": 1_000_000, "oracle_cs": 4}

    def prepare(self) -> None:
        self.prices = make_prices(self.root, self.work, self.seed)
        self.out = self.work / "cli"
        self.out.mkdir(exist_ok=True)
        # first numpy/scipy calls, so the timed passes pay no lazy set-up
        sample = np.random.default_rng(0).standard_t(5.0, 2000)
        stats.t.fit(sample, floc=0.0)
        np.linalg.cholesky(np.eye(3))
        np.einsum("ij,jtn->itn", np.eye(2), np.ones((2, 3, 4)))

    def commands(self) -> list[tuple[str, list[str]]]:
        out, prices, seed = self.out, str(self.prices), str(self.seed)
        model = str(out / "model.json")
        return [
            ("cli.ingest", ["ingest", "--prices", prices, "--out", str(out / "ingest.json")]),
            ("cli.fit", ["fit", "--prices", prices, "--out", model]),
            ("cli.simulate", ["simulate", "--model", model, "--portfolio", "C-Mix2",
                              "--method", "normal", "--n", str(self.SIM_RUNS), "--seed", seed,
                              "--out", str(out / "simulate.json")]),
            ("cli.replay", ["replay", "--prices", prices, "--portfolio", "C-Mix2",
                            "--out", str(out / "replay.json")]),
            ("cli.optimize", ["optimize", "--model", model, "--universe", "C",
                              "--out", str(out / "optimize.json")]),
            ("cli.oracle_tail", ["oracle-tail", "--seed", seed, "--out", str(out / "oracle_tail.json")]),
        ]

    def run_pass(self, tracer=None) -> PassResult:
        steps, problems, digest = [], [], hashlib.sha256()
        for path in self.out.glob("*.json"):
            path.unlink()
        start = clock()
        for name, argv in self.commands():
            span = tracer.span(name) if tracer is not None else contextlib.nullcontext()
            t0 = mark()
            try:
                with span:
                    code = cli.main(argv)
            except Exception as exc:  # a traceback is a failed subcommand, not a crash of the run
                code = f"{type(exc).__name__}: {exc}"
            steps.append(since(t0))
            if code != 0:
                problems.append(f"{name}: exit {code}")
        wall = clock() - start
        for path in sorted(self.out.glob("*.json")):
            digest.update(path.read_bytes())
        problems += self._check_outputs()
        return PassResult(start=start, wall=wall, steps=steps, ops=len(steps),
                          attempted=len(steps), failed=len(problems), failures=problems,
                          digest=digest.hexdigest())

    def _check_outputs(self) -> list[str]:
        problems = []

        def load(name):
            path = self.out / f"{name}.json"
            return json.loads(path.read_text()) if path.exists() else None

        ingest = load("ingest")
        if not ingest or any(s["observations"] <= 0 for s in ingest["symbols"].values()):
            problems.append("ingest: missing or empty series")
        model = load("model")
        nus = model["model"]["nu"] if model else []
        if not nus or not all(NU_MIN <= nu <= NU_MAX for nu in nus):
            problems.append(f"fit: nu outside [{NU_MIN}, {NU_MAX}]: {nus}")
        sim = load("simulate")
        if sim is None:
            problems.append("simulate: no output")
        else:
            cells = {(c["gamma_prime"], "C-Mix2"): (c["probability"], c["failures"])
                     for c in sim["results"]["cells"].values()}
            problems += _monotone_cells(cells, ["C-Mix2"], sorted(g for g, _ in cells), self.SIM_RUNS)
        replay = load("replay")
        if not replay or not all(r["runs"] > 0 for r in replay["results"].values()):
            problems.append("replay: a gamma' saw no window")
        opt = load("optimize")
        if opt is None or not opt["kkt_residual"] <= 1e-6:
            problems.append(f"optimize: KKT residual {opt and opt['kkt_residual']} > 1e-6")
        elif abs(sum(opt["weights"].values()) - 1.0) > 1e-9 or min(opt["weights"].values()) < 0:
            problems.append(f"optimize: weights {opt['weights']} are not a portfolio")
        tail = load("oracle_tail")
        if not tail or not tail["within_bound"]:
            problems.append("oracle-tail: empirical tail above the bound")
        return problems

    def final_checks(self) -> list[str]:
        return []
