"""In-memory spans around calls into the package, for the traced run.

The benchmark never edits the package: it replaces public names in the
namespaces where callers look them up (``crocodai.cli.table_sweep`` as well as
``crocodai.montecarlo.table_sweep``) with wrappers that record one span per
call. It does so in the child process that runs the traced pass, so the
originals never need putting back. A span is
``[name, start, end, parent, pass_id, error]``; ``parent`` is the index of
the enclosing span or -1 for a top-level span.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from pathlib import Path

from common import clock


def _table_sweep_counts(counters, result):
    cells = list(result.estimates.values())
    counters["montecarlo.table_sweep.paths"] += len(result.portfolios) * cells[0].runs
    counters["montecarlo.failures"] += sum(e.failures for e in cells)


def _replay_counts(counters, result):
    counters["montecarlo.historical_replay.windows"] += result.runs


def _ingest_counts(counters, result):
    counters["riskmodel.ingest_prices.rows"] += max(len(s) for s in result.values())


def _min_variance_counts(counters, result):
    counters["optimizer.min_variance.iterations"] += result.iterations
    key = "optimizer.min_variance.kkt_residual"
    counters[key] = max(counters[key], result.kkt_residual)


# (module, attribute, span name, counter update from the return value).
# A module that imports a name with ``from x import y`` gets its own entry,
# because its calls never go through the defining module's attribute.
WRAPPED = [
    ("crocodai.cli", "ingest_prices", "riskmodel.ingest_prices", _ingest_counts),
    ("crocodai.cli", "fit_model_from_series", "riskmodel.fit_model_from_series", None),
    ("crocodai.cli", "table_sweep", "montecarlo.table_sweep", _table_sweep_counts),
    ("crocodai.cli", "historical_replay", "montecarlo.historical_replay", _replay_counts),
    ("crocodai.cli", "min_variance", "optimizer.min_variance", _min_variance_counts),
    ("crocodai.cli", "tail_probability_experiment", "oracle.tail_probability_experiment", None),
    ("crocodai.riskmodel", "ingest_prices", "riskmodel.ingest_prices", _ingest_counts),
    ("crocodai.riskmodel", "fit_model_from_series", "riskmodel.fit_model_from_series", None),
    ("crocodai.riskmodel", "aligned_log_returns", "riskmodel.aligned_log_returns", None),
    ("crocodai.riskmodel", "estimate_model", "riskmodel.estimate_model", None),
    ("crocodai.riskmodel", "fit_nu", "riskmodel.fit_nu", None),
    ("crocodai.montecarlo", "table_sweep", "montecarlo.table_sweep", _table_sweep_counts),
    ("crocodai.montecarlo", "historical_replay", "montecarlo.historical_replay", _replay_counts),
    ("crocodai.optimizer", "min_variance", "optimizer.min_variance", _min_variance_counts),
    ("crocodai.oracle", "report_price", "oracle.report_price", None),
    ("crocodai.oracle", "update_vault_price", "oracle.update_vault_price", None),
    ("crocodai.oracle", "tail_probability_experiment", "oracle.tail_probability_experiment", None),
    ("crocodai.stablecoin", "open_cdp", "stablecoin.open_cdp", None),
    ("crocodai.stablecoin", "deposit_collateral", "stablecoin.deposit_collateral", None),
    ("crocodai.stablecoin", "withdraw_stablecoins", "stablecoin.withdraw_stablecoins", None),
    ("crocodai.stablecoin", "repay_debt", "stablecoin.repay_debt", None),
    ("crocodai.stablecoin", "accrue_stability_fee", "stablecoin.accrue_stability_fee", None),
    ("crocodai.stablecoin", "savings_deposit", "stablecoin.savings", None),
    ("crocodai.stablecoin", "savings_accrue", "stablecoin.savings", None),
    ("crocodai.stablecoin", "savings_withdraw", "stablecoin.savings", None),
    ("crocodai.stablecoin", "check_liquidatable", "stablecoin.check_liquidatable", None),
    ("crocodai.stablecoin", "start_auction", "stablecoin.auction", None),
    ("crocodai.stablecoin", "place_bid", "stablecoin.auction", None),
    ("crocodai.stablecoin", "settle_auction", "stablecoin.auction", None),
    ("crocodai.stablecoin", "full_backing", "stablecoin.full_backing", None),
    ("crocodai.stablecoin", "debt_totals", "stablecoin.debt_totals", None),
    ("crocodai.ledger:System", "fork_revert", "ledger.fork_revert", None),
    ("crocodai.ledger:System", "state_digest", "ledger.state_digest", None),
    ("crocodai.relay", "step", "relay.step", None),
    ("crocodai.relay", "request_transfer", "relay.request_transfer", None),
    ("crocodai.relay", "submit_governance", "relay.submit_governance", None),
    ("crocodai.relay", "audit", "relay.audit", None),
    ("crocodai.scenarios", "token_crash_scenario", "scenarios.token_crash_scenario", None),
    ("crocodai.scenarios", "compromised_chain_scenario", "scenarios.compromised_chain_scenario", None),
]

# the CLI subcommands get spans from the workload code itself, around cli.main
CLI_SPANS = ("cli.ingest", "cli.fit", "cli.simulate", "cli.replay", "cli.optimize", "cli.oracle_tail")


def _owner(path: str):
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Span recorder; `install()` swaps the wrappers in for the traced pass."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, float] = defaultdict(int)
        self.pass_id = 0
        self._stack: list[int] = []

    def span(self, name: str):
        return _Span(self, name)

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, clock(), 0.0, parent, self.pass_id, None])
        self._stack.append(index)
        return index

    def _close(self, index: int, error: BaseException | None) -> None:
        span = self.spans[index]
        span[2] = clock()
        span[5] = None if error is None else type(error).__name__
        self._stack.pop()

    def _wrapper(self, original, name, observe):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            error = None
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                error = exc
                raise
            finally:
                tracer._close(index, error)
            if observe is not None:
                observe(tracer.counters, result)
            return result

        return traced

    def install(self) -> None:
        for path, attr, name, observe in WRAPPED:
            owner = _owner(path)
            original = owner.__dict__.get(attr)
            if original is not None:  # renamed or removed: the zero-call check reports it
                setattr(owner, attr, self._wrapper(original, name, observe))

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.index = self.tracer._open(self.name)
        return self

    def __exit__(self, exc_type, exc, tb):
        self.tracer._close(self.index, exc)
        return False
