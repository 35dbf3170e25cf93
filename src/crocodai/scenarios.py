"""Built-in collateral portfolios, black-swan attack checkers, and the JSON
scenario runner.

The two attack checkers verify, with exact rational arithmetic, that after
a worst-case event the aggregate collateral-to-debt ratio stays strictly
above gamma * (1 - zeta'), where zeta' is the combined debt ceiling of the
affected token types:

  * token crash: the price of every affected token drops to zero in one slot;
  * compromised coin chain: a 51% attacker mints stablecoins against
    collateral, moves them to another chain, waits for the relay commit,
    then forks the chain to undo the escrow and the CDP funding, leaving
    unbacked coins on the target chain.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Any

import numpy as np

from . import relay as relay_mod
from . import stablecoin as core
from .errors import InvalidParameterError, PreconditionError, ProtocolError, ScenarioFormatError
from .ledger import SCALE, System
from .montecarlo import Portfolio
from .oracle import (
    PriceFeed,
    report_price,
    tail_probability_experiment,
    update_vault_price,
)
from .stablecoin import SystemParams

# ----------------------------------------------------------------------
# built-in portfolios (weights in percent, normalized on construction)

_BUILTIN_WEIGHTS: dict[str, dict[str, float]] = {
    "D-All": {"USDC": 47, "ETH": 19, "PAXG": 14, "USDP": 10, "USDT": 8, "WBTC": 2},
    "D-ERC": {"ETH": 90.2, "WBTC": 9.4, "GNO": 0.2, "LINK": 0.1, "MATIC": 0.05, "YFI": 0.05},
    "D-Mix1": {"ETH": 50, "WBTC": 30, "GNO": 5, "LINK": 5, "MATIC": 5, "YFI": 5},
    "D-Mix2": {"ETH": 20, "WBTC": 20, "GNO": 15, "LINK": 15, "MATIC": 15, "YFI": 15},
    "C-Mix1": {"ETH": 50, "WBTC": 30, "ADA": 5, "DOT": 5, "TRX": 5, "AVAX": 5},
    "C-Mix2": {"ETH": 20, "WBTC": 20, "ADA": 15, "DOT": 15, "TRX": 15, "AVAX": 15},
    # optimized fixtures; exact values are dataset-dependent
    "D-Opt": {"WBTC": 74.015, "GNO": 25.985},
    "C-Opt": {"WBTC": 62.204, "TRX": 37.796},
    "A-Opt": {
        "BSV": 8.728, "BTG": 0.796, "BTT": 36.821, "DCR": 4.357, "GNO": 5.221,
        "HT": 0.0762, "KCS": 2.726, "KLAY": 5.705, "LEO": 17.568, "OKB": 3.223,
        "TRX": 13.017, "TWT": 0.483, "XLM": 0.593,
    },
}

BUILTIN_PORTFOLIOS = tuple(_BUILTIN_WEIGHTS)

# candidate collateral universes for the optimizer CLI
UNIVERSES: dict[str, tuple[str, ...]] = {
    "D": ("ETH", "WBTC", "GNO", "LINK", "MATIC", "YFI"),
    "C": ("ETH", "WBTC", "ADA", "DOT", "TRX", "AVAX", "SOL", "ALGO", "EOS"),
}

PEGGED_SYMBOLS = frozenset(
    {"USDC", "USDT", "USDP", "BUSD", "DAI", "GUSD", "TUSD", "USDN", "PAXG", "USDD", "FRAX"}
)


def builtin_portfolio(name: str) -> Portfolio:
    if name not in _BUILTIN_WEIGHTS:
        raise ProtocolError(f"unknown builtin portfolio {name!r} (have {sorted(_BUILTIN_WEIGHTS)})")
    return Portfolio.from_weights(name, _BUILTIN_WEIGHTS[name])


# ----------------------------------------------------------------------
# exact attack checkers


def _check_start_conditions(system: System) -> None:
    # every CDP above the ratio, every token with debt inside its ceiling
    for chain in system.chains.values():
        for cdp in chain.cdps.values():
            if core.check_liquidatable(cdp, core.price_of(system, cdp.token), system.params.gamma):
                raise PreconditionError(f"CDP {cdp.id} starts at ratio <= gamma")
    totals = core.debt_totals(system)
    for token_id in totals[0]:
        if not core.ceiling_allows(system.params, token_id, totals, 0):
            raise PreconditionError(f"debt ceiling for token {token_id} already breached")


@dataclass(frozen=True)
class AttackReport:
    kind: str
    affected_tokens: tuple[int, ...]
    zeta_prime: Fraction
    bound: Fraction  # gamma * (1 - zeta')
    collateral_value: Fraction
    total_debt: Fraction
    ratio: Fraction | None  # None = no debt (vacuously backed)
    passed: bool
    precondition_failed: bool = False
    backing_ok: bool = False  # post-attack full backing at the system theta
    details: dict[str, Any] = field(default_factory=dict)

    def as_json(self) -> dict:
        return {
            "kind": self.kind,
            "affected_tokens": list(self.affected_tokens),
            "zeta_prime": str(self.zeta_prime),
            "bound": str(self.bound),
            "collateral_value": str(self.collateral_value),
            "total_debt": str(self.total_debt),
            "ratio": None if self.ratio is None else str(self.ratio),
            "passed": self.passed,
            "precondition_failed": self.precondition_failed,
            "backing_ok": self.backing_ok,
            "details": self.details,
        }


def token_crash_scenario(system: System, affected_tokens: list[int]) -> AttackReport:
    """Zero out the affected tokens' prices and verify the backing bound."""
    unknown = [m for m in affected_tokens if m not in system.tokens]
    if unknown:
        raise ProtocolError(f"unknown token ids {unknown}")
    _check_start_conditions(system)
    params: SystemParams = system.params
    zeta_prime = sum((params.ceiling(m) for m in affected_tokens), Fraction(0))
    bound = params.gamma * (1 - zeta_prime)

    crashed = dict(system.prices)
    for m in affected_tokens:
        crashed[m] = Fraction(0)
    report = core.full_backing(system, crashed)
    ratio = report.ratio
    passed = True if ratio is None else ratio > bound
    return AttackReport(
        kind="token_crash",
        affected_tokens=tuple(affected_tokens),
        zeta_prime=zeta_prime,
        bound=bound,
        collateral_value=report.collateral_value,
        total_debt=report.total_debt,
        ratio=ratio,
        passed=passed,
        backing_ok=report.ok,
    )


def compromised_chain_scenario(system: System, chain_id: int, h_prime: int) -> AttackReport:
    """Execute the 51%-attack end to end and verify the backing bound.

    h_prime is the unbacked mint in minor units; the mint-ceiling rule
    (`stablecoin.mint_headroom`) must allow it against some priced token on
    the compromised chain, otherwise the report flags the failed starting
    condition instead of asserting the bound (the protocol refuses the mint).

    The empty book (total debt 0) is outside the guarantee: the bootstrap cap
    lets the attacker mint up to `bootstrap_ceiling` whatever the ceilings,
    and once the fork reverts the attacker's collateral nothing backs the
    mint, so the report reads ratio 0 with `passed=False`.
    """
    chain = system.chain(chain_id)
    if h_prime < 0:
        raise ProtocolError("h_prime must be >= 0")
    if len(system.chains) < 2:
        raise ProtocolError("need a second chain as the mint target")
    _check_start_conditions(system)
    params: SystemParams = system.params

    affected = sorted(t.id for t in system.tokens.values() if t.chain == chain_id)
    if not affected:
        raise ProtocolError(f"chain {chain_id} hosts no tokens")
    zeta_prime = sum((params.ceiling(m) for m in affected), Fraction(0))
    bound = params.gamma * (1 - zeta_prime)

    h_frac = Fraction(h_prime, SCALE)

    # the first priced token the protocol would let the attacker mint h' against
    totals = core.debt_totals(system)
    attack_token = next(
        (m for m in affected
         if core.price_of(system, m) > 0 and core.ceiling_allows(params, m, totals, h_prime)),
        None,
    )
    if h_prime > 0 and attack_token is None:
        now = core.full_backing(system)
        return AttackReport(
            "compromised_chain", tuple(affected), zeta_prime, bound, now.collateral_value,
            now.total_debt, now.ratio, passed=False, precondition_failed=True,
            details={"reason": "h_prime exceeds the ceiling-consistent maximum"},
        )

    details: dict[str, Any] = {"h_prime": h_prime}
    if h_prime > 0:
        if not system.relays:
            relay_mod.register_relays(system)
        target_chain = min(cid for cid in system.chains if cid != chain_id)
        attacker = _fresh_account(system)
        system.tick()
        attack_start = system.slot

        cdp_id = core.open_cdp(system, chain_id, attacker, attack_token)
        collateral = int(params.gamma * h_prime / system.prices[attack_token]) + 1
        core.deposit_collateral(system, cdp_id, collateral)
        core.withdraw_stablecoins(system, cdp_id, h_prime)
        tid = relay_mod.request_transfer(
            system, chain_id, attacker, h_prime, target_chain, attacker
        )
        for _ in range(4):
            relay_mod.step(system)
            if system.transfers[tid].state == relay_mod.COMMITTED:
                break
        if system.transfers[tid].state != relay_mod.COMMITTED:
            raise ProtocolError("relay never committed the attack transfer")

        system.mark_compromised(chain_id)
        system.fork_revert(chain_id, attack_start)
        monitor = relay_mod.audit(system)
        details["unbacked_minted"] = monitor.unbacked_minted
        details["transfer"] = tid

    after = core.full_backing(system)
    total_debt = after.total_debt + h_frac  # unbacked coins count as liabilities
    ratio = None if total_debt == 0 else after.collateral_value / total_debt
    passed = True if ratio is None else ratio > bound
    return AttackReport(
        kind="compromised_chain",
        affected_tokens=tuple(affected),
        zeta_prime=zeta_prime,
        bound=bound,
        collateral_value=after.collateral_value,
        total_debt=total_debt,
        ratio=ratio,
        passed=passed,
        backing_ok=(total_debt == 0 or after.collateral_value / total_debt > params.theta),
        details=details,
    )


def _fresh_account(system: System) -> int:
    top = 0
    for chain in system.chains.values():
        for acct in chain.balances:
            top = max(top, acct)
        for cdp in chain.cdps.values():
            top = max(top, cdp.owner)
    return top + 1


# ----------------------------------------------------------------------
# random ceiling-respecting instances (reproducible test fixtures)


def random_backed_instance(
    rng: random.Random,
    n_chains: int = 2,
    max_tokens_per_chain: int = 3,
    max_cdps_per_token: int = 3,
) -> System:
    """A small system whose CDPs all start strictly above the liquidation
    ratio and whose per-token debts leave strict headroom under their
    ceilings. All quantities are exact rationals / integers by construction:
    per-CDP ratios are drawn from (gamma, ~3*gamma], debts are integer minor
    units, and ceilings are set to the realized debt fraction plus a random
    strict margin.
    """
    gamma = Fraction(rng.randint(12, 25), 10)
    params = SystemParams(gamma=gamma, theta=Fraction(11, 10), relay_n=4, relay_f=1)
    system = System(params)

    token_ids: list[int] = []
    for c in range(n_chains):
        cid = system.create_chain({"name": f"chain-{c}"})
        for t in range(rng.randint(1, max_tokens_per_chain)):
            token_ids.append(system.register_token(f"TOK{cid}_{t}", cid))
    for m in token_ids:
        system.set_price(m, Fraction(rng.randint(1, 10**6), rng.randint(1, 1000)))

    debts: dict[int, int] = {m: rng.randint(1, 10**12) for m in token_ids}
    owner = 1
    for m in token_ids:
        token = system.tokens[m]
        parts = _split_int(rng, debts[m], rng.randint(1, max_cdps_per_token))
        for part in parts:
            cdp_id = core.open_cdp(system, token.chain, owner, m)
            ratio = gamma * (1 + Fraction(rng.randint(1, 2000), 1000))
            price = system.prices[m]
            collateral = int(ratio * part / price) + 1
            core.deposit_collateral(system, cdp_id, collateral)
            core.withdraw_stablecoins(system, cdp_id, part)
            owner += 1

    total = Fraction(sum(debts.values()), SCALE)
    ceilings: dict[int, Fraction] = {}
    for m in token_ids:
        share = Fraction(debts[m], SCALE) / total
        margin = Fraction(rng.randint(1, 200), 1000)
        ceilings[m] = min(Fraction(1), share + margin)
        if ceilings[m] <= share:  # share + margin capped at 1 while share == 1
            ceilings[m] = Fraction(1)
    system.params = SystemParams(
        gamma=gamma, theta=Fraction(11, 10), relay_n=4, relay_f=1, debt_ceilings=ceilings
    )
    return system


def _split_int(rng: random.Random, total: int, parts: int) -> list[int]:
    parts = min(parts, total)
    if parts <= 1:
        return [total]
    cuts = sorted(rng.sample(range(1, total), parts - 1))
    edges = [0] + cuts + [total]
    return [b - a for a, b in zip(edges[:-1], edges[1:])]


def ceiling_headroom(system: System, token_id: int) -> Fraction:
    """Largest exclusive h (stablecoin units) the mint-ceiling rule still
    allows; 10**12 stands in for no bound."""
    room = core.mint_headroom(system.params, token_id, core.debt_totals(system))
    return Fraction(10**12) if room is None else max(room, Fraction(0))


# ----------------------------------------------------------------------
# scenario files


def _fail(path: str, message: str) -> ScenarioFormatError:
    return ScenarioFormatError(f"{path}: {message}")


def _expect(doc: Any, typ, path: str):
    if not isinstance(doc, typ):
        raise _fail(path, f"expected {typ.__name__}, got {type(doc).__name__}")
    return doc


_REQUIRED = object()


def _fraction(value: Any) -> Fraction:
    return Fraction(str(value))


def _num(spec: dict, key: str, path: str, kind=int, default: Any = _REQUIRED):
    """kind(spec[key]), or default when the key is absent. A missing required
    field, or a value kind cannot convert, is a ScenarioFormatError naming its
    JSON path."""
    if key not in spec:
        if default is _REQUIRED:
            raise _fail(path, f"missing field {key!r}")
        return default
    try:
        return kind(spec[key])
    except (TypeError, ValueError, ZeroDivisionError):
        raise _fail(f"{path}.{key}", f"not a number: {spec[key]!r}") from None


def _seed(spec: dict, path: str) -> int:
    seed = _num(spec, "seed", path, default=0)
    if seed < 0:
        raise _fail(f"{path}.seed", f"must be >= 0, got {seed}")
    return seed


_TOP_LEVEL_KEYS = {
    "name", "params", "chains", "tokens", "relays", "cdps",
    "workload", "attacks", "assertions",
}
_CDP_KEYS = {"chain", "owner", "token", "collateral", "debt"}


def run_scenario_file(path: str | Path) -> dict[str, Any]:
    """Execute a JSON scenario: build the world, run the workload and the
    attacks, evaluate the assertions. The report's "passed" flag is the
    conjunction of every attack bound and assertion."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"$: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    _expect(doc, dict, "$")
    unknown = set(doc) - _TOP_LEVEL_KEYS
    if unknown:
        raise _fail("$", f"unknown keys {sorted(unknown)}")

    try:
        params = SystemParams.from_json(_expect(doc.get("params", {}), dict, "$.params"))
    except InvalidParameterError as exc:
        raise _fail(f"$.params.{exc.param}" if exc.param else "$.params", str(exc)) from None
    system = System(params)

    chain_ids: dict[str, int] = {}
    for i, spec in enumerate(_expect(doc.get("chains", []), list, "$.chains")):
        _expect(spec, dict, f"$.chains[{i}]")
        cid = system.create_chain(spec)
        chain_ids[system.chains[cid].name] = cid

    ceilings: dict[int, Fraction] = {}
    for i, spec in enumerate(_expect(doc.get("tokens", []), list, "$.tokens")):
        _expect(spec, dict, f"$.tokens[{i}]")
        for key in ("symbol", "chain"):
            if key not in spec:
                raise _fail(f"$.tokens[{i}]", f"missing {key!r}")
        if spec["chain"] not in chain_ids:
            raise _fail(f"$.tokens[{i}].chain", f"unknown chain {spec['chain']!r}")
        tid = system.register_token(
            spec["symbol"], chain_ids[spec["chain"]], bool(spec.get("pegged", False))
        )
        if "price" in spec:
            system.set_price(tid, _num(spec, "price", f"$.tokens[{i}]", _fraction))
        if "ceiling" in spec:
            ceilings[tid] = _num(spec, "ceiling", f"$.tokens[{i}]", _fraction)

    faults = {}
    relays_doc = _expect(doc.get("relays", {}), dict, "$.relays")
    for node, behavior in _expect(relays_doc.get("faults", {}), dict, "$.relays.faults").items():
        at = f"$.relays.faults.{node}"
        if behavior not in relay_mod.BEHAVIORS:
            raise _fail(at, f"unknown behavior {behavior!r}")
        try:
            node_id = int(node)
        except ValueError:
            raise _fail(at, "relay id is not an integer") from None
        if node_id not in range(system.params.relay_n):
            raise _fail(at, f"relay id outside the roster 0..{system.params.relay_n - 1}")
        faults[node_id] = behavior
    relay_mod.register_relays(system, faults)

    for i, spec in enumerate(_expect(doc.get("cdps", []), list, "$.cdps")):
        at = f"$.cdps[{i}]"
        _expect(spec, dict, at)
        unknown = set(spec) - _CDP_KEYS
        if unknown:
            raise _fail(at, f"unknown keys {sorted(unknown)}")
        try:
            token = system.token_by_symbol(spec["token"])
        except (KeyError, ProtocolError):
            raise _fail(f"{at}.token", "unknown token") from None
        if "chain" in spec and chain_ids.get(spec["chain"]) != token.chain:
            raise _fail(f"{at}.chain", f"token {token.symbol} is not on chain {spec['chain']!r}")
        owner, collateral = _num(spec, "owner", at), _num(spec, "collateral", at)
        debt = _num(spec, "debt", at, default=0)
        cdp_id = core.open_cdp(system, token.chain, owner, token.id)
        try:
            core.deposit_collateral(system, cdp_id, collateral)
            core.withdraw_stablecoins(system, cdp_id, debt)
        except ProtocolError as exc:
            raise _fail(at, str(exc)) from None
    # the ceilings bound shares of a debt that the genesis book creates
    if ceilings:
        system.params = system.params.with_param(
            "debt_ceilings", {t: str(z) for t, z in ceilings.items()}
        )

    event_count = 0
    for i, op in enumerate(_expect(doc.get("workload", []), list, "$.workload")):
        _expect(op, dict, f"$.workload[{i}]")
        event_count += _run_workload_op(system, chain_ids, op, f"$.workload[{i}]")

    attack_reports = []
    for i, spec in enumerate(_expect(doc.get("attacks", []), list, "$.attacks")):
        _expect(spec, dict, f"$.attacks[{i}]")
        attack_reports.append(_run_attack(system, chain_ids, spec, f"$.attacks[{i}]"))

    checks = []
    for i, spec in enumerate(_expect(doc.get("assertions", []), list, "$.assertions")):
        _expect(spec, dict, f"$.assertions[{i}]")
        checks.append(_run_assertion(system, spec, f"$.assertions[{i}]"))

    passed = all(c["passed"] for c in checks) and all(
        r.get("passed", True) for r in attack_reports
    )
    return {
        "name": doc.get("name", path.stem),
        "passed": passed,
        "attacks": attack_reports,
        "checks": checks,
        "workload_ops": event_count,
        "final_slot": system.slot,
    }


def _run_workload_op(system: System, chain_ids: dict[str, int], op: dict, path: str) -> int:
    kind = op.get("op")
    def chain_of(key="chain"):
        name = op.get(key)
        if name not in chain_ids:
            raise _fail(f"{path}.{key}", f"unknown chain {name!r}")
        return chain_ids[name]
    def num(key, kind=int, default=_REQUIRED):
        return _num(op, key, path, kind, default)
    try:
        if kind == "transfer_local":
            system.transfer_local(chain_of(), num("from"), num("to"), num("amount"))
        elif kind == "request_transfer":
            relay_mod.request_transfer(
                system, chain_of(), num("sender"), num("amount"),
                chain_of("target_chain"), num("target"),
            )
        elif kind == "step":
            for _ in range(num("count", default=1)):
                relay_mod.step(system)
        elif kind == "open_cdp":
            token = system.token_by_symbol(op["token"])
            core.open_cdp(system, token.chain, num("owner"), token.id)
        elif kind == "deposit_collateral":
            core.deposit_collateral(system, num("cdp"), num("amount"))
        elif kind == "withdraw_stablecoins":
            core.withdraw_stablecoins(system, num("cdp"), num("amount"))
        elif kind == "repay_debt":
            core.repay_debt(system, num("cdp"), num("amount"))
        elif kind == "accrue_fees":
            core.accrue_stability_fee(system, num("slots", default=1))
        elif kind == "set_price":
            token = system.token_by_symbol(op["token"])
            system.set_price(token.id, num("price", _fraction))
        elif kind == "oracle_update":
            # per-feed noise parameters and corruption assignments; the
            # medianized result becomes the vault price for the token
            token = system.token_by_symbol(op["token"])
            rng = np.random.default_rng(_seed(op, path))
            feeds = []
            for i, f in enumerate(_expect(op["feeds"], list, f"{path}.feeds")):
                feed_path = f"{path}.feeds[{i}]"
                _expect(f, dict, feed_path)
                feeds.append(PriceFeed(
                    oracle_id=i,
                    mu=_num(f, "mu", feed_path, float, 0.0),
                    sigma2=_num(f, "sigma2", feed_path, float, 1.0),
                    honest="strategy" not in f,
                    strategy=f.get("strategy"),
                    strategy_value=_num(f, "value", feed_path, float, 0.0),
                ))
            base_price = num("base_price", float)
            reports = [
                r
                for feed in feeds
                if (r := report_price(feed, token.id, system.slot, base_price, rng)) is not None
            ]
            update_vault_price(system, token.id, reports)
        else:
            raise _fail(path, f"unknown workload op {kind!r}")
    except KeyError as exc:
        raise _fail(path, f"missing field {exc.args[0]!r}") from None
    return 1


def _run_attack(system: System, chain_ids: dict[str, int], spec: dict, path: str) -> dict:
    kind = spec.get("kind")
    if kind == "token_crash":
        symbols = _expect(spec.get("tokens", []), list, f"{path}.tokens")
        try:
            ids = [system.token_by_symbol(s).id for s in symbols]
        except ProtocolError as exc:
            raise _fail(f"{path}.tokens", str(exc)) from None
        return token_crash_scenario(system, ids).as_json()
    if kind == "compromised_chain":
        if spec.get("chain") not in chain_ids:
            raise _fail(f"{path}.chain", f"unknown chain {spec.get('chain')!r}")
        return compromised_chain_scenario(
            system, chain_ids[spec["chain"]], _num(spec, "h_prime", path, default=0)
        ).as_json()
    if kind == "corrupt_oracles":
        try:
            est = tail_probability_experiment(
                _num(spec, "feeds", path, default=5),
                _num(spec, "corrupt", path, default=2),
                _num(spec, "sigma", path, float, 1.0),
                _num(spec, "c", path, float, 2.0),
                _num(spec, "trials", path, default=10**5),
                np.random.default_rng(_seed(spec, path)),
            )
        except ProtocolError as exc:
            raise _fail(path, str(exc)) from None
        passed = est.empirical <= est.bound if est.c >= 2 * est.sigma_star else True
        return {
            "kind": "corrupt_oracles",
            "empirical": est.empirical,
            "bound": est.bound,
            "trials": est.trials,
            "passed": passed,
        }
    raise _fail(path, f"unknown attack kind {kind!r}")


def _run_assertion(system: System, spec: dict, path: str) -> dict:
    check = spec.get("check")
    if check == "full_backing":
        report = core.full_backing(system)
        return {
            "check": check,
            "passed": report.ok,
            "ratio": None if report.ratio is None else str(report.ratio),
        }
    if check == "no_unbacked":
        monitor = relay_mod.audit(system)
        return {"check": check, "passed": monitor.ok, "unbacked": monitor.unbacked_minted}
    if check == "conservation":
        _, total_debt = core.debt_totals(system)
        interest = sum(
            (Fraction(c.pot.interest_paid) for c in system.chains.values()), Fraction(0)
        )
        circulating = Fraction(system.total_circulating(), SCALE)
        return {
            "check": check,
            "passed": circulating <= total_debt + interest,
            "circulating": str(circulating),
            "debt_plus_interest": str(total_debt + interest),
        }
    raise _fail(path, f"unknown assertion {check!r}")
