"""Black-swan attack checkers and the JSON scenario runner, the top of the
protocol engine: like `ledger`, `stablecoin`, `relay` and `oracle`, it imports
nothing from the risk engine (`riskmodel`, `montecarlo`, `optimizer`).

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
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Any, Callable, get_type_hints

import numpy as np

from . import relay as relay_mod
from . import stablecoin as core
from .errors import InvalidParameterError, PreconditionError, ProtocolError, ScenarioFormatError
from .ledger import SCALE, System, read_id
from .oracle import (
    PriceFeed,
    report_price,
    tail_probability_experiment,
    update_vault_price,
)
from .stablecoin import SystemParams


def builtin_portfolio(name: str):  # kept only for perfbench/risk.py:78 until it calls montecarlo's
    from .montecarlo import builtin_portfolio as preset
    return preset(name)


# ----------------------------------------------------------------------
# exact attack checkers


def _check_start_conditions(system: System) -> None:
    # every CDP above the ratio, every token with debt inside its ceiling
    for chain in system.chains.values():
        for cdp_id, cdp in chain.cdps.items():
            if core.check_liquidatable(cdp, core.price_of(system, cdp.token), system.params.gamma):
                raise PreconditionError(f"CDP {cdp_id} starts at ratio <= gamma")
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


def _verdict(kind: str, params: SystemParams, affected, backing: core.BackingReport,
             unbacked=0, **overrides) -> AttackReport:
    """The report on `backing` with `unbacked` more debt: zeta' of the
    affected tokens, the bound gamma * (1 - zeta'), and the ratio held against
    the bound and, as `full_backing` holds it, against theta. `overrides`
    replace any of the report's fields."""
    zeta_prime = sum((params.ceiling(m) for m in affected), Fraction(0))
    bound = params.gamma * (1 - zeta_prime)
    total_debt = backing.total_debt + unbacked
    ratio = None if total_debt == 0 else backing.collateral_value / total_debt
    fields = dict(kind=kind, affected_tokens=tuple(affected), zeta_prime=zeta_prime, bound=bound,
                  collateral_value=backing.collateral_value, total_debt=total_debt, ratio=ratio,
                  passed=ratio is None or ratio > bound,
                  backing_ok=ratio is None or ratio > params.theta)
    return AttackReport(**{**fields, **overrides})


def token_crash_scenario(system: System, affected_tokens: list[int]) -> AttackReport:
    """Zero out the affected tokens' prices and verify the backing bound."""
    unknown = [m for m in affected_tokens if m not in system.tokens]
    if unknown:
        raise ProtocolError(f"unknown token ids {unknown}")
    _check_start_conditions(system)
    crashed = {**system.prices, **dict.fromkeys(affected_tokens, Fraction(0))}
    return _verdict("token_crash", system.params, affected_tokens, core.full_backing(system, crashed))


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
    system.chain(chain_id)  # raises for an unknown chain
    if h_prime < 0:
        raise ProtocolError("h_prime must be >= 0")
    if len(system.chains) < 2:
        raise ProtocolError("need a second chain as the mint target")
    _check_start_conditions(system)
    params: SystemParams = system.params  # the attack's relay steps apply staged governance

    affected = sorted(t.id for t in system.tokens.values() if t.chain == chain_id)
    if not affected:
        raise ProtocolError(f"chain {chain_id} hosts no tokens")

    # the first priced token the protocol would let the attacker mint h' against
    totals = core.debt_totals(system)
    attack_token = next(
        (m for m in affected
         if core.price_of(system, m) > 0 and core.ceiling_allows(params, m, totals, h_prime)),
        None,
    )
    if h_prime > 0 and attack_token is None:
        return _verdict("compromised_chain", params, affected, core.full_backing(system),
                        passed=False, precondition_failed=True, backing_ok=False,
                        details={"reason": "h_prime exceeds the ceiling-consistent maximum"})

    details: dict[str, Any] = {"h_prime": h_prime}
    if h_prime > 0:
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

    # the unbacked coins count as liabilities
    return _verdict("compromised_chain", params, affected, core.full_backing(system),
                    Fraction(h_prime, SCALE), details=details)


def _fresh_account(system: System) -> int:
    top = 0
    for chain in system.chains.values():
        for acct in chain.balances:
            top = max(top, acct)
        for cdp in chain.cdps.values():
            top = max(top, cdp.owner)
    return top + 1


def ceiling_headroom(system: System, token_id: int) -> Fraction:
    """Largest exclusive h (stablecoin units) the mint-ceiling rule still
    allows; 10**12 stands in for no bound."""
    room = core.mint_headroom(system.params, token_id, core.debt_totals(system))
    return Fraction(10**12) if room is None else max(room, Fraction(0))


# ----------------------------------------------------------------------
# scenario files: parse_scenario checks the whole document, run_scenario runs it


def _fail(path: str, message: str) -> ScenarioFormatError:
    return ScenarioFormatError(f"{path}: {message}")


def _typed(typ):
    def read(value: Any, path: str):
        if not isinstance(value, typ):
            raise _fail(path, f"expected {typ.__name__}, got {type(value).__name__}")
        return value
    return read


_str, _dict, _array = (_typed(t) for t in (str, dict, list))


def _read(spec: Any, path: str, schema: dict) -> dict[str, Any]:
    """The one schema check: `spec` is an object with no key the schema lacks.
    Each key maps to a reader, `reader(value, path)`, or to `(reader, default)`
    when it is optional. The fields come back in schema order."""
    _dict(spec, path)
    unknown = sorted(set(spec) - set(schema), key=str)
    if unknown:
        raise _fail(path, f"unknown keys {unknown}")
    fields = {}
    for key, rule in schema.items():
        reader, *default = rule if isinstance(rule, tuple) else (rule,)
        if key not in spec and not default:
            raise _fail(path, f"missing field {key!r}")
        fields[key] = reader(spec[key], f"{path}.{key}") if key in spec else default[0]
    return fields


def _int(value: Any, path: str, low: int | None = None) -> int:
    if type(value) is not int:  # a JSON integer: not true, 1.7, 1e9 or "3"
        raise _fail(path, f"not an integer: {value!r}")
    if low is not None and value < low:
        raise _fail(path, f"must be >= {low}, got {value}")
    return value


_count = partial(_int, low=0)


def _number(convert):
    """A reader of convert(value): a JSON number or a numeric string ("1/3", "inf")."""
    def read(value: Any, path: str):
        try:
            return convert(value)
        except OverflowError as exc:  # a decimal exponent past the digit limit
            raise _fail(path, str(exc)) from None
        except (ValueError, ZeroDivisionError):
            raise _fail(path, f"not a number: {value!r}") from None
    return read


_float, _fraction = _number(lambda value: float(str(value))), _number(core.exact_fraction)


def _list(reader):
    def read(value: Any, path: str) -> list:
        return [reader(item, f"{path}[{j}]") for j, item in enumerate(_array(value, path))]
    return read


def _ids(reader, what: str, roster: range | None = None):
    """A reader of an object keyed by ids (accounts, relays) as `ledger.read_id`
    reads them, from `roster` if given."""
    def read(value: Any, path: str) -> dict[int, Any]:
        out = {}
        for key, item in _dict(value, path).items():
            try:
                node = read_id(key)
            except ProtocolError:
                raise _fail(f"{path}.{key}", f"{what} is not an integer") from None
            if roster is not None and node not in roster:
                raise _fail(f"{path}.{key}", f"{what} outside the roster 0..{roster[-1]}")
            out[node] = reader(item, f"{path}.{key}")
        return out
    return read


def _behavior(value: Any, path: str) -> str:
    if value not in relay_mod.BEHAVIORS:
        raise _fail(path, f"unknown behavior {value!r}")
    return value


_INT_PARAMS = {name for name, kind in get_type_hints(SystemParams).items() if kind is int}


def _params(value: Any, path: str) -> SystemParams:
    doc = _dict(value, path)
    for name in sorted(_INT_PARAMS & doc.keys()):
        _int(doc[name], f"{path}.{name}")
    try:
        return SystemParams.from_json(doc)
    except InvalidParameterError as exc:
        raise _fail(f"{path}.{exc.param}" if exc.param else path, str(exc)) from None


_TOP_LEVEL = {"name": (_str, None), "params": (_params, SystemParams()), "relays": (_dict, {}),
              **{section: (_array, []) for section in
                 ("chains", "tokens", "cdps", "workload", "attacks", "assertions")}}
_FEED = {"mu": (_float, 0.0), "sigma2": (_float, 1.0), "strategy": (_str, None),
         "value": (_float, 0.0)}

Step = tuple[str, Callable[[System], Any]]  # (JSON path, action)


@dataclass(frozen=True)
class Scenario:
    """A checked scenario document: the steps of each section, in order."""
    name: str | None
    params: SystemParams
    setup: tuple[Step, ...]  # chains, tokens, relays, genesis CDPs, ceilings
    workload: tuple[Step, ...]
    attacks: tuple[Step, ...]
    assertions: tuple[Step, ...]


def parse_scenario(doc: Any) -> Scenario:
    """Read every entry through `_read` and resolve every chain name and token
    symbol to the id a fresh System gives it. Builds no System."""
    top = _read(doc, "$", _TOP_LEVEL)
    chains: dict[str, int] = {}
    tokens: dict[str, tuple[int, int]] = {}  # symbol -> (token id, chain id)

    def chain(value: Any, path: str) -> int:
        if not isinstance(value, str) or value not in chains:  # a str first: {} is unhashable
            raise _fail(path, f"unknown chain {value!r}")
        return chains[value]

    def token(value: Any, path: str) -> int:
        if not isinstance(value, str) or value not in tokens:
            raise _fail(path, f"unknown token symbol {value!r}")
        return tokens[value][0]

    def step(spec: Any, path: str, schema: dict, action) -> Step:
        fields = _read(spec, path, schema)
        if "token" in fields and "chain" in fields:  # a CDP's chain is its token's
            home, name = tokens[spec["token"]][1], fields["chain"]
            if name is not None and chains.get(name) != home:
                raise _fail(f"{path}.chain", f"token {spec['token']} is not on chain {name!r}")
            fields["chain"] = home
        args = tuple(fields.values())
        return path, lambda system: action(system, *args)

    def steps(section: str, key: str, kinds: dict, what: str) -> tuple[Step, ...]:
        out = []
        for i, spec in enumerate(top[section]):
            at = f"$.{section}[{i}]"
            kind = _dict(spec, at).get(key)
            if not isinstance(kind, str) or kind not in kinds:
                raise _fail(at, f"unknown {what} {kind!r}")
            schema, action = kinds[kind]
            out.append(step({k: v for k, v in spec.items() if k != key}, at, schema, action))
        return tuple(out)

    setup: list[Step] = []
    for i, spec in enumerate(top["chains"]):
        at = f"$.chains[{i}]"
        f = _read(spec, at, {"name": (_str, f"chain-{i}"), "wards": (_list(_int), []),
                             "accounts": (_ids(_int, "account id"), {})})
        if f["name"] in chains:
            raise _fail(f"{at}.name", f"chain name already registered: {f['name']!r}")
        chains[f["name"]] = i
        setup.append((at, partial(System.create_chain, config=f)))
    ceilings: dict[int, Fraction] = {}
    for i, spec in enumerate(top["tokens"]):
        at = f"$.tokens[{i}]"
        f = _read(spec, at, {"symbol": _str, "chain": chain, "price": (_fraction, None),
                             "ceiling": (_fraction, None)})
        if f["symbol"] in tokens:
            raise _fail(f"{at}.symbol", f"token symbol already registered: {f['symbol']!r}")
        tokens[f["symbol"]] = i, f["chain"]
        if (ceiling := f.pop("ceiling")) is not None:
            ceilings[i] = ceiling
        setup.append((at, partial(_register_token, **f)))
    faults = _ids(_behavior, "relay id", range(top["params"].relay_n))
    relays = _read(top["relays"], "$.relays", {"faults": (faults, {})})
    setup.append(("$.relays", partial(relay_mod.register_relays, behaviors=relays["faults"])))
    cdp = {"chain": (_str, None), "owner": _int, "token": token, "collateral": _int,
           "debt": (_int, 0)}
    setup += [step(spec, f"$.cdps[{i}]", cdp, _genesis_cdp) for i, spec in enumerate(top["cdps"])]
    if ceilings:  # the ceilings bound shares of a debt that the genesis book creates
        setup.append(("$.tokens", lambda system: setattr(
            system, "params", system.params.with_param("debt_ceilings", ceilings))))
    ops, attacks = _kinds(chain, token)
    return Scenario(top["name"], top["params"], tuple(setup),
                    steps("workload", "op", ops, "workload op"),
                    steps("attacks", "kind", attacks, "attack kind"),
                    steps("assertions", "check", _ASSERTIONS, "assertion"))


def run_scenario(scenario: Scenario) -> dict[str, Any]:
    """Run a checked scenario on a fresh System. A step the protocol refuses
    raises ScenarioFormatError naming the step's JSON path."""
    system = System(scenario.params)

    def run(steps: tuple[Step, ...]) -> list:
        results = []
        for path, action in steps:
            try:
                results.append(action(system))
            except (ProtocolError, PreconditionError) as exc:
                raise _fail(path, str(exc)) from None
        return results

    run(scenario.setup)
    run(scenario.workload)
    attacks, checks = run(scenario.attacks), run(scenario.assertions)
    passed = all(c["passed"] for c in checks) and all(r["passed"] for r in attacks)
    return {"name": scenario.name, "passed": passed, "attacks": attacks, "checks": checks,
            "workload_ops": len(scenario.workload), "final_slot": system.slot}


def run_scenario_file(path: str | Path) -> dict[str, Any]:
    """Check a JSON scenario whole, then run it: build the world, run the
    workload and the attacks, evaluate the assertions. The report's "passed"
    flag is the conjunction of every attack bound and assertion."""
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise ScenarioFormatError(f"$: invalid JSON at line {exc.lineno}, column {exc.colno}") from exc
    except (ValueError, RecursionError) as exc:  # not UTF-8, a 5000-digit integer, deep nesting
        raise ScenarioFormatError(f"$: unreadable JSON: {exc}") from None
    scenario = parse_scenario(doc)
    return run_scenario(replace(scenario, name=path.stem) if scenario.name is None else scenario)


# actions: each takes the System, then its entry's fields in schema order
def _register_token(system: System, symbol, chain, price) -> None:
    token_id = system.register_token(symbol, chain)
    if price is not None:
        system.set_price(token_id, price)


def _genesis_cdp(system: System, chain, owner, token, collateral, debt) -> None:
    cdp_id = core.open_cdp(system, chain, owner, token)
    core.deposit_collateral(system, cdp_id, collateral)
    core.withdraw_stablecoins(system, cdp_id, debt)


def _steps(system: System, count: int) -> None:
    for _ in range(count):
        relay_mod.step(system)


def _oracle_update(system: System, token: int, base_price: float, seed: int, feeds) -> None:
    # the median of the feeds' reports becomes the vault price for the token
    rng = np.random.default_rng(seed)
    reports = []
    for i, f in enumerate(feeds):
        feed = PriceFeed(i, f["mu"], f["sigma2"], f["strategy"] is None, f["strategy"], f["value"])
        if (r := report_price(feed, token, system.slot, base_price, rng)) is not None:
            reports.append(r)
    update_vault_price(system, token, reports)


def _corrupt_oracles(system: System, feeds, corrupt, sigma, c, trials, seed) -> dict:
    est = tail_probability_experiment(feeds, corrupt, sigma, c, trials, np.random.default_rng(seed))
    return {"kind": "corrupt_oracles", "empirical": est.empirical, "bound": est.bound,
            "trials": est.trials, "passed": est.within_bound}


def _kinds(chain, token) -> tuple[dict, dict]:
    """Each workload op's and attack kind's (schema, action); `chain`, `token` read names."""
    cdp_amount = {"cdp": _int, "amount": _int}
    ops = {
        "transfer_local": ({"chain": chain, "from": _int, "to": _int, "amount": _int},
                           System.transfer_local),
        "request_transfer": ({"chain": chain, "sender": _int, "amount": _int,
                              "target_chain": chain, "target": _int}, relay_mod.request_transfer),
        "step": ({"count": (_count, 1)}, _steps),
        "open_cdp": ({"chain": (_str, None), "owner": _int, "token": token}, core.open_cdp),
        "deposit_collateral": (cdp_amount, core.deposit_collateral),
        "withdraw_stablecoins": (cdp_amount, core.withdraw_stablecoins),
        "repay_debt": (cdp_amount, core.repay_debt),
        "accrue_fees": ({"slots": (_count, 1)}, core.accrue_stability_fee),
        "set_price": ({"token": token, "price": _fraction}, System.set_price),
        "oracle_update": ({"token": token, "base_price": _float, "seed": (_count, 0),
                           "feeds": _list(lambda v, p: _read(v, p, _FEED))}, _oracle_update),
    }
    attacks = {
        "token_crash": ({"tokens": (_list(token), [])},
                        lambda s, ids: token_crash_scenario(s, ids).as_json()),
        "compromised_chain": ({"chain": chain, "h_prime": (_int, 0)},
                              lambda s, cid, h: compromised_chain_scenario(s, cid, h).as_json()),
        "corrupt_oracles": ({"feeds": (_int, 5), "corrupt": (_int, 2), "sigma": (_float, 1.0),
                             "c": (_float, 2.0), "trials": (_int, 10**5), "seed": (_count, 0)},
                            _corrupt_oracles),
    }
    return ops, attacks


def _full_backing(system: System) -> dict:
    report = core.full_backing(system)
    ratio = None if report.ratio is None else str(report.ratio)
    return {"check": "full_backing", "passed": report.ok, "ratio": ratio}


def _no_unbacked(system: System) -> dict:
    monitor = relay_mod.audit(system)
    return {"check": "no_unbacked", "passed": monitor.ok, "unbacked": monitor.unbacked_minted}


def _conservation(system: System) -> dict:
    _, total_debt = core.debt_totals(system)
    interest = sum((c.pot.interest_paid for c in system.chains.values()), Fraction(0))
    circulating = Fraction(system.total_circulating(), SCALE)
    return {"check": "conservation", "passed": circulating <= total_debt + interest,
            "circulating": str(circulating), "debt_plus_interest": str(total_debt + interest)}


_ASSERTIONS = {"full_backing": ({}, _full_backing), "no_unbacked": ({}, _no_unbacked),
               "conservation": ({}, _conservation)}
