"""Protocol-engine workloads: `cdp-book` and `relay-traffic`.

Both are closed loops: one client issues each public call after the previous
one returned, slot by slot. A call that the protocol refuses by rule (ratio,
ceiling, balance, auction, stale-nonce and precondition errors) is an
outcome; any other exception, and any failed invariant, is a failed
operation. Every input is drawn from the benchmark seed in `prepare()`, so
the timed passes only replay it.

Vault sizes follow a lognormal distribution of collateral value in USD with
median 25,000 and log-sd 1.2, truncated at 2,000,000, and the collateral
ratio at issue is 1.5 * exp(N(0.45, 0.3)), so about 7% of mints ask for less
than the liquidation ratio. This is a realistic retail book; the largest
debt is about 1.3 * 10^6 units, far from the 10^10 units at which the
28-digit Decimal context of the event appliers starts to round.
"""

from __future__ import annotations

import hashlib
import math
import random
from decimal import Decimal
from fractions import Fraction

import numpy as np

from crocodai import oracle, relay, scenarios
from crocodai import stablecoin as core
from crocodai.errors import (
    AuctionError,
    CeilingViolationError,
    InsufficientBalanceError,
    PreconditionError,
    RatioViolationError,
    StaleNonceError,
    StalePriceError,
)
from crocodai.ledger import OPEN, SCALE, System
from crocodai.oracle import CONSTANT_OFFSET, PriceFeed
from crocodai.stablecoin import SystemParams

from common import PassResult, clock, mark, p99, since

REFUSALS = (
    RatioViolationError,
    CeilingViolationError,
    InsufficientBalanceError,
    AuctionError,
    StalePriceError,
    StaleNonceError,
    PreconditionError,
)

REFUSED = object()  # returned by Recorder.call when the protocol refused by rule

GAMMA = Fraction(3, 2)
THETA = Fraction(11, 10)


def _vault_usd(rng: random.Random) -> float:
    return min(2_000_000.0, math.exp(rng.gauss(math.log(25_000.0), 1.2)))


def _issue_ratio(rng: random.Random) -> float:
    return 1.5 * math.exp(rng.gauss(0.45, 0.3))


class Recorder:
    """Counts the calls of one pass, their refusals and their failures, and
    keeps the decision sequence so two passes can be compared."""

    def __init__(self):
        self.ops = 0
        self.failed = 0
        self.failures: list[str] = []
        self.decisions: list[str] = []
        self.rejected: dict[str, int] = {}

    def call(self, layer: str, fn, *args):
        self.ops += 1
        try:
            out = fn(*args)
        except REFUSALS as exc:
            key = f"{layer}.rejected.{type(exc).__name__}"
            self.rejected[key] = self.rejected.get(key, 0) + 1
            self.decisions.append(key)
            return REFUSED
        except Exception as exc:  # the benchmark boundary: record and keep going
            self.fail(f"{fn.__name__}: {type(exc).__name__}: {exc}")
            return REFUSED
        self.decisions.append(fn.__name__)
        return out

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(message)
        self.decisions.append("FAILED")

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.fail(message)

    def result(self, system: System, start: float, wall: float, steps: list,
               counts: dict) -> PassResult:
        h = hashlib.sha256("\n".join(self.decisions).encode())
        h.update(system.state_digest().encode())
        return PassResult(start=start, wall=wall, steps=steps, ops=self.ops, attempted=self.ops,
                          failed=self.failed, failures=self.failures, digest=h.hexdigest(),
                          counts={**counts, **self.rejected})


def _ledger_counts(system: System, genesis_events: int, log_length_max: int) -> dict[str, int]:
    dropped = sum(r["dropped_events"] for r in system.revert_log)
    live = sum(len(c.events) for c in system.chains.values())
    return {
        "ledger.events_applied": live + dropped - genesis_events,
        "ledger.log_length_max": log_length_max,
        "ledger.fork_revert.dropped_events": dropped,
    }


# ----------------------------------------------------------------------
# cdp-book


class CdpBook:
    """A growing CDP book on 3 chains x 2 collateral tokens, 1,000 slots."""

    name = "cdp-book"
    SLOTS = 1000
    CEILINGS_AT = 50
    # (chain, symbol, start price, share of new vaults, debt ceiling)
    TOKENS = [
        ("eth", "ETH", 2000.0, 0.34, "0.3"),
        ("eth", "WBTC", 30000.0, 0.20, "0.3"),
        ("sol", "SOL", 40.0, 0.15, "0.3"),
        ("sol", "MSOL", 45.0, 0.10, "0.3"),
        ("avax", "AVAX", 20.0, 0.12, "0.3"),
        ("avax", "BTCB", 30000.0, 0.09, "0.3"),
    ]
    KEEPER = 1
    # not in BENCHMARK.json: its run-to-run spread over ten seeds reached
    # 0.23 and 0.31 of the median, at and past the 0.24 bound; run it by name
    MIN_PASSES = 3
    KEEPER_FLOAT = 500_000  # units minted per keeper vault at genesis
    SLOT_VOL = 0.001  # per-slot log-price volatility of the base prices

    SPANS = ("relay.step", "oracle.report_price", "oracle.update_vault_price",
             "stablecoin.open_cdp", "stablecoin.deposit_collateral",
             "stablecoin.withdraw_stablecoins", "stablecoin.repay_debt",
             "stablecoin.accrue_stability_fee", "stablecoin.savings",
             "stablecoin.check_liquidatable", "stablecoin.full_backing",
             "scenarios.token_crash_scenario")

    def __init__(self, seed: int, root=None, work=None):
        self.seed = seed

    def final_checks(self) -> list[str]:
        return []

    def sizes(self) -> dict:
        return {"slots": self.SLOTS, "chains": 3, "tokens": len(self.TOKENS), "relays": 4,
                "oracle_feeds": 5, "corrupt_feeds": 1}

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        n = len(self.TOKENS)
        self.base = np.empty((n, self.SLOTS + 1))
        for i, token in enumerate(self.TOKENS):
            steps = np.array([rng.gauss(0.0, self.SLOT_VOL) for _ in range(self.SLOTS)])
            self.base[i] = token[2] * np.exp(np.concatenate([[0.0], np.cumsum(steps)]))
        weights = [t[3] for t in self.TOKENS]
        self.vaults = [
            (rng.choices(range(n), weights)[0], _vault_usd(rng), _issue_ratio(rng))
            for _ in range(self.SLOTS)
        ]
        # per slot: (vault pick, fraction) for repay and savings, bid markup
        self.picks = [(rng.random(), rng.uniform(0.2, 0.6), rng.random(), rng.uniform(0.0, 0.05))
                      for _ in range(self.SLOTS + 1)]

    def genesis(self) -> System:
        params = SystemParams(
            gamma=GAMMA, theta=THETA, relay_n=4, relay_f=1,
            stability_fee=Decimal("0.000001"), savings_rate=Decimal("0.0000005"),
        )
        system = System(params)
        chains = {}
        for chain, *_ in self.TOKENS:
            if chain not in chains:
                chains[chain] = system.create_chain({"name": chain})
        self.token_ids = []
        self.feeds = []
        for chain, symbol, price, _, _ in self.TOKENS:
            tid = system.register_token(symbol, chains[chain])
            system.set_price(tid, Fraction(price))
            self.token_ids.append(tid)
            sd2 = (0.002 * price) ** 2
            honest = [PriceFeed(i, per_token={tid: (0.0, sd2)}) for i in range(4)]
            corrupt = PriceFeed(4, honest=False, strategy=CONSTANT_OFFSET, strategy_value=0.05 * price)
            self.feeds.append(honest + [corrupt])
        relay.register_relays(system)
        # the keeper's float is minted against its own deep vaults, one per
        # token, so every coin in circulation is backed by debt
        for i, (_, _, price, _, _) in enumerate(self.TOKENS):
            tid = self.token_ids[i]
            cdp = core.open_cdp(system, system.tokens[tid].chain, self.KEEPER, tid)
            core.deposit_collateral(system, cdp, int(10 * self.KEEPER_FLOAT / price * SCALE))
            core.withdraw_stablecoins(system, cdp, self.KEEPER_FLOAT * SCALE)
        return system

    def run_pass(self, tracer=None) -> PassResult:
        recorder, steps = Recorder(), []
        system = self.genesis()
        genesis_events = sum(len(c.events) for c in system.chains.values())
        start = clock()
        rng = np.random.default_rng(self.seed)  # oracle observation noise
        call = recorder.call
        vaults: list[tuple[int, int, int]] = []  # (cdp, chain, owner) of minted vaults
        depositors: list[tuple[int, int]] = []
        auctions: list[tuple[int, int]] = []  # (cdp, start slot)
        log_max = 0
        crash_turn = 0
        for slot in range(1, self.SLOTS + 1):
            t0 = mark()
            call("relay", relay.step, system)
            for i, tid in enumerate(self.token_ids):
                base = float(self.base[i, slot])
                reports = []
                for feed in self.feeds[i]:
                    r = call("oracle", oracle.report_price, feed, tid, slot, base, rng)
                    if r is not REFUSED and r is not None:
                        reports.append(r)
                call("oracle", oracle.update_vault_price, system, tid, reports)
            if slot == self.CEILINGS_AT:
                ceilings = {self.token_ids[i]: t[4] for i, t in enumerate(self.TOKENS)}
                system.params = system.params.with_param("debt_ceilings", ceilings)

            i, usd, ratio = self.vaults[slot - 1]
            tid = self.token_ids[i]
            cid = system.tokens[tid].chain
            owner = 10_000 + slot
            price = float(self.base[i, slot])
            cdp = call("stablecoin", core.open_cdp, system, cid, owner, tid)
            call("stablecoin", core.deposit_collateral, system, cdp, int(usd / price * SCALE))
            minted = call("stablecoin", core.withdraw_stablecoins, system, cdp,
                          int(usd / ratio * SCALE))
            if minted is not REFUSED:
                vaults.append((cdp, cid, owner))

            pick, frac, pick2, markup = self.picks[slot]
            if slot % 5 == 0 and vaults:
                cdp, cid, owner = vaults[int(pick * len(vaults))]
                state = system.chains[cid].cdps[cdp]
                owed = int(state.debt * SCALE)
                amount = min(int(system.chains[cid].balance(owner) * frac), owed)
                if state.state == OPEN and amount > 0:
                    call("stablecoin", core.repay_debt, system, cdp, amount)
            if slot % 3 == 0 and vaults:
                cdp, cid, owner = vaults[int(pick2 * len(vaults))]
                amount = int(system.chains[cid].balance(owner) * frac)
                if amount > 0 and call("stablecoin", core.savings_deposit, system, cid, owner,
                                       amount) is not REFUSED:
                    depositors.append((cid, owner))
            if slot % 10 == 0 and depositors:
                cid, owner = depositors.pop(int(pick * len(depositors)))
                call("stablecoin", core.savings_withdraw, system, cid, owner)
            if slot % 12 == 0:
                call("stablecoin", core.accrue_stability_fee, system, 12)
                for cid in sorted(system.chains):
                    call("stablecoin", core.savings_accrue, system, cid, 12)
            if slot % 6 == 0:
                self._keeper(system, call, vaults, auctions, slot, markup)
            if slot % 20 == 0:
                token = self.token_ids[crash_turn % len(self.token_ids)]
                crash_turn += 1
                self._monitor(system, recorder, token)
            log_max = max(log_max, max(len(c.events) for c in system.chains.values()))
            steps.append(since(t0))
        wall = clock() - start
        return recorder.result(system, start, wall, steps, _ledger_counts(system, genesis_events, log_max))

    def _keeper(self, system, call, vaults, auctions, slot, markup) -> None:
        due = [a for a in auctions if slot - a[1] >= system.params.bid_duration]
        for cdp, start in due:
            if call("stablecoin", core.settle_auction, system, cdp) is not REFUSED:
                auctions.remove((cdp, start))
        gamma = system.params.gamma
        for cdp, cid, _ in vaults:
            vault = system.chains[cid].cdps[cdp]
            if vault.state != OPEN:
                continue
            if call("stablecoin", core.check_liquidatable, vault, system.prices[vault.token], gamma) is True:
                if call("stablecoin", core.start_auction, system, cdp) is REFUSED:
                    continue
                auctions.append((cdp, slot))
                owed = Fraction(vault.debt) * SCALE
                bid = math.ceil(owed * (1 + Fraction(markup)))
                call("stablecoin", core.place_bid, system, cdp, self.KEEPER, bid)

    def _monitor(self, system, recorder: Recorder, token: int) -> None:
        backing = recorder.call("stablecoin", core.full_backing, system)
        if backing is not REFUSED:
            recorder.check(backing.ok, f"slot {system.slot}: full backing lost, ratio {backing.ratio}")
        _, debt = core.debt_totals(system)
        interest = sum((Fraction(c.pot.interest_paid) for c in system.chains.values()), Fraction(0))
        circulating = Fraction(system.total_circulating(), SCALE)
        recorder.check(circulating <= debt + interest,
                       f"slot {system.slot}: circulating {circulating} > debt + interest {debt + interest}")
        report = recorder.call("scenarios", scenarios.token_crash_scenario, system, [token])
        if report is not REFUSED:
            recorder.check(report.passed, f"slot {system.slot}: token {token} crash breaks the bound")


# ----------------------------------------------------------------------
# relay-traffic


class RelayTraffic:
    """Cross-chain transfers under relay faults and 51% attacks, 3,000 slots."""

    name = "relay-traffic"
    SLOTS = 3000
    ACCOUNTS = 200
    TRANSFERS_PER_SLOT = 4
    VAULTS = 36
    CRASH_AT, CRASH_LEN = 400, 30  # relays 1-2 down for slots [k*1000+400, +30)
    GOVERNANCE_EVERY, ATTACK_EVERY = 100, 250
    REPLAY_AT = 1550  # governance slot that replays the previous nonce
    TOKENS = [("eth", "ETH", 2000), ("sol", "SOL", 40), ("avax", "AVAX", 20)]

    MIN_PASSES = 2
    SPANS = ("relay.step", "relay.request_transfer", "relay.submit_governance", "relay.audit",
             "ledger.fork_revert", "ledger.state_digest", "scenarios.compromised_chain_scenario")

    def __init__(self, seed: int, root=None, work=None):
        self.seed = seed

    def final_checks(self) -> list[str]:
        return []

    def sizes(self) -> dict:
        return {"slots": self.SLOTS, "chains": 3, "accounts_per_chain": self.ACCOUNTS,
                "transfers_per_slot": self.TRANSFERS_PER_SLOT, "vaults": self.VAULTS, "relays": 4}

    def prepare(self) -> None:
        rng = random.Random(self.seed)
        a = self.ACCOUNTS
        self.transfers = [
            [(src, (src + rng.randint(1, 2)) % 3, rng.randint(1, a), rng.randint(1, a),
              int(math.exp(rng.gauss(math.log(500.0), 1.0)) * SCALE))
             for src in (rng.randrange(3) for _ in range(self.TRANSFERS_PER_SLOT))]
            for _ in range(self.SLOTS)
        ]
        self.vault_specs = [(k % 3, _vault_usd(rng), _issue_ratio(rng)) for k in range(self.VAULTS)]
        self.attack_fracs = [rng.uniform(0.2, 0.8) for _ in range(self.SLOTS // self.ATTACK_EVERY + 1)]

    def genesis(self) -> System:
        system = System(SystemParams(gamma=GAMMA, theta=THETA, relay_n=4, relay_f=1,
                                     transfer_timeout=20))
        funded = {str(k): 100_000 * SCALE for k in range(1, self.ACCOUNTS + 1)}
        self.token_ids = []
        for chain, symbol, price in self.TOKENS:
            cid = system.create_chain({"name": chain, "accounts": funded})
            tid = system.register_token(symbol, cid)
            system.set_price(tid, Fraction(price))
            self.token_ids.append(tid)
        relay.register_relays(system, {3: relay.BYZ_EQUIVOCATE})
        for k, (i, usd, ratio) in enumerate(self.vault_specs):
            tid = self.token_ids[i]
            price = self.TOKENS[i][2]
            cdp = core.open_cdp(system, i, 1_000 + k, tid)
            core.deposit_collateral(system, cdp, int(usd / price * SCALE))
            try:
                core.withdraw_stablecoins(system, cdp, int(usd / max(ratio, 1.6) * SCALE))
            except (RatioViolationError, CeilingViolationError):
                pass
        per_token, total = core.debt_totals(system)
        ceilings = {t: str(min(Fraction(1), per_token.get(t, Fraction(0)) / total + Fraction(1, 4)))
                    for t in self.token_ids}
        system.params = system.params.with_param("debt_ceilings", ceilings)
        return system

    def run_pass(self, tracer=None) -> PassResult:
        recorder, steps = Recorder(), []
        system = self.genesis()
        genesis_events = sum(len(c.events) for c in system.chains.values())
        start = clock()
        call = recorder.call
        request_slot: dict[int, int] = {}
        latencies: list[int] = []
        expected_unbacked = 0
        nonce = 0
        log_max = 0
        for slot in range(1, self.SLOTS + 1):
            t0 = mark()
            phase = slot % 1000
            if phase == self.CRASH_AT:
                call("relay", relay.register_relays, system,
                     {1: relay.CRASHED, 2: relay.CRASHED, 3: relay.BYZ_EQUIVOCATE})
            elif phase == self.CRASH_AT + self.CRASH_LEN:
                call("relay", relay.register_relays, system, {3: relay.BYZ_EQUIVOCATE})
            for src, dst, sender, target, amount in self.transfers[slot - 1]:
                tid = call("relay", relay.request_transfer, system, src, sender, amount, dst, target)
                if tid is not REFUSED:
                    request_slot[tid] = system.slot
            events = call("relay", relay.step, system)
            if events is not REFUSED:
                for ev in events:
                    if ev["type"] == "commit" and ev["transfer"] in request_slot:
                        latencies.append(ev["slot"] - request_slot[ev["transfer"]])
            if slot % self.GOVERNANCE_EVERY == 50:
                nonce = self._governance(system, recorder, slot, nonce)
            if slot % self.ATTACK_EVERY == 0:
                expected_unbacked += self._attack(system, recorder, slot)
                monitor = call("relay", relay.audit, system)
                if monitor is not REFUSED:
                    recorder.check(monitor.unbacked_minted == expected_unbacked,
                                   f"slot {slot}: audit sees {monitor.unbacked_minted} unbacked, "
                                   f"client expects {expected_unbacked}")
                call("ledger", system.state_digest)
            log_max = max(log_max, max(len(c.events) for c in system.chains.values()))
            steps.append(since(t0))
        self._drain(system, recorder, expected_unbacked)
        wall = clock() - start
        states = [t.state for t in system.transfers.values()]
        commits, aborts = states.count(relay.COMMITTED), states.count(relay.ABORTED)
        counts = _ledger_counts(system, genesis_events, log_max)
        counts.update({
            "relay.commits": commits,
            "relay.aborts": aborts,
            "relay.commit_ratio": commits / max(1, commits + aborts),
            "relay.commit_latency_slots.p99": p99(latencies) if latencies else 0,
        })
        return recorder.result(system, start, wall, steps, counts)

    def _governance(self, system, recorder: Recorder, slot: int, nonce: int) -> int:
        if slot == self.REPLAY_AT:
            action = relay.GovernanceAction("set_param", {"name": "transfer_timeout", "value": 20}, nonce)
            before = recorder.rejected.get("relay.rejected.StaleNonceError", 0)
            recorder.call("relay", relay.submit_governance, system, action, {0, 1, 2, 3})
            refused = recorder.rejected.get("relay.rejected.StaleNonceError", 0) > before
            recorder.check(refused, f"slot {slot}: replayed governance nonce {nonce} was accepted")
            return nonce
        nonce += 1
        chain = (slot // self.GOVERNANCE_EVERY) % 3
        kind = ("add_ward", "remove_ward", "set_param")[(slot // self.GOVERNANCE_EVERY) % 3]
        payload = ({"name": "transfer_timeout", "value": 20} if kind == "set_param"
                   else {"account": 7, "chain": chain})
        accepted = recorder.call("relay", relay.submit_governance, system,
                                 relay.GovernanceAction(kind, payload, nonce), {0, 1, 2, 3})
        recorder.check(accepted is True, f"slot {slot}: governance nonce {nonce} not accepted")
        return nonce

    def _attack(self, system, recorder: Recorder, slot: int) -> int:
        """Run the 51% attack on a rotating chain and return the unbacked
        amount the client predicts: every transfer out of the forked chain
        that committed after the fork point keeps its mint but loses its burn."""
        k = slot // self.ATTACK_EVERY
        chain = k % 3
        token = self.token_ids[chain]
        room = recorder.call("scenarios", scenarios.ceiling_headroom, system, token)
        if room is REFUSED:
            return 0
        h_prime = int(room * SCALE * Fraction(self.attack_fracs[k]))
        if h_prime == 0:
            return 0
        pending = [t for t in system.transfers.values() if t.state == relay.ESCROWED]
        report = recorder.call("scenarios", scenarios.compromised_chain_scenario, system, chain, h_prime)
        if report is REFUSED:
            return 0
        recorder.check(report.passed and not report.precondition_failed,
                       f"slot {slot}: compromised chain {chain} breaks the bound (h'={h_prime})")
        since = system.revert_log[-1]["since_slot"]
        recorder.check(system.revert_log[-1]["chain"] == chain, f"slot {slot}: fork on the wrong chain")
        unbacked = h_prime
        for t in pending:
            if t.state == relay.COMMITTED and t.source == chain:
                unbacked += t.amount  # committed at a slot >= since: burn reverted
        recorder.check(since > slot, f"slot {slot}: fork point {since} precedes the attack")
        return unbacked

    def _drain(self, system, recorder: Recorder, expected_unbacked: int) -> None:
        recorder.call("relay", relay.register_relays, system, {3: relay.BYZ_EQUIVOCATE})
        for _ in range(system.params.transfer_timeout + 1):
            recorder.call("relay", relay.step, system)
        monitor = recorder.call("relay", relay.audit, system)
        if monitor is REFUSED:
            return
        recorder.check(not monitor.stuck_escrows, f"stuck escrows after drain: {monitor.stuck_escrows[:5]}")
        recorder.check(monitor.unbacked_minted == expected_unbacked,
                       f"final audit sees {monitor.unbacked_minted} unbacked, "
                       f"client expects {expected_unbacked}")
        pending = sum(1 for t in system.transfers.values() if t.state == relay.ESCROWED)
        recorder.check(pending == 0, f"{pending} transfers still escrowed after drain")
