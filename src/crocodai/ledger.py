"""Event-sourced multi-chain ledger state machine.

Every state mutation on a coin chain is an event appended to that chain's
log; `fork_revert` is log truncation plus a rebuild from genesis, so
reversals are exact inverses and replay is bit-identical by construction.

Conventions:
  * stablecoin and collateral amounts are integers in minor units
    (scale 10**9 per whole unit),
  * CDP debt and the savings pot's surplus and interest paid are integers in
    1 / FEE_SCALE (10**-18) units, Dai's wad, read as exact `Fraction`s by
    `debt`, `surplus` and `interest_paid`, like protocol-side prices and ratios,
  * one clock slot corresponds to 5 minutes of data time.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import suppress
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any

from .errors import (
    DuplicateChainError,
    InsufficientBalanceError,
    NotCompromisedError,
    ProtocolError,
    UnknownChainError,
)

SCALE = 10**9
FEE_SCALE = 10**18  # debts, surplus and interest paid are held in 1 / FEE_SCALE units
MINOR = FEE_SCALE // SCALE  # one minor unit in 1 / FEE_SCALE units
SLOT_SECONDS = 300

# CDP lifecycle states
OPEN = "open"
IN_AUCTION = "in_auction"
CLOSED = "closed"
INSOLVENT = "insolvent"


@dataclass(frozen=True)
class Token:
    id: int
    symbol: str
    chain: int  # home chain id


@dataclass
class EscrowRecord:
    sender: int
    amount: int


@dataclass
class Cdp:
    owner: int
    token: int
    collateral: int = 0  # minor units of the collateral token
    debt_wad: int = 0  # 1 / FEE_SCALE stablecoin units
    state: str = OPEN

    @property
    def debt(self) -> Fraction:
        return Fraction(self.debt_wad, FEE_SCALE)


@dataclass
class Auction:
    start_slot: int
    best_bid: int = 0
    best_bidder: int | None = None
    last_bid_slot: int | None = None
    open: bool = True


@dataclass
class SavingsPot:
    deposits: dict[int, int] = field(default_factory=dict)
    surplus_wad: int = 0  # 1 / FEE_SCALE stablecoin units
    paid_wad: int = 0  # interest paid, 1 / FEE_SCALE stablecoin units

    @property
    def surplus(self) -> Fraction:
        return Fraction(self.surplus_wad, FEE_SCALE)

    @property
    def interest_paid(self) -> Fraction:
        return Fraction(self.paid_wad, FEE_SCALE)


@dataclass
class Event:
    slot: int
    kind: str
    payload: dict[str, Any]


class CoinChain:
    """State of one simulated coin chain, rebuilt on demand from its event log."""

    def __init__(self, chain_id: int, name: str, balances: dict[int, int], wards: set[int]):
        self.id = chain_id
        self.name = name
        self._genesis_balances = dict(balances)
        self._genesis_wards = set(wards)
        self.compromised = False
        self.events: list[Event] = []
        self.reset_state()

    def reset_state(self) -> None:
        self.balances: dict[int, int] = dict(self._genesis_balances)
        self.wards: set[int] = set(self._genesis_wards)
        self.escrows: dict[int, EscrowRecord] = {}
        self.cdps: dict[int, Cdp] = {}
        self.auctions: dict[int, Auction] = {}
        self.pot = SavingsPot()

    def balance(self, account: int) -> int:
        return self.balances.get(account, 0)

    def held_supply(self) -> int:
        """Coins on this chain: balances plus escrowed/contract-held amounts."""
        total = sum(self.balances.values())
        total += sum(e.amount for e in self.escrows.values())
        total += sum(a.best_bid for a in self.auctions.values() if a.open)
        total += sum(self.pot.deposits.values())
        return total


class System:
    """Container for all chains, tokens, prices and the shared slot clock.

    Single-threaded deterministic state machine; snapshots (digests) are
    plain values safe to compare across runs. `params` is the protocol's
    `stablecoin.SystemParams`.
    """

    def __init__(self, params):
        self.params = params
        self.chains: dict[int, CoinChain] = {}
        self._chain_names: dict[str, int] = {}
        self.tokens: dict[int, Token] = {}
        self._token_symbols: dict[str, int] = {}
        self.prices: dict[int, Fraction] = {}
        self.slot = 0
        # relay-module state (owned by crocodai.relay, stored here so the
        # whole world is one deterministic value); the relay roster is
        # range(params.relay_n), and a relay that `relays` does not name is honest
        self.relays: dict[int, str] = {}  # relay id -> behavior
        self.transfers: dict[int, Any] = {}
        # the escrowed subset of `transfers`, in id order: a relay round
        # walks only these, so its cost does not grow with history
        self.pending_transfers: dict[int, Any] = {}
        self.staged_governance: list[Any] = []  # each takes effect at the next step
        self.applied_nonces: set[int] = set()
        self.deprecated_contracts: set[str] = set()
        self.revert_log: list[dict[str, Any]] = []
        # chains, tokens and transfers are never removed, so each new id is
        # the count so far; a fork can drop a CDP, so CDP ids keep a counter
        self._next_cdp = 0

    # ------------------------------------------------------------------
    # registration

    def create_chain(self, config: dict[str, Any] | None = None) -> int:
        name, balances, wards = self.chain_config({} if config is None else config)
        chain_id = len(self.chains)
        self.chains[chain_id] = CoinChain(chain_id, name, balances, wards)
        self._chain_names[name] = chain_id
        return chain_id

    def chain_config(self, config: dict[str, Any]) -> tuple[str, dict[int, int], set[int]]:
        """The name, genesis balances and wards `create_chain(config)` would
        give a chain now, read whole and changing nothing: a str name not yet
        registered (default ``chain-<id>``), account ids that are ints or their
        decimal strings, balances >= 0 and wards that are ints, never bools.
        Else a ProtocolError."""
        if not isinstance(config, dict):
            raise ProtocolError(f"chain config must be a dict, got {config!r}")
        name = config.get("name", f"chain-{len(self.chains)}")
        if type(name) is not str:
            raise ProtocolError(f"chain name must be a str, got {name!r}")
        if name in self._chain_names:
            raise DuplicateChainError(f"chain name already registered: {name!r}")
        accounts, wards = config.get("accounts", {}), config.get("wards", [])
        if not isinstance(accounts, dict) or not isinstance(wards, (list, tuple, set, frozenset)):
            raise ProtocolError("chain accounts must be a dict and wards a list")
        balances = {read_id(k): v for k, v in accounts.items()}
        if any(type(v) is not int or v < 0 for v in balances.values()):
            raise ProtocolError("initial balances must be ints >= 0")
        if any(type(w) is not int for w in wards):
            raise ProtocolError(f"wards must be ints, got {list(wards)!r}")
        return name, balances, set(wards)

    def chain(self, chain_id: int) -> CoinChain:
        try:
            return self.chains[chain_id]
        except KeyError:
            raise UnknownChainError(f"unknown chain id {chain_id}") from None

    def chain_by_name(self, name: str) -> CoinChain:
        if name not in self._chain_names:
            raise UnknownChainError(f"unknown chain name {name!r}")
        return self.chains[self._chain_names[name]]

    def register_token(self, symbol: str, chain_id: int) -> int:
        self.chain(chain_id)
        if symbol in self._token_symbols:
            raise ProtocolError(f"token symbol already registered: {symbol!r}")
        token_id = len(self.tokens)
        self.tokens[token_id] = Token(token_id, symbol, chain_id)
        self._token_symbols[symbol] = token_id
        return token_id

    def token_by_symbol(self, symbol: str) -> Token:
        if symbol not in self._token_symbols:
            raise ProtocolError(f"unknown token symbol {symbol!r}")
        return self.tokens[self._token_symbols[symbol]]

    def set_price(self, token_id: int, price: Fraction | int | str) -> None:
        if token_id not in self.tokens:
            raise ProtocolError(f"unknown token id {token_id}")
        try:
            p = Fraction(price)
        except (ValueError, OverflowError):  # NaN, +-inf, or no number at all
            raise ProtocolError(f"price {price!r}: not finite or not a number") from None
        if p < 0:
            raise ProtocolError("prices must be >= 0")
        self.prices[token_id] = p

    def new_cdp_id(self) -> int:
        cdp_id = self._next_cdp
        self._next_cdp += 1
        return cdp_id

    # ------------------------------------------------------------------
    # clock

    def tick(self) -> int:
        self.slot += 1
        return self.slot

    # ------------------------------------------------------------------
    # event application (the single mutation path)

    def apply(self, chain_id: int, kind: str, payload: dict[str, Any]) -> Event:
        chain = self.chain(chain_id)
        ev = Event(self.slot, kind, payload)
        chain.events.append(ev)
        _apply_to_state(chain, ev)
        return ev

    # ------------------------------------------------------------------
    # ledger operations

    def transfer_local(self, chain_id: int, frm: int, to: int, amount: int) -> None:
        chain = self.chain(chain_id)
        if amount < 0:
            raise ProtocolError("transfer amount must be >= 0")
        if chain.balance(frm) < amount:
            raise InsufficientBalanceError(
                f"account {frm} holds {chain.balance(frm)}, needs {amount}"
            )
        if amount == 0:
            return
        self.apply(chain_id, "transfer", {"from": frm, "to": to, "amount": amount})

    def total_circulating(self) -> int:
        """Total stablecoin supply in minor units, escrowed amounts included."""
        return sum(chain.held_supply() for chain in self.chains.values())

    def mark_compromised(self, chain_id: int) -> None:
        # out-of-band attack fact, deliberately not an event: a fork must not
        # be able to erase its own precondition
        self.chain(chain_id).compromised = True

    def fork_revert(self, chain_id: int, since_slot: int) -> dict[str, Any]:
        """Undo every state mutation on the chain with slot >= since_slot.

        Implemented as log truncation plus replay from genesis; logs a revert
        record for the invariant monitor and returns it.
        """
        chain = self.chain(chain_id)
        if not chain.compromised:
            raise NotCompromisedError(f"chain {chain_id} is not marked compromised")
        kept = [e for e in chain.events if e.slot < since_slot]
        dropped = len(chain.events) - len(kept)
        chain.reset_state()
        for ev in kept:
            _apply_to_state(chain, ev)
        chain.events = kept
        record = {
            "type": "fork_revert",
            "chain": chain_id,
            "since_slot": since_slot,
            "dropped_events": dropped,
            "at_slot": self.slot,
        }
        self.revert_log.append(record)
        return record

    # ------------------------------------------------------------------
    # introspection

    def state_digest(self) -> str:
        """Canonical hash of all chain state; equal digests mean equal states."""
        view: dict[str, Any] = {}
        for cid in sorted(self.chains):
            c = self.chains[cid]
            view[str(cid)] = {
                "balances": {str(k): v for k, v in sorted(c.balances.items())},
                "escrows": {str(k): [e.sender, e.amount] for k, e in sorted(c.escrows.items())},
                "wards": sorted(c.wards),
                "cdps": {
                    str(k): [d.owner, d.token, d.collateral, str(d.debt), d.state]
                    for k, d in sorted(c.cdps.items())
                },
                "auctions": {
                    str(k): [a.best_bid, a.best_bidder, a.start_slot, a.last_bid_slot, a.open]
                    for k, a in sorted(c.auctions.items())
                },
                "pot": [
                    {str(k): v for k, v in sorted(c.pot.deposits.items())},
                    str(c.pot.surplus),
                    str(c.pot.interest_paid),
                ],
                "compromised": c.compromised,
            }
        blob = json.dumps(view, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def read_id(key, what: str = "account id") -> int:
    """An account, relay or token id: an int, or its decimal string (JSON keys
    are strings), never a bool, a float or a padded or signed string."""
    if type(key) is int:
        return key
    with suppress(ArithmeticError, TypeError, ValueError):  # int() of inf, None, "x"
        if str(int(key)) == key:
            return int(key)
    raise ProtocolError(f"{what} {key!r} is not an int or its decimal string")


# ----------------------------------------------------------------------
# event appliers: pure state writes, no validation (operations validate)


def _apply_to_state(chain: CoinChain, ev: Event) -> None:
    kind, p, b = ev.kind, ev.payload, chain.balances
    if kind == "transfer":
        b[p["from"]] = b.get(p["from"], 0) - p["amount"]
        b[p["to"]] = b.get(p["to"], 0) + p["amount"]
    elif kind == "mint":
        b[p["account"]] = b.get(p["account"], 0) + p["amount"]
    elif kind == "escrow_create":
        b[p["sender"]] = b.get(p["sender"], 0) - p["amount"]
        chain.escrows[p["transfer"]] = EscrowRecord(p["sender"], p["amount"])
    elif kind == "escrow_burn":
        del chain.escrows[p["transfer"]]
    elif kind == "escrow_refund":
        rec = chain.escrows.pop(p["transfer"])
        b[rec.sender] = b.get(rec.sender, 0) + rec.amount
    elif kind == "ward_add":
        chain.wards.add(p["account"])
    elif kind == "ward_remove":
        chain.wards.discard(p["account"])
    elif kind == "cdp_open":
        chain.cdps[p["cdp"]] = Cdp(p["owner"], p["token"])
    elif kind == "cdp_deposit":
        chain.cdps[p["cdp"]].collateral += p["amount"]
    elif kind == "cdp_withdraw_collateral":
        chain.cdps[p["cdp"]].collateral -= p["amount"]
    elif kind == "cdp_mint":
        cdp = chain.cdps[p["cdp"]]
        cdp.debt_wad += p["amount"] * MINOR
        b[cdp.owner] = b.get(cdp.owner, 0) + p["amount"]
    elif kind == "cdp_repay":
        cdp = chain.cdps[p["cdp"]]
        cdp.debt_wad -= p["amount"] * MINOR
        b[cdp.owner] = b.get(cdp.owner, 0) - p["amount"]
    elif kind == "cdp_close":
        chain.cdps[p["cdp"]].state = CLOSED
    elif kind == "fee_accrue":
        for cdp_id, new_debt in p["debts"].items():
            chain.cdps[int(cdp_id)].debt_wad = new_debt
        chain.pot.surplus_wad += p["surplus_delta"]
    elif kind == "auction_start":
        chain.auctions[p["cdp"]] = Auction(ev.slot)
        chain.cdps[p["cdp"]].state = IN_AUCTION
    elif kind == "auction_bid":
        a = chain.auctions[p["cdp"]]
        if a.best_bidder is not None:
            b[a.best_bidder] = b.get(a.best_bidder, 0) + a.best_bid
        b[p["bidder"]] = b.get(p["bidder"], 0) - p["amount"]
        a.best_bid = p["amount"]
        a.best_bidder = p["bidder"]
        a.last_bid_slot = ev.slot
    elif kind == "auction_settle":
        a = chain.auctions[p["cdp"]]
        cdp = chain.cdps[p["cdp"]]
        a.open = False
        if p["winner"] is not None:
            # bid escrow disposed: burned part vanishes, penalty to surplus,
            # remainder refunded to the CDP owner, collateral to the winner
            chain.pot.surplus_wad += p["to_surplus"] * MINOR
            if p["refund"]:
                b[cdp.owner] = b.get(cdp.owner, 0) + p["refund"]
            cdp.collateral = 0
        if p["insolvent"]:
            if p["winner"] is not None:
                cdp.debt_wad -= p["burned"] * MINOR
            cdp.state = INSOLVENT
        else:
            cdp.debt_wad = 0
            cdp.state = CLOSED
    elif kind == "savings_deposit":
        b[p["user"]] = b.get(p["user"], 0) - p["amount"]
        chain.pot.deposits[p["user"]] = chain.pot.deposits.get(p["user"], 0) + p["amount"]
    elif kind == "savings_accrue":
        for user, payout in p["payouts"].items():
            chain.pot.deposits[int(user)] = chain.pot.deposits.get(int(user), 0) + payout
        total = p["total"] * MINOR
        chain.pot.surplus_wad -= total
        chain.pot.paid_wad += total
    elif kind == "savings_withdraw":
        chain.pot.deposits[p["user"]] -= p["amount"]
        b[p["user"]] = b.get(p["user"], 0) + p["amount"]
    else:
        raise ProtocolError(f"unknown event kind {kind!r}")
