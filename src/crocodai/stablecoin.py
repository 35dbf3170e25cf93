"""CDP lifecycle, stability fees, liquidation auctions, savings pot and the
system-level full-backing check.

All accept/reject decisions are made with exact arithmetic: debt and the
savings pot are integers in 10**-18 units, prices, rates and ratios are
Fractions, and the growth factors (1 + rate) ** slots are integers in
10**-100 units (`_growth`, Dai's rpow). A fee-accrued debt is its product
with the factor, rounded half up. Each rule is written once, and the attack
checkers ask the functions the operations obey: `above_ratio` (p*c > gamma*D,
strict) and `mint_headroom` (the bootstrap cap while total debt is 0, else
D_m + h < zeta (D + h), strict). An unpriced token backs nothing. Every CDP
operation but a bid or a settlement passes one guard, `_guard_cdp` (the CDP
exists, the amount is not negative, the CDP is open), so a CDP under auction
cannot be funded, repaid, minted against, emptied or closed.
"""

from __future__ import annotations

import math
import sys
from contextlib import suppress
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import Any

from .errors import (
    AuctionError,
    CeilingViolationError,
    InsufficientBalanceError,
    InvalidParameterError,
    ProtocolError,
    RatioViolationError,
)
from .ledger import FEE_SCALE, MINOR, OPEN, SCALE, Auction, Cdp, CoinChain, System, read_id

# a debt stays below DEBT_BOUND in 1 / FEE_SCALE units (10**42 units), so no
# debt takes a growth factor past DEBT_BOUND; factors are whole multiples of
# 1 / GROWTH_SCALE, and the 2 * slots - 1 roundings of `_growth` keep a
# fee-accrued debt within 1/2 + slots * 10**-40 of a 10**-18 unit of exact
DEBT_BOUND, GROWTH_SCALE = 10**60, 10**100

MAX_RELAYS = 64  # the largest relay_n: a relay round visits every relay for each pending transfer


@dataclass(frozen=True)
class SystemParams:
    """Governance-controlled protocol parameters.

    gamma > theta > 1 is required; per-token debt ceilings are fractions of
    system-wide debt (1 means unconstrained). The relay quorum needs
    n >= 3f+1 so that 2f+1 votes certify a decision, and n <= MAX_RELAYS.
    An int field takes an int or its decimal string, never a bool or a
    fraction.
    """

    gamma: Fraction = Fraction(3, 2)  # liquidation ratio
    theta: Fraction = Fraction(11, 10)  # full-backing safety threshold
    stability_fee: Fraction = Fraction(0)  # per-slot debt growth rate
    savings_rate: Fraction = Fraction(0)  # per-slot DSR rate
    liquidation_penalty: Fraction = Fraction(13, 100)
    debt_ceilings: dict[int, Fraction] = field(default_factory=dict)  # token id -> zeta
    auction_duration: int = 12  # slots
    bid_duration: int = 6  # slots
    min_bid_step: Fraction = Fraction(3, 100)
    relay_n: int = 4
    relay_f: int = 1
    transfer_timeout: int = 20  # slots
    bootstrap_ceiling: int = 10**6 * SCALE  # absolute cap for mints while total debt is 0

    def __post_init__(self):
        # every field is read as from_json reads it: a float as its decimal string
        for name, value in vars(self).items():
            object.__setattr__(self, name, _coerce_param(name, value))
        self.validate()

    def validate(self) -> None:
        if not (self.gamma > self.theta > 1):
            raise InvalidParameterError(
                f"need gamma > theta > 1, got gamma={self.gamma}, theta={self.theta}"
            )
        for name in ("stability_fee", "savings_rate", "liquidation_penalty", "min_bid_step"):
            if getattr(self, name) < 0:
                raise InvalidParameterError(f"{name} must be >= 0")
        for token, zeta in self.debt_ceilings.items():
            if not (0 <= zeta <= 1):
                raise InvalidParameterError(f"debt ceiling for token {token} not in [0,1]")
        if self.auction_duration <= 0 or self.bid_duration <= 0:
            raise InvalidParameterError("auction durations must be positive")
        if self.relay_f < 0 or self.relay_n < 3 * self.relay_f + 1:
            raise InvalidParameterError(
                f"relay quorum needs n >= 3f+1, got n={self.relay_n}, f={self.relay_f}"
            )
        if self.relay_n > MAX_RELAYS:
            raise InvalidParameterError(f"relay_n must be <= {MAX_RELAYS}", "relay_n")
        if self.transfer_timeout <= 0:
            raise InvalidParameterError("transfer_timeout must be positive")
        if self.bootstrap_ceiling < 0:
            raise InvalidParameterError("bootstrap_ceiling must be >= 0")

    def ceiling(self, token_id: int) -> Fraction:
        return self.debt_ceilings.get(token_id, Fraction(1))

    def with_param(self, name: str, value) -> "SystemParams":
        if name not in self.__dataclass_fields__:
            raise InvalidParameterError(f"unknown parameter {name!r}")
        return replace(self, **{name: value})

    @classmethod
    def from_json(cls, doc: dict[str, Any]) -> "SystemParams":
        unknown = sorted(set(doc) - set(cls.__dataclass_fields__))
        if unknown:
            raise InvalidParameterError(f"unknown parameter {unknown[0]!r}", unknown[0])
        return cls(**doc)


def exact_fraction(value) -> Fraction:
    """Fraction(str(value)): a number, or a numeric string such as "1/3" or
    "2.5e-3". A decimal exponent past sys.get_int_max_str_digits() raises
    OverflowError before 10**exponent is built, whose cost grows faster than
    the exponent."""
    if isinstance(value, Fraction):
        return value
    text = str(value)
    exponent = text.lower().partition("e")[2]  # no other Fraction literal has an "e"
    limit = sys.get_int_max_str_digits() or sys.int_info.default_max_str_digits
    if exponent and abs(int(exponent)) > limit:
        raise OverflowError(f"decimal exponent of {text!r} is past +-{limit}")
    return Fraction(text)


def _coerce_param(name: str, value):
    try:
        if name in ("gamma", "theta", "stability_fee", "savings_rate", "liquidation_penalty",
                    "min_bid_step"):
            return exact_fraction(value)
        if name == "debt_ceilings":
            return {read_id(k, "token id"): exact_fraction(v) for k, v in dict(value).items()}
    except (OverflowError, ProtocolError) as exc:
        raise InvalidParameterError(f"parameter {name}: {exc}", name) from None
    except (ArithmeticError, TypeError, ValueError):
        raise InvalidParameterError(f"parameter {name}: not a number: {value!r}", name) from None
    # an int field: int() alone would take true as 1, truncate 4.9 to 4 and
    # read 1e30, a float past 2**53, as the nearest double's integer
    if not isinstance(value, bool) and not (isinstance(value, float) and abs(value) > 2**53):
        with suppress(ArithmeticError, TypeError, ValueError):
            number = int(value)
            if isinstance(value, str) or number == value:
                return number
    raise InvalidParameterError(f"parameter {name}: not an integer: {value!r}", name)


# ----------------------------------------------------------------------
# helpers


def _find_cdp(system: System, cdp_id: int) -> tuple[CoinChain, Cdp]:
    for chain in system.chains.values():
        if cdp_id in chain.cdps:
            return chain, chain.cdps[cdp_id]
    raise ProtocolError(f"unknown CDP id {cdp_id}")


def _guard_cdp(system: System, cdp_id: int, amount: int = 0, what: str = "amount",
               error: type[ProtocolError] = ProtocolError) -> tuple[CoinChain, Cdp]:
    """The preamble of every CDP operation: the CDP exists, `amount` is not
    negative and the CDP is open; the last two are refused as `error`."""
    chain, cdp = _find_cdp(system, cdp_id)
    if amount < 0:
        raise error(f"{what} must be >= 0")
    if cdp.state != OPEN:
        raise error(f"CDP {cdp_id} is not open")
    return chain, cdp


def _approx(x: Fraction) -> str:
    """x to 6 significant digits for a message."""
    try:
        return f"{float(x):.6g}"
    except OverflowError:  # past the float range
        return "-inf" if x < 0 else "inf"


def price_of(system: System, token_id: int) -> Fraction:
    return system.prices.get(token_id, Fraction(0))


def above_ratio(price, collateral: int, debt_wad: int, gamma) -> bool:
    """The ratio rule: collateral (minor units) at `price` is worth strictly
    more than gamma times the debt (1 / FEE_SCALE units), p * c > gamma * D
    cross-multiplied over the rationals' denominators."""
    return (price.numerator * gamma.denominator * collateral * MINOR
            > gamma.numerator * price.denominator * debt_wad)


def _book(system: System) -> tuple[dict[int, int], dict[int, int]]:
    """Per token, the collateral (minor units) and the nonzero debt (1 / FEE_SCALE units)."""
    collateral, debt = {}, {}
    for chain in system.chains.values():
        for cdp in chain.cdps.values():
            collateral[cdp.token] = collateral.get(cdp.token, 0) + cdp.collateral
            if cdp.debt_wad:
                debt[cdp.token] = debt.get(cdp.token, 0) + cdp.debt_wad
    return collateral, debt


def debt_totals(system: System) -> tuple[dict[int, Fraction], Fraction]:
    """Exact per-token and total debt across every chain."""
    per_token = {t: Fraction(d, FEE_SCALE) for t, d in _book(system)[1].items()}
    return per_token, sum(per_token.values(), Fraction(0))


def mint_headroom(params: SystemParams, token_id: int, totals) -> Fraction | None:
    """The mint-ceiling rule: at the `debt_totals` `totals`, a mint of h
    stablecoin units against `token_id` is allowed iff h < the returned bound
    (None: no bound). While total debt D is 0 the bootstrap cap applies
    (h <= cap, in minor units); otherwise D_m + h < zeta (D + h), i.e.
    h < (zeta D - D_m) / (1 - zeta) for zeta < 1.
    """
    per_token, total = totals
    if total == 0:
        return Fraction(params.bootstrap_ceiling + 1, SCALE)
    zeta = params.ceiling(token_id)
    if zeta >= 1:
        return None
    return (zeta * total - per_token.get(token_id, Fraction(0))) / (1 - zeta)


def ceiling_allows(params: SystemParams, token_id: int, totals, amount: int) -> bool:
    """The mint-ceiling rule's verdict on minting `amount` minor units."""
    room = mint_headroom(params, token_id, totals)
    return room is None or Fraction(amount, SCALE) < room


# ----------------------------------------------------------------------
# CDP lifecycle


def open_cdp(system: System, chain_id: int, owner: int, token_id: int) -> int:
    chain = system.chain(chain_id)
    token = system.tokens.get(token_id)
    if token is None or token.chain != chain_id:
        raise ProtocolError(f"token {token_id} is not registered on chain {chain_id}")
    cdp_id = system.new_cdp_id()
    system.apply(chain.id, "cdp_open", {"cdp": cdp_id, "owner": owner, "token": token_id})
    return cdp_id


def deposit_collateral(system: System, cdp_id: int, amount: int) -> None:
    chain, _ = _guard_cdp(system, cdp_id, amount, "deposit amount")
    if amount == 0:
        return
    system.apply(chain.id, "cdp_deposit", {"cdp": cdp_id, "amount": amount})


def repay_debt(system: System, cdp_id: int, amount: int) -> None:
    chain, cdp = _guard_cdp(system, cdp_id, amount, "repay amount")
    if chain.balance(cdp.owner) < amount:
        raise InsufficientBalanceError(f"owner {cdp.owner} cannot cover repayment of {amount}")
    if amount * MINOR > cdp.debt_wad:
        raise ProtocolError(f"repay {amount} exceeds outstanding debt {_approx(cdp.debt)}")
    if amount == 0:
        return
    system.apply(chain.id, "cdp_repay", {"cdp": cdp_id, "amount": amount})


def withdraw_stablecoins(system: System, cdp_id: int, amount: int) -> int:
    """Mint `amount` minor units against the CDP.

    Accepted only if, after the action, the CDP stays strictly above the
    liquidation ratio and the mint-ceiling rule allows the mint.
    """
    chain, cdp = _guard_cdp(system, cdp_id, amount, "mint amount")
    params: SystemParams = system.params
    if amount == 0:
        return 0

    price = price_of(system, cdp.token)
    new_wad = cdp.debt_wad + amount * MINOR
    if not above_ratio(price, cdp.collateral, new_wad, params.gamma):
        raise RatioViolationError(
            f"collateral value {_approx(price * cdp.collateral / SCALE)} would not strictly "
            f"exceed gamma * debt = {_approx(params.gamma * Fraction(new_wad, FEE_SCALE))}"
        )
    if not ceiling_allows(params, cdp.token, debt_totals(system), amount):
        raise CeilingViolationError(
            f"a mint of {amount} against token {cdp.token} would breach the debt ceiling"
        )

    system.apply(chain.id, "cdp_mint", {"cdp": cdp_id, "amount": amount})
    return amount


def withdraw_collateral(system: System, cdp_id: int, amount: int) -> None:
    chain, cdp = _guard_cdp(system, cdp_id, amount, "withdrawal amount")
    if amount > cdp.collateral:
        raise ProtocolError(f"withdrawal {amount} exceeds collateral {cdp.collateral}")
    if cdp.debt_wad and not above_ratio(
        price_of(system, cdp.token), cdp.collateral - amount, cdp.debt_wad, system.params.gamma
    ):
        raise RatioViolationError("withdrawal would breach the liquidation ratio")
    if amount == 0:
        return
    system.apply(chain.id, "cdp_withdraw_collateral", {"cdp": cdp_id, "amount": amount})


def close_cdp(system: System, cdp_id: int) -> None:
    chain, cdp = _guard_cdp(system, cdp_id)
    if cdp.debt_wad:
        raise ProtocolError(f"CDP {cdp_id} still has debt {_approx(cdp.debt)}")
    withdraw_collateral(system, cdp_id, cdp.collateral)
    system.apply(chain.id, "cdp_close", {"cdp": cdp_id})


# ----------------------------------------------------------------------
# fees and liquidation


def accrue_stability_fee(system: System, slots: int) -> None:
    """Grow every open CDP's debt by (1+delta)^slots; the increase becomes
    surplus claimable through the savings pot of the CDP's chain."""
    if slots < 0:
        raise ProtocolError("slots must be >= 0")
    delta = system.params.stability_fee
    if slots == 0 or delta == 0:
        return
    factor = _growth(delta, slots)
    accruals = []  # every new debt is computed before any is applied
    for chain in system.chains.values():
        debts: dict[str, int] = {}  # in 1 / FEE_SCALE units
        surplus_delta = 0
        for cdp_id, cdp in chain.cdps.items():
            if cdp.state != OPEN or not cdp.debt_wad:
                continue
            new = _times(cdp.debt_wad, factor)
            if new >= DEBT_BOUND:
                raise ProtocolError(f"CDP {cdp_id}: debt {_approx(cdp.debt)} would not stay "
                                    f"below 10**42 units")
            surplus_delta += new - cdp.debt_wad
            debts[str(cdp_id)] = new
        if debts:
            accruals.append((chain.id, {"debts": debts, "surplus_delta": surplus_delta}))
    for chain_id, payload in accruals:
        system.apply(chain_id, "fee_accrue", payload)


def _times(a: int, b: int) -> int:
    """a * b / GROWTH_SCALE, rounded half up."""
    return (a * b + GROWTH_SCALE // 2) // GROWTH_SCALE


def _growth(rate: Fraction, slots: int) -> int:
    """(1 + rate) ** slots in 1 / GROWTH_SCALE units, by repeated squaring
    with every product rounded half up (Dai's rpow). A factor past DEBT_BOUND
    is refused as soon as a partial product passes it: none exceeds the
    result."""
    factor, n = GROWTH_SCALE, slots
    power = math.floor((1 + rate) * GROWTH_SCALE + Fraction(1, 2))
    while n:
        if n & 1:
            factor = _times(factor, power)
        n >>= 1
        if n:
            power = _times(power, power)
        if max(factor, power) > DEBT_BOUND * GROWTH_SCALE:
            raise ProtocolError(f"growth factor (1 + {rate}) ** {slots} is past 10**60")
    return factor


def check_liquidatable(cdp: Cdp, price: Fraction, gamma: Fraction) -> bool:
    """True iff p*c/D <= gamma with D > 0 (a debt-free CDP is never liquidatable)."""
    return bool(cdp.debt_wad) and not above_ratio(price, cdp.collateral, cdp.debt_wad, gamma)


# ----------------------------------------------------------------------
# collateral auctions (single-phase ascending)


def _open_auction(system: System, cdp_id: int) -> tuple[CoinChain, Cdp, Auction, int]:
    """The CDP's running auction and its deadline: the auction duration after
    its start, or the bid duration after the last bid if that comes first."""
    chain, cdp = _find_cdp(system, cdp_id)
    auction = chain.auctions.get(cdp_id)
    if auction is None or not auction.open:
        raise AuctionError(f"no open auction for CDP {cdp_id}")
    deadline = auction.start_slot + system.params.auction_duration
    if auction.last_bid_slot is not None:
        deadline = min(deadline, auction.last_bid_slot + system.params.bid_duration)
    return chain, cdp, auction, deadline


def start_auction(system: System, cdp_id: int) -> int:
    chain, cdp = _guard_cdp(system, cdp_id, error=AuctionError)
    if not check_liquidatable(cdp, price_of(system, cdp.token), system.params.gamma):
        raise AuctionError(f"CDP {cdp_id} is not liquidatable at the current price")
    system.apply(chain.id, "auction_start", {"cdp": cdp_id})
    return cdp_id


def place_bid(system: System, cdp_id: int, bidder: int, amount: int) -> None:
    chain, _, auction, deadline = _open_auction(system, cdp_id)
    if system.slot >= deadline:
        raise AuctionError("auction expired")
    if amount <= 0:
        raise AuctionError("bid must be positive")
    if auction.best_bidder is not None:
        min_next = Fraction(auction.best_bid) * (1 + system.params.min_bid_step)
        if Fraction(amount) < min_next:
            raise AuctionError(
                f"bid {amount} below minimum step, needs >= {_approx(min_next)}"
            )
    if chain.balance(bidder) < amount:
        raise InsufficientBalanceError(f"bidder {bidder} cannot cover bid of {amount}")
    system.apply(chain.id, "auction_bid", {"cdp": cdp_id, "bidder": bidder, "amount": amount})


def settle_auction(system: System, cdp_id: int) -> dict:
    """Settle at the deadline.

    With winning bid B and debt D: min(B, D) is burned against the debt,
    up to D*penalty of any excess goes to the savings-pot surplus, the rest
    is refunded to the CDP owner, and the winner takes all collateral.
    B < D (or no bids) leaves the CDP insolvent; the follow-up debt auction
    is out of scope and only logged.
    """
    chain, cdp, auction, deadline = _open_auction(system, cdp_id)
    if system.slot < deadline:
        raise AuctionError("auction deadline not reached")

    winner, bid = auction.best_bidder, auction.best_bid  # no bid: None, 0
    burned, to_surplus, refund, insolvent = bid, 0, 0, True
    debt_ceil = -(-cdp.debt_wad // MINOR)  # the debt in minor units, rounded up
    if winner is not None and bid >= debt_ceil:
        burned = debt_ceil
        to_surplus = min(bid - burned, cdp.debt_wad * system.params.liquidation_penalty // MINOR)
        refund, insolvent = bid - burned - to_surplus, False
    payload = {
        "cdp": cdp_id,
        "winner": winner,
        "bid": bid,
        "burned": burned,
        "to_surplus": to_surplus,
        "refund": refund,
        "collateral": 0 if winner is None else cdp.collateral,
        "insolvent": insolvent,
    }
    system.apply(chain.id, "auction_settle", payload)
    return payload


# ----------------------------------------------------------------------
# savings pot (DSR)


def savings_deposit(system: System, chain_id: int, user: int, amount: int) -> None:
    chain = system.chain(chain_id)
    if amount < 0:
        raise ProtocolError("deposit amount must be >= 0")
    if chain.balance(user) < amount:
        raise InsufficientBalanceError(f"user {user} cannot cover deposit of {amount}")
    if amount == 0:
        return
    system.apply(chain_id, "savings_deposit", {"user": user, "amount": amount})


def savings_accrue(system: System, chain_id: int, slots: int) -> dict[int, int]:
    """Pay depositors at the savings rate, capped by the available surplus.

    Each depositor is owed their deposit's growth, rounded down to minor
    units. Interest is minted against surplus and never exceeds it; when
    surplus is short the payout is pro-rata, rounded down per user.
    """
    chain = system.chain(chain_id)
    if slots < 0:
        raise ProtocolError("slots must be >= 0")
    rate = system.params.savings_rate
    if slots == 0 or rate == 0:
        return {}
    growth = _growth(rate, slots) - GROWTH_SCALE
    owed = {user: dep * growth // GROWTH_SCALE  # floor, minor units
            for user, dep in sorted(chain.pot.deposits.items())}
    total_owed = sum(owed.values())
    available = chain.pot.surplus_wad // MINOR  # floor
    if total_owed <= 0 or available <= 0:
        return {}
    paid = min(available, total_owed)  # each payout is its whole claim when all are covered
    payouts = {u: w * paid // total_owed for u, w in owed.items()}
    payouts = {u: w for u, w in payouts.items() if w > 0}
    if not payouts:
        return {}
    total = sum(payouts.values())
    system.apply(
        chain_id,
        "savings_accrue",
        {"payouts": {str(u): w for u, w in payouts.items()}, "total": total},
    )
    return payouts


def savings_withdraw(system: System, chain_id: int, user: int, amount: int | None = None) -> int:
    chain = system.chain(chain_id)
    held = chain.pot.deposits.get(user, 0)
    if amount is None:
        amount = held
    if amount < 0 or amount > held:
        raise ProtocolError(f"user {user} holds {held} in the pot, cannot withdraw {amount}")
    if amount == 0:
        return 0
    system.apply(chain_id, "savings_withdraw", {"user": user, "amount": amount})
    return amount


# ----------------------------------------------------------------------
# system-wide backing


@dataclass(frozen=True)
class BackingReport:
    collateral_value: Fraction
    total_debt: Fraction
    ratio: Fraction | None  # None encodes +infinity (no debt)
    ok: bool


def full_backing(system: System, prices=None) -> BackingReport:
    """Aggregate collateral value over aggregate debt, compared against theta."""
    prices_map = prices if prices is not None else system.prices
    collateral, debt = _book(system)
    c_star = sum((prices_map.get(t, 0) * c for t, c in collateral.items()), Fraction(0)) / SCALE
    d_star = Fraction(sum(debt.values()), FEE_SCALE)
    if d_star == 0:
        return BackingReport(c_star, d_star, None, True)
    ratio = c_star / d_star
    return BackingReport(c_star, d_star, ratio, ratio > system.params.theta)
