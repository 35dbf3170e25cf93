from decimal import Decimal
from fractions import Fraction

import pytest

from conftest import units
from crocodai import stablecoin as core
from crocodai.errors import (
    AuctionError,
    CeilingViolationError,
    InsufficientBalanceError,
    InvalidParameterError,
    ProtocolError,
    RatioViolationError,
)
from crocodai.ledger import CLOSED, FEE_SCALE, IN_AUCTION, INSOLVENT, SCALE, System
from crocodai.scenarios import _conservation
from crocodai.stablecoin import SystemParams


class TestParams:
    def test_defaults_valid(self):
        p = SystemParams()
        assert p.gamma == Fraction(3, 2) and p.theta == Fraction(11, 10)

    def test_gamma_must_exceed_theta(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(gamma=Fraction(11, 10), theta=Fraction(11, 10))

    def test_quorum_arithmetic(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(relay_n=3, relay_f=1)

    def test_with_param_roundtrip(self):
        p = SystemParams().with_param("gamma", "1.6")
        assert p.gamma == Fraction(8, 5)

    def test_fields_coerced_as_from_json_reads_them(self):
        # a string fee used to raise TypeError inside validate
        p = SystemParams(stability_fee="1e-8", gamma=1.6, debt_ceilings={"0": 0.4}, relay_n="4")
        assert p.stability_fee == Decimal("1e-8")
        assert p.gamma == Fraction("1.6") and p.ceiling(0) == Fraction(2, 5)
        assert p.relay_n == 4
        assert p == SystemParams.from_json(
            {"stability_fee": "1e-8", "gamma": 1.6, "debt_ceilings": {"0": 0.4}, "relay_n": 4}
        )
        with pytest.raises(InvalidParameterError, match="stability_fee"):
            SystemParams(stability_fee="cheap")
        with pytest.raises(InvalidParameterError, match="unknown parameter"):
            SystemParams().with_param("validate", 1)

    @pytest.mark.parametrize("value", [True, 4.9, Fraction(9, 2), "4.0", 1e30])
    def test_int_fields_are_not_truncated(self, value):
        # int() used to take true as 1, truncate 4.9 to 4 and read 1e30 as
        # 1000000000000000019884624838656
        with pytest.raises(InvalidParameterError, match="relay_n: not an integer"):
            SystemParams(relay_n=value)
        assert SystemParams(relay_n=4.0).relay_n == 4

    def test_relay_roster_is_capped(self):
        assert SystemParams(relay_n=core.MAX_RELAYS).relay_n == core.MAX_RELAYS
        with pytest.raises(InvalidParameterError, match="relay_n must be <="):
            SystemParams(relay_n=core.MAX_RELAYS + 1)

    def test_fraction_exponent_is_bounded(self):
        # Fraction("1e999999999") builds a billion-digit power of ten
        with pytest.raises(InvalidParameterError, match="gamma: decimal exponent"):
            SystemParams(gamma="1e-999999999")
        assert SystemParams(gamma="1e4300").gamma == 10**4300

    def test_rates_are_read_as_fractions(self):
        # rates used to be Decimals: "1/3" was refused and "1e-999999999" accepted
        assert SystemParams(stability_fee="1/3").stability_fee == Fraction(1, 3)
        with pytest.raises(InvalidParameterError, match="savings_rate: decimal exponent"):
            SystemParams(savings_rate="1e-999999999")

    def test_from_json_is_order_independent(self):
        # fields used to be set one at a time, so theta 1.6 met the default gamma 1.5
        p = SystemParams.from_json({"theta": 1.6, "gamma": 2})
        assert (p.gamma, p.theta) == (Fraction(2), Fraction(8, 5))
        with pytest.raises(InvalidParameterError, match="unknown parameter 'gama'"):
            SystemParams.from_json({"gama": 2})

    @pytest.mark.parametrize("key", [1.9, True, "05", " 1", "x"])
    def test_ceiling_token_ids_are_ints_or_their_decimal_strings(self, key):
        # int(key) used to fold 1.9 and True into token 1
        with pytest.raises(InvalidParameterError, match="debt_ceilings") as err:
            SystemParams(debt_ceilings={key: "0.3"})
        assert err.value.param == "debt_ceilings"

    def test_ceiling_range(self):
        with pytest.raises(InvalidParameterError):
            SystemParams(debt_ceilings={0: Fraction(3, 2)})

    def test_from_json(self):
        p = SystemParams.from_json(
            {"gamma": 1.6, "theta": 1.2, "stability_fee": "0.001",
             "min_bid_step": 0.05, "debt_ceilings": {"0": 0.4}, "transfer_timeout": 10}
        )
        assert p.gamma == Fraction("1.6")
        assert p.stability_fee == Decimal("0.001")
        assert p.ceiling(0) == Fraction("0.4") and p.ceiling(1) == 1
        assert p.transfer_timeout == 10

    def test_from_json_rejects_bad_combination(self):
        with pytest.raises(InvalidParameterError):
            SystemParams.from_json({"gamma": 1.2, "theta": 1.3})


def vault_system(gamma="1.5", ceilings=None, penalty="0.13", fee="0"):
    params = SystemParams(
        gamma=Fraction(gamma),
        theta=Fraction("1.1"),
        liquidation_penalty=Fraction(penalty),
        stability_fee=Decimal(fee),
        debt_ceilings=ceilings or {},
    )
    sys_ = System(params)
    cid = sys_.create_chain({"name": "main", "accounts": {"1": units(1000), "2": units(1000)}})
    eth = sys_.register_token("ETH", cid)
    oth = sys_.register_token("OTH", cid)
    sys_.set_price(eth, 1)
    sys_.set_price(oth, 1)
    sys_.main, sys_.eth, sys_.oth = cid, eth, oth
    return sys_


class TestCdpLifecycle:
    def test_open_cdp(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        assert sys_.chains[sys_.main].cdps[cdp].collateral == 0
        assert sys_.chains[sys_.main].cdps[cdp].debt == 0

    def test_open_for_foreign_token_rejected(self):
        sys_ = vault_system()
        other = sys_.create_chain({"name": "other"})
        btc = sys_.register_token("BTC", other)
        with pytest.raises(ProtocolError):
            core.open_cdp(sys_, sys_.main, 1, btc)

    def test_ids_distinct(self):
        sys_ = vault_system()
        a = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        b = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        assert a != b

    def test_repay_to_zero_then_close(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(100))
        core.withdraw_stablecoins(sys_, cdp, units(50))
        core.repay_debt(sys_, cdp, units(50))
        assert sys_.chains[sys_.main].cdps[cdp].debt == 0
        core.close_cdp(sys_, cdp)
        assert sys_.chains[sys_.main].cdps[cdp].state == CLOSED

    def test_deposit_zero_noop(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        before = sys_.state_digest()
        core.deposit_collateral(sys_, cdp, 0)
        assert sys_.state_digest() == before

    def test_overrepay_rejected(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(100))
        core.withdraw_stablecoins(sys_, cdp, units(50))
        with pytest.raises(ProtocolError):
            core.repay_debt(sys_, cdp, units(60))

    def test_close_with_debt_rejected(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(100))
        core.withdraw_stablecoins(sys_, cdp, units(1))
        with pytest.raises(ProtocolError):
            core.close_cdp(sys_, cdp)


class TestWithdrawStablecoins:
    def test_liquidation_ratio_is_strict(self):
        # collateral value 150, gamma 1.5: exactly 100 fails, 99.99 passes
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(150))
        with pytest.raises(RatioViolationError):
            core.withdraw_stablecoins(sys_, cdp, units(100))
        assert core.withdraw_stablecoins(sys_, cdp, units(99.99)) == units(99.99)

    def test_fractional_debt_ceiling(self):
        # zeta=0.5 for ETH; with 100 units of other-type debt the largest
        # acceptable ETH mint is strictly below 100
        sys_ = vault_system(ceilings={0: Fraction(1, 2)})
        other = core.open_cdp(sys_, sys_.main, 2, sys_.oth)
        core.deposit_collateral(sys_, other, units(1000))
        core.withdraw_stablecoins(sys_, other, units(100))

        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(1000))
        with pytest.raises(CeilingViolationError):
            core.withdraw_stablecoins(sys_, cdp, units(120))
        with pytest.raises(CeilingViolationError):
            core.withdraw_stablecoins(sys_, cdp, units(100))  # boundary: strict
        assert core.withdraw_stablecoins(sys_, cdp, units(99)) == units(99)

    def test_zero_request_noop(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(10))
        before = sys_.state_digest()
        assert core.withdraw_stablecoins(sys_, cdp, 0) == 0
        assert sys_.state_digest() == before

    def test_bootstrap_ceiling_caps_first_mint(self):
        sys_ = vault_system(ceilings={0: Fraction(1, 2)})
        sys_.params = SystemParams(
            debt_ceilings={0: Fraction(1, 2)}, bootstrap_ceiling=units(10)
        )
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(1000))
        with pytest.raises(CeilingViolationError):
            core.withdraw_stablecoins(sys_, cdp, units(11))
        assert core.withdraw_stablecoins(sys_, cdp, units(10)) == units(10)

    def test_minted_equals_debt_created(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(300))
        core.withdraw_stablecoins(sys_, cdp, units(123))
        assert sys_.chains[sys_.main].cdps[cdp].debt == Decimal(123)
        assert sys_.chains[sys_.main].balance(1) == units(1000) + units(123)


class TestWithdrawCollateral:
    def test_boundary(self):
        # value 300, debt 100, gamma 1.5: withdrawing down to 151 passes,
        # down to 150 is rejected (strict ratio)
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(300))
        core.withdraw_stablecoins(sys_, cdp, units(100))
        with pytest.raises(RatioViolationError):
            core.withdraw_collateral(sys_, cdp, units(150))
        core.withdraw_collateral(sys_, cdp, units(149))
        assert sys_.chains[sys_.main].cdps[cdp].collateral == units(151)

    def test_debt_free_full_withdrawal(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(5))
        core.withdraw_collateral(sys_, cdp, units(5))
        core.close_cdp(sys_, cdp)
        assert sys_.chains[sys_.main].cdps[cdp].state == CLOSED


class TestStabilityFee:
    def test_compounding(self):
        sys_ = vault_system(fee="0.01")
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(1000))
        core.withdraw_stablecoins(sys_, cdp, units(100))
        core.accrue_stability_fee(sys_, 2)
        assert sys_.chains[sys_.main].cdps[cdp].debt == Decimal("102.01")
        assert sys_.chains[sys_.main].pot.surplus == Decimal("2.01")

    def test_zero_fee_unchanged(self):
        sys_ = vault_system(fee="0")
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(10))
        core.withdraw_stablecoins(sys_, cdp, units(1))
        core.accrue_stability_fee(sys_, 5)
        assert sys_.chains[sys_.main].cdps[cdp].debt == Decimal(1)

    def test_zero_debt_stays_zero(self):
        sys_ = vault_system(fee="0.01")
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.accrue_stability_fee(sys_, 3)
        assert sys_.chains[sys_.main].cdps[cdp].debt == 0

    def test_liquidatable_set_only_grows(self):
        sys_ = vault_system(fee="0.02")
        gamma = sys_.params.gamma
        price = Fraction(1)
        cdps = []
        for i, ratio in enumerate(("1.51", "1.6", "2.0", "3.0")):
            cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
            core.deposit_collateral(sys_, cdp, units(100 * float(Fraction(ratio))))
            core.withdraw_stablecoins(sys_, cdp, units(100) - 1)
            cdps.append(cdp)
        def liq_set():
            chain = sys_.chains[sys_.main]
            return {c for c in cdps if core.check_liquidatable(chain.cdps[c], price, gamma)}
        previous = liq_set()
        for _ in range(30):
            core.accrue_stability_fee(sys_, 1)
            current = liq_set()
            assert previous <= current
            previous = current
        assert previous  # fees eventually push the tightest CDP under

    def test_overflowing_growth_is_refused(self):
        # 1.001 ** 10**12 is past 10**60: decimal.Overflow used to escape
        sys_ = vault_system(fee="0.001")
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(10))
        core.withdraw_stablecoins(sys_, cdp, units(1))
        with pytest.raises(ProtocolError, match="growth factor"):
            core.accrue_stability_fee(sys_, 10**12)
        assert sys_.chains[sys_.main].cdps[cdp].debt == Decimal(1)


def fee_accrued_vault(slots):
    """10**11 units minted at a per-slot fee of 1e-8, then `slots` slots of
    fees: a debt of 30 significant digits."""
    sys_ = vault_system(fee="1e-8")
    sys_.params = sys_.params.with_param("bootstrap_ceiling", units(10**11))
    cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
    core.deposit_collateral(sys_, cdp, units(10**12))
    core.withdraw_stablecoins(sys_, cdp, units(10**11))
    core.accrue_stability_fee(sys_, slots)
    return sys_, cdp, sys_.chains[sys_.main].cdps[cdp]


class TestDebtDigits:
    def test_fee_accrued_debt_keeps_every_digit(self):
        # the appliers ran in the caller's 28-digit context, so one minor
        # unit on this debt used to drop its last two digits
        sys_, cdp_id, cdp = fee_accrued_vault(1000)
        assert cdp.debt == Decimal("100001000004.995016616741417207")
        assert sys_.chains[sys_.main].pot.surplus == Decimal("1000004.995016616741417207")
        core.withdraw_stablecoins(sys_, cdp_id, 1)
        assert cdp.debt == Decimal("100001000004.995016617741417207")
        core.repay_debt(sys_, cdp_id, 1)
        assert cdp.debt == Decimal("100001000004.995016616741417207")

    def test_fork_rebuild_matches_the_live_state(self):
        sys_, cdp_id, cdp = fee_accrued_vault(1001)
        core.withdraw_stablecoins(sys_, cdp_id, 1)
        sys_.mark_compromised(sys_.main)
        live = sys_.state_digest()
        sys_.fork_revert(sys_.main, sys_.slot + 1)  # keeps every event: a pure rebuild
        assert sys_.state_digest() == live

    def test_debt_stays_exact_past_sixty_digits(self):
        # the 60-digit context rounded 10**52 units plus one minor unit: the
        # repay left debt 0E-7, refused the last unit, and it circulated unbacked
        sys_ = System(SystemParams(bootstrap_ceiling=10**70))
        main = sys_.create_chain({"name": "main"})  # no genesis coins: every coin is minted
        eth = sys_.register_token("ETH", main)
        sys_.set_price(eth, 1)
        cdp = core.open_cdp(sys_, main, 1, eth)
        core.deposit_collateral(sys_, cdp, 2 * 10**61)
        core.withdraw_stablecoins(sys_, cdp, 10**61 + 1)
        core.repay_debt(sys_, cdp, 10**61)
        assert sys_.chains[main].cdps[cdp].debt == Fraction(1, SCALE)
        core.repay_debt(sys_, cdp, 1)
        assert sys_.chains[main].cdps[cdp].debt == 0
        assert _conservation(sys_)["passed"]

    def test_debt_past_the_context_is_named_and_nothing_accrues(self):
        # a fee-accrued debt stays below 10**42 units (60 digits in 10**-18
        # units); the refusal used to blame the growth factor (1 + 0.000001) ** 1
        sys_ = System(SystemParams(bootstrap_ceiling=10**70, stability_fee=Decimal("1e-6")))
        main = sys_.create_chain({"name": "main"})
        eth = sys_.register_token("ETH", main)
        sys_.set_price(eth, 1)
        small, big = core.open_cdp(sys_, main, 1, eth), core.open_cdp(sys_, main, 2, eth)
        core.deposit_collateral(sys_, small, units(2))
        core.withdraw_stablecoins(sys_, small, units(1))
        core.deposit_collateral(sys_, big, 2 * units(10**52))
        core.withdraw_stablecoins(sys_, big, units(10**52))
        events = len(sys_.chains[main].events)
        with pytest.raises(ProtocolError, match=rf"^CDP {big}: debt 1e\+52 would not stay below 10\*\*42 units"):
            core.accrue_stability_fee(sys_, 1)
        cdps = sys_.chains[main].cdps
        assert (cdps[small].debt, cdps[big].debt) == (1, 10**52)
        assert len(sys_.chains[main].events) == events


GROWTH_RATES = ["0.000000000000000001", "0.0000005", "0.01", "0.123456789012345678",
                "0.999999999999999999", "1/3"]
# 435 and 436 take 10**20 units at the 0.1234... rate either side of 10**42
# units; 480 and 481 take (4/3) ** slots either side of 10**60
GROWTH_SLOTS = [1, 2, 3, 12, 97, 435, 436, 480, 481, 1000, 4999, 5000]
GROWTH_AMOUNTS = [1, SCALE, 123456789123456789, 10**20 * SCALE]  # minor units


def growth_system(users=1, **params):
    """One chain whose users 1.. hold 10**20 units each, ETH at price 1."""
    sys_ = System(SystemParams(bootstrap_ceiling=10**40, **params))
    main = sys_.create_chain({"name": "main", "accounts": {str(u): 10**20 * SCALE
                                                           for u in range(1, users + 1)}})
    sys_.main, sys_.eth = main, sys_.register_token("ETH", main)
    sys_.set_price(sys_.eth, 1)
    return sys_


class TestGrowthAgainstExactRationals:
    """The integer growth against the exact (1 + r) ** slots = P / Q: a
    fee-accrued debt lies within 1/2 + slots * 10**-40 of a 10**-18 unit of
    the exact product, a savings payout within one minor unit of the exact
    floor, and a factor past 10**60 is refused with no event appended."""

    @pytest.mark.parametrize("rate", GROWTH_RATES)
    def test_fee_accrual(self, rate):
        for slots in GROWTH_SLOTS:
            big_p, big_q = ((1 + Fraction(rate)) ** slots).as_integer_ratio()
            for debt in GROWTH_AMOUNTS:
                sys_ = growth_system(stability_fee=rate)
                cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
                core.deposit_collateral(sys_, cdp, 2 * debt)
                core.withdraw_stablecoins(sys_, cdp, debt)
                chain = sys_.chains[sys_.main]
                events = len(chain.events)
                exact = debt * 10**9 * big_p  # the exact new debt in 10**-18 units, times Q
                if big_p > 10**60 * big_q or exact >= 10**60 * big_q:
                    refusal = "growth factor" if big_p > 10**60 * big_q else "would not stay below"
                    with pytest.raises(ProtocolError, match=refusal):
                        core.accrue_stability_fee(sys_, slots)
                    assert len(chain.events) == events and chain.cdps[cdp].debt == Fraction(debt, SCALE)
                    continue
                core.accrue_stability_fee(sys_, slots)
                new = chain.cdps[cdp].debt * 10**18
                assert new.denominator == 1
                # |new - exact / Q| <= 1/2 + slots / 10**40, in integers
                assert 2 * 10**40 * abs(int(new) * big_q - exact) <= (10**40 + 2 * slots) * big_q
                assert chain.pot.surplus * 10**18 == new - debt * 10**9

    @pytest.mark.parametrize("rate", GROWTH_RATES)
    def test_savings_payout(self, rate):
        for slots in GROWTH_SLOTS:
            big_p, big_q = ((1 + Fraction(rate)) ** slots).as_integer_ratio()
            sys_ = growth_system(users=len(GROWTH_AMOUNTS), savings_rate=rate)
            chain = sys_.chains[sys_.main]
            chain.pot.surplus_wad = 10**81 * FEE_SCALE  # covers every payout: none is cut pro rata
            for user, amount in enumerate(GROWTH_AMOUNTS, 1):
                core.savings_deposit(sys_, sys_.main, user, amount)
            events = len(chain.events)
            if big_p > 10**60 * big_q:
                with pytest.raises(ProtocolError, match="growth factor"):
                    core.savings_accrue(sys_, sys_.main, slots)
                assert len(chain.events) == events
                continue
            payouts = core.savings_accrue(sys_, sys_.main, slots)
            for user, amount in enumerate(GROWTH_AMOUNTS, 1):
                assert abs(payouts.get(user, 0) - amount * (big_p - big_q) // big_q) <= 1


class TestCheckLiquidatable:
    def test_cases(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(151))
        core.withdraw_stablecoins(sys_, cdp, units(100))
        c = sys_.chains[sys_.main].cdps[cdp]
        assert not core.check_liquidatable(c, Fraction(1), Fraction("1.5"))
        assert core.check_liquidatable(c, Fraction(149, 151), Fraction("1.5"))

    def test_zero_debt_never_liquidatable(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, 1)
        assert not core.check_liquidatable(
            sys_.chains[sys_.main].cdps[cdp], Fraction(0), Fraction("1.5")
        )


def liquidatable_setup(penalty="0.10"):
    sys_ = vault_system(penalty=penalty)
    cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
    core.deposit_collateral(sys_, cdp, units(151))
    core.withdraw_stablecoins(sys_, cdp, units(100))
    sys_.set_price(sys_.eth, Fraction("0.9"))  # ratio 135.9/100 <= 1.5
    return sys_, cdp


class TestAuction:
    def test_settlement_split(self):
        # debt 100, penalty 10%, winning bid 125:
        # 100 burned, 10 to surplus, 15 back to the owner
        sys_, cdp = liquidatable_setup()
        core.start_auction(sys_, cdp)
        core.place_bid(sys_, cdp, 2, units(125))
        supply_before = sys_.total_circulating()
        owner_before = sys_.chains[sys_.main].balance(1)
        for _ in range(7):
            sys_.tick()
        result = core.settle_auction(sys_, cdp)
        assert result["burned"] == units(100)
        assert result["to_surplus"] == units(10)
        assert result["refund"] == units(15)
        assert result["burned"] + result["to_surplus"] + result["refund"] == units(125)
        chain = sys_.chains[sys_.main]
        assert chain.cdps[cdp].state == CLOSED
        assert chain.cdps[cdp].debt == 0
        assert chain.balance(1) == owner_before + units(15)
        assert chain.pot.surplus == Decimal(10)
        # burned coins left the supply, surplus is pot-held (not circulating)
        assert sys_.total_circulating() == supply_before - units(100) - units(10)

    def test_no_bids_insolvent(self):
        sys_, cdp = liquidatable_setup()
        core.start_auction(sys_, cdp)
        for _ in range(13):
            sys_.tick()
        result = core.settle_auction(sys_, cdp)
        assert result["winner"] is None
        chain = sys_.chains[sys_.main]
        assert chain.cdps[cdp].state == INSOLVENT
        assert chain.cdps[cdp].debt == Decimal(100)

    def test_min_step_rule(self):
        sys_, cdp = liquidatable_setup(penalty="0.10")
        sys_.params = sys_.params.with_param("min_bid_step", "0.05")
        core.start_auction(sys_, cdp)
        core.place_bid(sys_, cdp, 2, units(100))
        with pytest.raises(AuctionError):
            core.place_bid(sys_, cdp, 2, units(104))
        core.place_bid(sys_, cdp, 2, units(105))

    def test_low_bid_leaves_insolvency(self):
        sys_, cdp = liquidatable_setup()
        core.start_auction(sys_, cdp)
        core.place_bid(sys_, cdp, 2, units(60))
        for _ in range(7):
            sys_.tick()
        result = core.settle_auction(sys_, cdp)
        assert result["insolvent"] and result["burned"] == units(60)
        assert sys_.chains[sys_.main].cdps[cdp].debt == Decimal(40)

    def test_expired_bid_rejected(self):
        sys_, cdp = liquidatable_setup()
        core.start_auction(sys_, cdp)
        for _ in range(13):
            sys_.tick()
        with pytest.raises(AuctionError):
            core.place_bid(sys_, cdp, 2, units(100))

    def test_outbid_refunds_previous_bidder(self):
        sys_, cdp = liquidatable_setup()
        core.start_auction(sys_, cdp)
        core.place_bid(sys_, cdp, 2, units(100))
        assert sys_.chains[sys_.main].balance(2) == units(900)
        core.place_bid(sys_, cdp, 1, units(110))
        assert sys_.chains[sys_.main].balance(2) == units(1000)

    def test_start_requires_liquidatable(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(300))
        core.withdraw_stablecoins(sys_, cdp, units(100))
        with pytest.raises(AuctionError):
            core.start_auction(sys_, cdp)


def cdp_in_state(state):
    """A CDP under auction, closed by its owner, or left insolvent by an
    auction that drew no bid."""
    sys_, cdp = liquidatable_setup()
    if state == CLOSED:
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.close_cdp(sys_, cdp)
    else:
        core.start_auction(sys_, cdp)
    if state == INSOLVENT:
        for _ in range(13):
            sys_.tick()
        core.settle_auction(sys_, cdp)
    assert sys_.chains[sys_.main].cdps[cdp].state == state
    return sys_, cdp


GUARDED = {
    "deposit_collateral": lambda sys_, cdp: core.deposit_collateral(sys_, cdp, units(1)),
    "repay_debt": lambda sys_, cdp: core.repay_debt(sys_, cdp, units(1)),
    "withdraw_stablecoins": lambda sys_, cdp: core.withdraw_stablecoins(sys_, cdp, units(1)),
    "withdraw_collateral": lambda sys_, cdp: core.withdraw_collateral(sys_, cdp, units(1)),
    "close_cdp": core.close_cdp,
    "start_auction": core.start_auction,
}


class TestOpenGuard:
    @pytest.mark.parametrize("state", [IN_AUCTION, CLOSED, INSOLVENT])
    @pytest.mark.parametrize("operation", sorted(GUARDED))
    def test_operation_needs_an_open_cdp(self, operation, state):
        # repay_debt used to skip the open check
        sys_, cdp = cdp_in_state(state)
        before = sys_.state_digest()
        with pytest.raises(ProtocolError, match=rf"^CDP {cdp} is not open$"):
            GUARDED[operation](sys_, cdp)
        assert sys_.state_digest() == before

    def test_debt_under_auction_cannot_be_repaid(self):
        # a repaid CDP whose auction then drew no bid was marked insolvent
        # with no debt, and its collateral could never be withdrawn
        sys_ = vault_system()
        sys_.set_price(sys_.eth, 2)
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(100))
        core.withdraw_stablecoins(sys_, cdp, units(100))
        sys_.set_price(sys_.eth, 1)
        core.start_auction(sys_, cdp)
        with pytest.raises(ProtocolError, match="is not open"):
            core.repay_debt(sys_, cdp, units(100))
        assert sys_.chains[sys_.main].cdps[cdp].debt == 100


class TestAuctionConservation:
    @pytest.mark.parametrize("bid_units", [1, 40, 99, 100, 101, 113, 125, 500])
    def test_settlement_conserves_bid_exactly(self, bid_units):
        sys_, cdp = liquidatable_setup()
        core.start_auction(sys_, cdp)
        core.place_bid(sys_, cdp, 2, units(bid_units))
        for _ in range(7):
            sys_.tick()
        result = core.settle_auction(sys_, cdp)
        assert result["burned"] + result["to_surplus"] + result["refund"] == units(bid_units)
        assert result["burned"] >= 0 and result["to_surplus"] >= 0 and result["refund"] >= 0
        debt = sys_.chains[sys_.main].cdps[cdp].debt
        assert (debt == 0) == (not result["insolvent"])


class TestSavings:
    def savings_setup(self, rate="0.01", surplus="100"):
        sys_ = vault_system()
        sys_.params = SystemParams(savings_rate=Decimal(rate))
        chain = sys_.chains[sys_.main]
        chain.pot.surplus_wad = int(Fraction(surplus) * FEE_SCALE)  # surplus injected for the test
        return sys_

    def test_overflowing_growth_is_refused(self):
        sys_ = self.savings_setup(rate="0.001")
        with pytest.raises(ProtocolError, match="growth factor"):  # an empty pot too, as fees
            core.savings_accrue(sys_, sys_.main, 10**12)
        core.savings_deposit(sys_, sys_.main, 1, units(100))
        with pytest.raises(ProtocolError, match="growth factor"):
            core.savings_accrue(sys_, sys_.main, 10**12)
        assert sys_.chains[sys_.main].pot.deposits[1] == units(100)

    def test_one_slot_interest(self):
        sys_ = self.savings_setup()
        core.savings_deposit(sys_, sys_.main, 1, units(100))
        core.savings_accrue(sys_, sys_.main, 1)
        assert core.savings_withdraw(sys_, sys_.main, 1) == units(101)
        assert sys_.chains[sys_.main].balance(1) == units(1000) + units(1)

    def test_zero_surplus_pays_nothing(self):
        sys_ = self.savings_setup(surplus="0")
        core.savings_deposit(sys_, sys_.main, 1, units(100))
        assert core.savings_accrue(sys_, sys_.main, 1) == {}

    def test_prorata_cap(self):
        # surplus 0.5 but 1.0 owed: exactly the half gets paid
        sys_ = self.savings_setup(surplus="0.5")
        core.savings_deposit(sys_, sys_.main, 1, units(100))
        payouts = core.savings_accrue(sys_, sys_.main, 1)
        assert payouts == {1: units(0.5)}
        assert sys_.chains[sys_.main].pot.surplus == Decimal(0)
        assert sys_.chains[sys_.main].pot.interest_paid == Decimal("0.5")

    def test_overwithdraw_rejected(self):
        sys_ = self.savings_setup()
        core.savings_deposit(sys_, sys_.main, 1, units(10))
        with pytest.raises(ProtocolError):
            core.savings_withdraw(sys_, sys_.main, 1, units(11))

    def test_deposit_needs_balance(self):
        sys_ = self.savings_setup()
        with pytest.raises(InsufficientBalanceError):
            core.savings_deposit(sys_, sys_.main, 999, 1)


class TestFullBacking:
    def test_ok_case(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(150))
        core.withdraw_stablecoins(sys_, cdp, units(99))
        sys_.chains[sys_.main].cdps[cdp].debt_wad = 100 * FEE_SCALE  # exercise the reporting path
        report = core.full_backing(sys_)
        assert report.ratio == Fraction(3, 2) and report.ok

    def test_boundary_not_ok(self):
        sys_ = vault_system()
        cdp = core.open_cdp(sys_, sys_.main, 1, sys_.eth)
        core.deposit_collateral(sys_, cdp, units(109))
        sys_.chains[sys_.main].cdps[cdp].debt_wad = 100 * FEE_SCALE
        report = core.full_backing(sys_)
        assert report.ratio == Fraction(109, 100) and not report.ok

    def test_no_debt_vacuous(self):
        sys_ = vault_system()
        report = core.full_backing(sys_)
        assert report.ok and report.ratio is None
