"""Debts, surplus and interest paid are integers in 1 / FEE_SCALE units.

The integer aggregates of `stablecoin` against a reference scan in exact
`Fraction`s (the arithmetic the integers replaced) on random books, and the
cross-multiplied ratio rule against its `Fraction` expression, including
debts near the 10**42-unit bound and exact ties p*c = gamma*D; and a fork
rebuild from the event log against the live integer state.
"""

from contextlib import suppress
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from crocodai import stablecoin as core
from crocodai.errors import ProtocolError
from crocodai.ledger import FEE_SCALE, SCALE, System
from crocodai.scenarios import ceiling_headroom
from crocodai.stablecoin import DEBT_BOUND, SystemParams

N_TOKENS = 3  # on two chains: tokens 0 and 2 on chain 0, token 1 on chain 1

debts = st.one_of(st.integers(0, 10**30), st.integers(DEBT_BOUND - 10**6, DEBT_BOUND - 1))
prices = st.one_of(st.none(), st.fractions(0, 10**6, max_denominator=10**6))
ceilings = st.one_of(st.none(), st.fractions(0, 1, max_denominator=100))


def book(ceiling_of, price_of, cdps) -> System:
    """Two chains, N_TOKENS tokens (price None: unpriced) and one CDP per
    (token, collateral, debt) of `cdps`, written through the event log."""
    params = SystemParams(debt_ceilings={t: z for t, z in enumerate(ceiling_of) if z is not None})
    system = System(params)
    chains = [system.create_chain() for _ in range(2)]
    for t, price in enumerate(price_of):
        system.register_token(f"T{t}", chains[t % 2])
        if price is not None:
            system.set_price(t, price)
    for owner, (token, collateral, debt) in enumerate(cdps):
        chain, cdp = system.tokens[token].chain, system.new_cdp_id()
        system.apply(chain, "cdp_open", {"cdp": cdp, "owner": owner, "token": token})
        system.apply(chain, "cdp_deposit", {"cdp": cdp, "amount": collateral})
        system.apply(chain, "fee_accrue", {"debts": {str(cdp): debt}, "surplus_delta": 0})
    return system


def reference_scan(system: System, prices) -> tuple[dict[int, Fraction], Fraction, Fraction]:
    """Per-token debt, total debt and collateral value, one Fraction add per CDP."""
    per_token, total, value = {}, Fraction(0), Fraction(0)
    for chain in system.chains.values():
        for cdp in chain.cdps.values():
            value += prices.get(cdp.token, 0) * Fraction(cdp.collateral, SCALE)
            if cdp.debt:
                per_token[cdp.token] = per_token.get(cdp.token, Fraction(0)) + cdp.debt
                total += cdp.debt
    return per_token, total, value


def reference_headroom(params: SystemParams, token: int, per_token, total) -> Fraction:
    if total == 0:
        return Fraction(params.bootstrap_ceiling + 1, SCALE)
    zeta = params.ceiling(token)
    if zeta >= 1:
        return Fraction(10**12)
    return max((zeta * total - per_token.get(token, Fraction(0))) / (1 - zeta), Fraction(0))


class TestAggregatesAgainstFractions:
    @given(
        st.lists(ceilings, min_size=N_TOKENS, max_size=N_TOKENS),
        st.lists(prices, min_size=N_TOKENS, max_size=N_TOKENS),
        st.lists(st.tuples(st.integers(0, N_TOKENS - 1), st.integers(0, 10**15), debts),
                 max_size=12),
        st.integers(0, N_TOKENS - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_debt_totals_backing_and_headroom(self, ceiling_of, price_of, cdps, crashed):
        system = book(ceiling_of, price_of, cdps)
        per_token, total, _ = reference_scan(system, system.prices)

        got_per_token, got_total = core.debt_totals(system)
        assert list(got_per_token.items()) == list(per_token.items())  # same tokens, same order
        assert got_total == total
        assert all(type(d) is Fraction for d in (got_total, *got_per_token.values()))

        for prices_map in (None, {**system.prices, crashed: Fraction(0)}):
            _, _, value = reference_scan(system, prices_map or system.prices)
            report = core.full_backing(system, prices_map)
            ratio = None if total == 0 else value / total
            assert (report.collateral_value, report.total_debt, report.ratio) == (value, total, ratio)
            assert report.ok == (ratio is None or ratio > system.params.theta)

        for token in range(N_TOKENS):
            expected = reference_headroom(system.params, token, per_token, total)
            assert ceiling_headroom(system, token) == expected

    @given(st.integers(1, 10**15), st.integers(1, DEBT_BOUND - 1),
           st.fractions(Fraction(111, 100), 3, max_denominator=1000))
    @settings(max_examples=150, deadline=None)
    def test_exact_ties(self, collateral, debt, gamma):
        params = SystemParams(gamma=gamma, theta=Fraction(11, 10))
        # p*c = gamma*D exactly: not above the ratio, so liquidatable
        price = gamma * Fraction(debt, FEE_SCALE) / Fraction(collateral, SCALE)
        system = book([None] * N_TOKENS, [price, None, None], [(0, collateral, debt)])
        system.params = params
        cdp = system.chains[0].cdps[0]
        assert not core.above_ratio(price, collateral, cdp.debt_wad, gamma)
        assert core.check_liquidatable(cdp, price, gamma)
        cdp.debt_wad = debt - 1  # one 10**-18 unit less: strictly above
        assert core.above_ratio(price, collateral, cdp.debt_wad, gamma)
        assert not core.check_liquidatable(cdp, price, gamma)

        # aggregate value = theta * aggregate debt exactly: not fully backed
        cdp.debt_wad = debt
        system.set_price(0, params.theta * Fraction(debt, FEE_SCALE) / Fraction(collateral, SCALE))
        report = core.full_backing(system)
        assert report.ratio == params.theta and not report.ok


    @given(st.one_of(st.fractions(0, 10**6, max_denominator=10**6),
                     st.floats(0, 1e6).map(Fraction), st.just(Fraction(1234.5678))),
           st.integers(0, 10**15), debts, st.fractions(Fraction(111, 100), 3, max_denominator=1000))
    @settings(max_examples=300, deadline=None)
    def test_ratio_rule_against_fractions(self, price, collateral, debt_wad, gamma):
        # the cross-multiplied rule against p * c > gamma * D in Fractions,
        # at the drawn price and at the exact tie, one 10**-18 unit either side
        def reference(p, d):
            return p * Fraction(collateral, SCALE) > gamma * Fraction(d, FEE_SCALE)

        assert core.above_ratio(price, collateral, debt_wad, gamma) == reference(price, debt_wad)
        if collateral and debt_wad:
            tie = gamma * Fraction(debt_wad, FEE_SCALE) / Fraction(collateral, SCALE)
            for d in (debt_wad - 1, debt_wad, debt_wad + 1):
                assert core.above_ratio(tie, collateral, d, gamma) == reference(tie, d) == (d < debt_wad)


def integer_state(chain):
    """Every CDP's collateral, debt and state and the pot's three balances;
    the debt and pot fields must be ints."""
    pot = chain.pot
    fields = [pot.surplus_wad, pot.paid_wad, *(c.debt_wad for c in chain.cdps.values())]
    assert all(type(x) is int for x in fields)
    return ({k: (c.collateral, c.debt_wad, c.state) for k, c in chain.cdps.items()},
            dict(pot.deposits), pot.surplus_wad, pot.paid_wad)


class TestForkRebuild:
    @given(st.lists(st.tuples(st.sampled_from(["open", "fee", "save", "pay", "repay"]),
                              st.integers(1, 40), st.integers(0, 99)),
                    min_size=1, max_size=25),
           st.data())
    @settings(max_examples=60, deadline=None)
    def test_rebuild_equals_live_integer_state(self, ops, data):
        # one op per slot; snapshots[s] is the state once slot s is done
        system = System(SystemParams(stability_fee=Fraction(1, 10**4),
                                     savings_rate=Fraction(1, 10**5)))
        chain = system.chain(system.create_chain({"accounts": {"1": 10**6 * SCALE}}))
        token = system.register_token("ETH", chain.id)
        system.set_price(token, 2)
        snapshots = [integer_state(chain)]
        for kind, n, pick in ops:
            system.tick()
            owner = 2 + pick % 3
            with suppress(ProtocolError):
                if kind == "open":
                    cdp = core.open_cdp(system, chain.id, owner, token)
                    core.deposit_collateral(system, cdp, n * 10**3 * SCALE)
                    core.withdraw_stablecoins(system, cdp, n * 10**3 * SCALE * pick // 100)
                elif kind == "fee":
                    core.accrue_stability_fee(system, n)
                elif kind == "save":
                    core.savings_deposit(system, chain.id, owner, chain.balance(owner) // 2)
                elif kind == "pay":
                    core.savings_accrue(system, chain.id, n)
                elif chain.cdps:
                    cdp_id = sorted(chain.cdps)[pick % len(chain.cdps)]
                    cdp = chain.cdps[cdp_id]
                    core.repay_debt(system, cdp_id, min(chain.balance(cdp.owner),
                                                        cdp.debt_wad * SCALE // FEE_SCALE))
            snapshots.append(integer_state(chain))

        since = data.draw(st.integers(1, system.slot + 1))
        live = snapshots[-1]
        system.mark_compromised(chain.id)
        system.fork_revert(chain.id, system.slot + 1)  # drops nothing, rebuilds every field
        assert integer_state(chain) == live
        system.fork_revert(chain.id, since)
        assert integer_state(chain) == snapshots[since - 1]
