import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import units
from crocodai import relay as relay_mod
from crocodai.errors import (
    DuplicateChainError,
    InsufficientBalanceError,
    NotCompromisedError,
    ProtocolError,
)
from crocodai.ledger import System
from crocodai.stablecoin import SystemParams


def fresh():
    return System(SystemParams())


def test_system_requires_params():
    # System() used to default params to None, and withdraw_stablecoins then
    # raised AttributeError
    with pytest.raises(TypeError):
        System()


class TestCreateChain:
    def test_empty_config(self):
        sys_ = fresh()
        cid = sys_.create_chain({})
        assert sys_.chains[cid].balances == {}
        assert sys_.total_circulating() == 0

    def test_initial_balances(self):
        sys_ = fresh()
        cid = sys_.create_chain({"name": "x", "accounts": {"5": 100}})
        assert sys_.chains[cid].balance(5) == 100

    def test_duplicate_name_rejected(self):
        sys_ = fresh()
        sys_.create_chain({"name": "x"})
        with pytest.raises(DuplicateChainError):
            sys_.create_chain({"name": "x"})


class TestTransferLocal:
    def test_arithmetic(self, system):
        system.transfer_local(system.main, 1, 2, units(40))
        assert system.chains[system.main].balance(1) == units(960)
        assert system.chains[system.main].balance(2) == units(40)

    def test_zero_is_noop(self, system):
        before = system.state_digest()
        system.transfer_local(system.main, 1, 2, 0)
        assert system.state_digest() == before

    def test_insufficient_balance(self):
        sys_ = fresh()
        cid = sys_.create_chain({"accounts": {"1": 10}})
        with pytest.raises(InsufficientBalanceError):
            sys_.transfer_local(cid, 1, 2, 11)

    def test_receiver_autocreated(self, system):
        system.transfer_local(system.main, 1, 424242, units(1))
        assert system.chains[system.main].balance(424242) == units(1)

    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 50)), max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_supply_conserved(self, moves):
        sys_ = fresh()
        cid = sys_.create_chain({"accounts": {"0": 100, "1": 100, "2": 100, "3": 100}})
        for frm, to, amount in moves:
            try:
                sys_.transfer_local(cid, frm, to, amount)
            except InsufficientBalanceError:
                pass
        assert sys_.total_circulating() == 400
        assert all(v >= 0 for v in sys_.chains[cid].balances.values())


class TestTotalCirculating:
    def test_empty_system(self):
        assert fresh().total_circulating() == 0

    def test_single_chain(self):
        sys_ = fresh()
        sys_.create_chain({"accounts": {"1": 100}})
        assert sys_.total_circulating() == 100

    def test_escrow_counted(self, two_chains):
        relay_mod.request_transfer(two_chains, two_chains.alpha, 1, units(30), two_chains.beta, 9)
        assert two_chains.total_circulating() == units(100)


class TestForkRevert:
    def test_requires_compromised(self, system):
        with pytest.raises(NotCompromisedError):
            system.fork_revert(system.main, 0)

    def test_escrow_reverted_and_sender_refunded(self, two_chains):
        for _ in range(5):
            two_chains.tick()
        relay_mod.request_transfer(two_chains, two_chains.alpha, 1, units(30), two_chains.beta, 9)
        assert two_chains.chains[two_chains.alpha].balance(1) == units(70)
        two_chains.mark_compromised(two_chains.alpha)
        two_chains.fork_revert(two_chains.alpha, since_slot=5)
        chain = two_chains.chains[two_chains.alpha]
        assert chain.balance(1) == units(100)
        assert chain.escrows == {}

    def test_revert_after_all_events_is_noop(self, system):
        system.transfer_local(system.main, 1, 2, units(5))
        system.mark_compromised(system.main)
        before = system.state_digest()
        system.fork_revert(system.main, since_slot=system.slot + 10)
        assert system.state_digest() == before

    def test_reverted_commit_leaves_unbacked_mint(self, two_chains):
        # committed outgoing transfer, then the source chain forks: the burn
        # is undone while the destination mint persists
        sys_ = two_chains
        start = sys_.slot + 1
        sys_.tick()
        tid = relay_mod.request_transfer(sys_, sys_.alpha, 1, units(30), sys_.beta, 9)
        relay_mod.step(sys_)
        assert sys_.transfers[tid].state == relay_mod.COMMITTED
        assert sys_.total_circulating() == units(100)

        sys_.mark_compromised(sys_.alpha)
        sys_.fork_revert(sys_.alpha, since_slot=start)
        assert sys_.total_circulating() == units(130)  # 30 unbacked
        monitor = relay_mod.audit(sys_)
        assert monitor.unbacked_minted == units(30)
        assert not monitor.ok
        assert sys_.revert_log and sys_.revert_log[0]["chain"] == sys_.alpha


class TestDeterminism:
    def test_event_replay_is_bit_identical(self, two_chains):
        sys_ = two_chains
        tid = relay_mod.request_transfer(sys_, sys_.alpha, 1, units(10), sys_.beta, 7)
        relay_mod.step(sys_)
        assert sys_.transfers[tid].state == relay_mod.COMMITTED
        digest = sys_.state_digest()

        from crocodai.ledger import _apply_to_state

        for chain in sys_.chains.values():
            events = list(chain.events)
            chain.reset_state()
            for ev in events:
                _apply_to_state(chain, ev.kind, ev.payload)
        assert sys_.state_digest() == digest

    def test_unknown_event_kind_rejected(self, system):
        with pytest.raises(ProtocolError):
            system.apply(system.main, "definitely_not_an_event", {})
