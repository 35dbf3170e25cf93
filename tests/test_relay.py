import contextlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_backed_instance, units
from crocodai import relay, scenarios
from crocodai.errors import (
    InsufficientBalanceError,
    InvalidParameterError,
    ProtocolError,
    QuorumError,
    StaleNonceError,
    UnknownChainError,
)
from crocodai.relay import (
    ABORTED,
    BYZ_EQUIVOCATE,
    BYZ_FORGE,
    BYZ_REFUSE,
    COMMITTED,
    CRASHED,
    ESCROWED,
    N_OF_1,
    N_OF_N,
    ONE_OF_1,
    HONEST,
    GovernanceAction,
    cost_of_commit,
)
from crocodai.ledger import SCALE, System
from crocodai.stablecoin import SystemParams


# JSON-like governance payloads: the fields the actions read, given values of
# every JSON type
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3)
    | st.sampled_from(["7", "x", "gamma", "relay_f", "transfer_timeout", "debt_ceilings", "1.6"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["name", "accounts", "wards", "1", "a"]), inner, max_size=3),
    max_leaves=8)
GOVERNANCE_PAYLOADS = _JSON | st.dictionaries(
    st.sampled_from(["account", "chain", "name", "value", "config", "contract"]), _JSON, max_size=3)
GOVERNANCE_KINDS = st.sampled_from(["add_ward", "remove_ward", "set_param", "add_chain",
                                    "deprecate_contract", "bogus"])


def run_until_resolved(sys_, tid, max_slots=30):
    for _ in range(max_slots):
        relay.step(sys_)
        if sys_.transfers[tid].state in (COMMITTED, ABORTED):
            return sys_.slot
    return None


class TestRequestTransfer:
    def test_escrow_created(self, two_chains):
        tid = relay.request_transfer(two_chains, two_chains.alpha, 1, units(10), two_chains.beta, 7)
        chain = two_chains.chains[two_chains.alpha]
        assert chain.balance(1) == units(90)
        assert chain.escrows[tid].amount == units(10)
        assert two_chains.transfers[tid].state == ESCROWED

    def test_zero_amount_rejected(self, two_chains):
        with pytest.raises(ProtocolError):
            relay.request_transfer(two_chains, two_chains.alpha, 1, 0, two_chains.beta, 7)

    def test_unknown_target_rejected(self, two_chains):
        with pytest.raises(UnknownChainError):
            relay.request_transfer(two_chains, two_chains.alpha, 1, units(1), 99, 7)

    def test_insufficient_balance(self, two_chains):
        with pytest.raises(InsufficientBalanceError):
            relay.request_transfer(two_chains, two_chains.alpha, 1, units(101), two_chains.beta, 7)


class TestRelayStep:
    def test_commit_conserves_supply(self, two_chains):
        sys_ = two_chains
        sys_.relays[3] = CRASHED  # 3 honest of 4 still reach 2f+1
        tid = relay.request_transfer(sys_, sys_.alpha, 1, units(10), sys_.beta, 7)
        relay.step(sys_)
        t = sys_.transfers[tid]
        assert t.state == COMMITTED
        assert len(t.commit_votes) == 3
        assert sys_.chains[sys_.alpha].balance(1) == units(90)
        assert sys_.chains[sys_.beta].balance(7) == units(10)
        assert sys_.total_circulating() == units(100)

    def test_two_crashed_times_out_with_refund(self, two_chains):
        # liveness boundary: 2 honest votes never reach quorum, the escrow
        # expires at the timeout and the sender is refunded
        sys_ = two_chains
        sys_.relays[2] = CRASHED
        sys_.relays[3] = CRASHED
        tid = relay.request_transfer(sys_, sys_.alpha, 1, units(10), sys_.beta, 7)
        resolved_at = run_until_resolved(sys_, tid)
        t = sys_.transfers[tid]
        assert t.state == ABORTED
        assert resolved_at == sys_.params.transfer_timeout
        assert sys_.chains[sys_.alpha].balance(1) == units(100)
        assert sys_.chains[sys_.beta].balance(7) == 0
        assert relay.audit(sys_).ok

    @pytest.mark.parametrize("behavior", [BYZ_REFUSE, BYZ_EQUIVOCATE, BYZ_FORGE])
    def test_single_byzantine_cannot_block_commit(self, two_chains, behavior):
        sys_ = two_chains
        sys_.relays[0] = behavior
        tid = relay.request_transfer(sys_, sys_.alpha, 1, units(10), sys_.beta, 7)
        run_until_resolved(sys_, tid)
        assert sys_.transfers[tid].state == COMMITTED
        assert sys_.total_circulating() == units(100)
        assert relay.audit(sys_).ok

    def test_forged_votes_rejected(self, two_chains):
        sys_ = two_chains
        sys_.relays[0] = BYZ_FORGE
        sys_.relays[2] = CRASHED
        sys_.relays[3] = CRASHED
        tid = relay.request_transfer(sys_, sys_.alpha, 1, units(10), sys_.beta, 7)
        # forged ids are rejected by authentication, so the forger's votes
        # count as none and leave no record
        assert relay.step(sys_) == []
        assert sys_.transfers[tid].state == ESCROWED
        assert sys_.transfers[tid].commit_votes == {1}

    @pytest.mark.parametrize("node_id", [-1, 4])
    def test_fault_outside_roster_rejected(self, two_chains, node_id):
        with pytest.raises(ProtocolError):
            relay.register_relays(two_chains, {node_id: CRASHED})

    def test_unknown_behavior_rejected(self, two_chains):
        with pytest.raises(ProtocolError, match="unknown relay behavior 'sleepy'"):
            relay.register_relays(two_chains, {1: "sleepy"})

    def test_commit_requires_live_escrow(self, two_chains):
        # if the escrow disappears (reverted fork) before quorum, honest
        # nodes stop voting and the transfer can only expire
        sys_ = two_chains
        for node_id in range(sys_.params.relay_n):
            sys_.relays[node_id] = CRASHED
        tid = relay.request_transfer(sys_, sys_.alpha, 1, units(10), sys_.beta, 7)
        sys_.mark_compromised(sys_.alpha)
        sys_.fork_revert(sys_.alpha, since_slot=0)
        for node_id in range(sys_.params.relay_n):
            sys_.relays[node_id] = relay.HONEST
        relay.step(sys_)
        assert sys_.transfers[tid].state == ESCROWED
        assert sys_.transfers[tid].commit_votes == set()


class TestRoster:
    def test_unregistered_relays_are_honest(self):
        sys_ = System(SystemParams(relay_n=7, relay_f=2))
        a = sys_.create_chain({"name": "alpha", "accounts": {"1": units(100)}})
        b = sys_.create_chain({"name": "beta"})
        tid = relay.request_transfer(sys_, a, 1, units(10), b, 7)
        relay.step(sys_)
        assert sys_.transfers[tid].commit_votes == set(range(7))
        action = GovernanceAction("add_ward", {"account": 7}, nonce=1)
        assert relay.submit_governance(sys_, action, {2, 3, 4, 5, 6})

    def test_governance_resizes_the_roster(self, two_chains):
        # relay_n 7 then relay_f 2 used to leave a quorum of 5 over the 4
        # relays register_relays had made: every later transfer aborted and
        # no certificate could pass again
        sys_ = two_chains
        for nonce, (name, value) in enumerate((("relay_n", 7), ("relay_f", 2)), start=1):
            action = GovernanceAction("set_param", {"name": name, "value": value}, nonce)
            assert relay.submit_governance(sys_, action, {0, 1, 2})
            relay.step(sys_)
        assert relay.quorum(sys_) == 5
        tid = relay.request_transfer(sys_, sys_.alpha, 1, units(10), sys_.beta, 7)
        assert run_until_resolved(sys_, tid) is not None
        assert sys_.transfers[tid].state == COMMITTED
        assert not relay.submit_governance(sys_, GovernanceAction("add_ward", {"account": 7}, 3),
                                           {0, 1, 2, 3})
        assert relay.submit_governance(sys_, GovernanceAction("add_ward", {"account": 7}, 3),
                                       {0, 1, 2, 3, 4})

    def test_shrunk_roster_ignores_votes_and_faults_past_it(self, two_chains):
        sys_ = two_chains
        relay.register_relays(sys_, {3: CRASHED})
        sys_.params = sys_.params.with_param("relay_n", 7)
        relay.register_relays(sys_, {5: BYZ_FORGE})
        sys_.params = sys_.params.with_param("relay_n", 4)
        tid = relay.request_transfer(sys_, sys_.alpha, 1, units(10), sys_.beta, 7)
        events = relay.step(sys_)
        assert [e["type"] for e in events] == ["commit"]
        assert sys_.transfers[tid].commit_votes == {0, 1, 2, 3}
        assert not relay.submit_governance(sys_, GovernanceAction("add_ward", {"account": 7}, 1),
                                           {0, 4, 5, 6})

    def test_votes_of_relays_that_left_the_roster_do_not_count(self):
        # relays 7-12 vote: 6 votes against a quorum of 7. Shrinking the
        # roster to 0..9 with a quorum of 5 leaves 3 of them on it, which
        # used to commit the transfer on all 6
        sys_ = System(SystemParams(relay_n=13, relay_f=3))
        a = sys_.create_chain({"name": "alpha", "accounts": {"1": units(100)}})
        b = sys_.create_chain({"name": "beta"})
        relay.register_relays(sys_, {node_id: CRASHED for node_id in range(7)})
        tid = relay.request_transfer(sys_, a, 1, units(10), b, 7)
        assert relay.step(sys_) == []
        for nonce, (name, value) in enumerate((("relay_n", 10), ("relay_f", 2)), start=1):
            action = GovernanceAction("set_param", {"name": name, "value": value}, nonce)
            assert relay.submit_governance(sys_, action, set(range(sys_.params.relay_n)))
            assert [e["type"] for e in relay.step(sys_)] == ["governance_applied"]
        assert relay.quorum(sys_) == 5
        assert sys_.transfers[tid].state == ESCROWED
        assert run_until_resolved(sys_, tid) is not None
        assert sys_.transfers[tid].state == ABORTED
        assert sys_.chains[a].balance(1) == units(100)


class TestGovernance:
    def test_param_update_applied_next_slot(self, two_chains):
        sys_ = two_chains
        action = GovernanceAction("set_param", {"name": "gamma", "value": "1.6"}, nonce=1)
        assert relay.submit_governance(sys_, action, {0, 1, 2})
        assert sys_.params.gamma == pytest.approx(1.5)
        relay.step(sys_)
        assert float(sys_.params.gamma) == 1.6

    def test_replayed_certificate_rejected(self, two_chains):
        action = GovernanceAction("set_param", {"name": "gamma", "value": "1.6"}, nonce=2)
        relay.submit_governance(two_chains, action, {0, 1, 2})
        with pytest.raises(StaleNonceError):
            relay.submit_governance(two_chains, action, {0, 1, 2})

    def test_single_vote_not_applied(self, two_chains):
        action = GovernanceAction("set_param", {"name": "gamma", "value": "1.6"}, nonce=3)
        assert not relay.submit_governance(two_chains, action, {0})
        relay.step(two_chains)
        assert float(two_chains.params.gamma) == 1.5

    def test_invalid_param_value_rejected(self, two_chains):
        action = GovernanceAction("set_param", {"name": "gamma", "value": "1.05"}, nonce=4)
        with pytest.raises(InvalidParameterError):
            relay.submit_governance(two_chains, action, {0, 1, 2})

    def test_ceiling_margin_is_not_a_param(self, two_chains):
        # beta is optimize's --beta, read by debt_ceilings_from alone
        action = GovernanceAction("set_param", {"name": "beta", "value": "0.1"}, nonce=4)
        with pytest.raises(InvalidParameterError, match="unknown parameter 'beta'"):
            relay.submit_governance(two_chains, action, {0, 1, 2})

    def test_ward_applied_on_all_chains(self, two_chains):
        action = GovernanceAction("add_ward", {"account": 77}, nonce=5)
        relay.submit_governance(two_chains, action, {0, 1, 2})
        relay.step(two_chains)
        assert all(77 in c.wards for c in two_chains.chains.values())

    def test_idempotence_without_nonce_reuse(self, two_chains):
        # applying the same payload under a fresh nonce changes nothing
        for nonce in (6, 7):
            relay.submit_governance(
                two_chains, GovernanceAction("add_ward", {"account": 8}, nonce), {0, 1, 2}
            )
            relay.step(two_chains)
        assert sum(1 for c in two_chains.chains.values() if 8 in c.wards) == len(two_chains.chains)

    def test_unregistered_votes_ignored(self, two_chains):
        action = GovernanceAction("set_param", {"name": "gamma", "value": "1.7"}, nonce=8)
        assert not relay.submit_governance(two_chains, action, {40, 41, 42})

    def test_add_chain_action(self, two_chains):
        action = GovernanceAction("add_chain", {"config": {"name": "gamma-net"}}, nonce=9)
        relay.submit_governance(two_chains, action, {0, 1, 2})
        relay.step(two_chains)
        assert two_chains.chain_by_name("gamma-net") is not None

    def test_deprecate_contract_action(self, two_chains):
        action = GovernanceAction("deprecate_contract", {"contract": "auction-v1"}, nonce=10)
        relay.submit_governance(two_chains, action, {0, 1, 2})
        relay.step(two_chains)
        assert "auction-v1" in two_chains.deprecated_contracts

    @pytest.mark.parametrize("first, second, error", [
        (("add_chain", {"config": {"name": "gamma-net"}}), ("add_chain", {"config": {"name": "gamma-net"}}),
         "chain name already registered: 'gamma-net'"),
        (("add_chain", {"config": {"name": "chain-3"}}), ("add_chain", {"config": {}}),
         "chain name already registered: 'chain-3'"),
        (("set_param", {"name": "theta", "value": "1.4"}), ("set_param", {"name": "gamma", "value": "1.3"}),
         "need gamma > theta > 1, got gamma=13/10, theta=7/5"),
    ], ids=["same-name", "default-name", "gamma-below-theta"])
    def test_action_made_invalid_by_an_earlier_one_is_reported(self, two_chains, first, second, error):
        # each action is valid when staged; the second used to raise out of
        # step, so the slot's relay round never ran
        sys_ = two_chains
        tid = relay.request_transfer(sys_, sys_.alpha, 1, units(10), sys_.beta, 7)
        for nonce, (kind, payload) in enumerate((first, second), start=1):
            assert relay.submit_governance(sys_, GovernanceAction(kind, payload, nonce), {0, 1, 2})
        events = relay.step(sys_)
        assert events[:2] == [
            {"type": "governance_applied", "kind": first[0], "nonce": 1},
            {"type": "governance_failed", "kind": second[0], "nonce": 2, "error": error},
        ]
        assert events[2]["type"] == "commit" and sys_.transfers[tid].state == COMMITTED
        if first[0] == "add_chain":
            assert len(sys_.chains) == 3
        else:
            assert (sys_.params.gamma, sys_.params.theta) == (Fraction(3, 2), Fraction(7, 5))


    @pytest.mark.parametrize("kind, payload", [
        ("add_ward", {}),
        ("add_ward", {"account": "7"}),
        ("add_ward", {"account": True}),
        ("remove_ward", {"account": 7, "chain": [0]}),
        ("set_param", {}),
        ("set_param", {"name": "gamma"}),
        ("set_param", {"name": ["gamma"], "value": "1.6"}),
        ("add_chain", {"config": {"accounts": {"a": 1}}}),
        ("add_chain", {"config": {"accounts": {"01": 1}}}),
        ("add_chain", {"config": {"wards": ["x"]}}),
        ("add_chain", {"config": {"wards": [True]}}),
        ("add_chain", {"config": {"accounts": {"1": -5}}}),
        ("add_chain", {"config": {"accounts": {"1": True}}}),
        ("add_chain", {"config": {"accounts": {"1": 2.0}}}),
        ("add_chain", {"config": {"name": 5}}),
        ("add_chain", {"config": "x"}),
        ("add_chain", {"config": None}),
        ("deprecate_contract", {"contract": ["x"]}),
        ("deprecate_contract", ["x"]),
        ("set_param", None),
    ])
    def test_malformed_payload_refused_at_submit(self, two_chains, kind, payload):
        # each used to raise a KeyError, TypeError or ValueError out of
        # submit_governance, or to be staged and raise out of the next
        # relay.step, losing the slot's other actions and its relay round;
        # account "7" was applied, and every later state_digest raised
        sys_ = two_chains
        with pytest.raises(ProtocolError):
            relay.submit_governance(sys_, GovernanceAction(kind, payload, nonce=1), {0, 1, 2})
        assert sys_.staged_governance == [] and sys_.applied_nonces == set()
        assert relay.submit_governance(sys_, GovernanceAction("add_ward", {"account": 7}, 1), {0, 1, 2})

    def test_chain_config_account_ids_may_be_decimal_strings(self, two_chains):
        action = GovernanceAction("add_chain", {"config": {"name": "g", "accounts": {"5": 3, 6: 4},
                                                           "wards": [-1, 2]}}, nonce=1)
        assert relay.submit_governance(two_chains, action, {0, 1, 2})
        relay.step(two_chains)
        chain = two_chains.chain_by_name("g")
        assert (chain.balances, chain.wards) == ({5: 3, 6: 4}, {-1, 2})

    @given(st.lists(st.tuples(GOVERNANCE_KINDS, GOVERNANCE_PAYLOADS), min_size=1, max_size=4))
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_every_accepted_action_applies(self, actions):
        sys_ = System(SystemParams())
        for name in ("alpha", "beta"):
            sys_.create_chain({"name": name, "accounts": {"1": units(100)}})
        relay.register_relays(sys_)
        relay.request_transfer(sys_, 0, 1, units(10), 1, 7)
        for nonce, (kind, payload) in enumerate(actions, start=1):
            with contextlib.suppress(ProtocolError):
                assert relay.submit_governance(sys_, GovernanceAction(kind, payload, nonce), {0, 1, 2})
        for _ in range(2):  # the staged actions, then a round with their effects
            assert isinstance(relay.step(sys_), list)
            assert isinstance(sys_.state_digest(), str)


class TestCostModel:
    def test_threshold_design_constant_in_n(self):
        # single on-chain verification regardless of quorum size
        records = [cost_of_commit(ONE_OF_1, n, (n - 1) // 3) for n in (4, 10, 16)]
        assert all(r.verifications == 1 and r.transactions == 1 for r in records)
        assert len({r.on_chain_units for r in records}) == 1

    def test_per_node_design_strictly_increasing(self):
        costs = [cost_of_commit(N_OF_N, n, (n - 1) // 3).on_chain_units for n in (4, 10, 16)]
        assert costs[0] < costs[1] < costs[2]

    def test_batch_design_strictly_increasing(self):
        costs = [cost_of_commit(N_OF_1, n, (n - 1) // 3).on_chain_units for n in (4, 10, 16)]
        assert costs[0] < costs[1] < costs[2]

    def test_batch_offchain_much_cheaper_than_threshold_at_16(self):
        batch = cost_of_commit(N_OF_1, 16, 5).offchain_seconds
        threshold = cost_of_commit(ONE_OF_1, 16, 5).offchain_seconds
        assert batch * 50 < threshold

    def test_quorum_arithmetic_enforced(self):
        with pytest.raises(QuorumError):
            cost_of_commit(N_OF_N, 3, 1)

    def test_message_bytes(self):
        assert cost_of_commit(N_OF_1, 4, 1).message_bytes == 65 * 3
        assert cost_of_commit(ONE_OF_1, 16, 5).message_bytes == 65


# ----------------------------------------------------------------------
# the indexed relay round against a full scan of every transfer


def _reference_round(system):
    """The relay round as a full scan over every transfer ever made."""
    slot = system.slot
    out = []
    needed = relay.quorum(system)
    timeout = system.params.transfer_timeout

    for tid in sorted(system.transfers):
        transfer = system.transfers[tid]
        if transfer.state != ESCROWED:
            continue

        if slot - transfer.request_slot >= timeout:
            refunded = False
            source = system.chains.get(transfer.source)
            if source is not None and tid in source.escrows:
                system.apply(transfer.source, "escrow_refund", {"transfer": tid})
                refunded = True
            transfer.state = ABORTED
            out.append({"type": "abort", "transfer": tid, "slot": slot, "refunded": refunded})
            continue

        for node_id in range(system.params.relay_n):
            behavior = system.relays.get(node_id, HONEST)
            if behavior == HONEST:
                if relay._node_validates(system, tid, transfer):
                    transfer.commit_votes.add(node_id)
            elif behavior == BYZ_EQUIVOCATE:
                transfer.commit_votes.add(node_id)

        votes = {v for v in transfer.commit_votes if v in range(system.params.relay_n)}
        if len(votes) >= needed and relay._node_validates(system, tid, transfer):
            system.apply(transfer.source, "escrow_burn", {"transfer": tid})
            system.apply(transfer.target, "mint", {"account": transfer.target_addr,
                                                   "amount": transfer.amount, "by": "relay",
                                                   "transfer": tid})
            transfer.state = COMMITTED
            out.append({"type": "commit", "transfer": tid, "slot": slot, "votes": sorted(votes)})
    return out


ROSTERS = [
    {},
    {0: CRASHED},
    {1: BYZ_REFUSE},
    {2: BYZ_EQUIVOCATE},
    {3: BYZ_FORGE},
    {0: BYZ_FORGE, 3: BYZ_EQUIVOCATE},
    {1: CRASHED, 2: CRASHED},  # no quorum: escrows time out
    {0: BYZ_FORGE, 2: CRASHED},
]


def _run_schedule(seed, monkeypatch, after_step, steps=180):
    """Drive two identical worlds through one seeded schedule of transfers,
    every roster of ROSTERS, transfer_timeout changes, 51% attacks and bare
    forks: the first runs the indexed round, the second the full scan.
    `after_step(indexed, reference, indexed_result, reference_result)` sees
    both after every step."""
    indexed, reference = (random_backed_instance(random.Random(seed), n_chains=3)
                          for _ in range(2))
    rng = random.Random(seed + 1)
    chains = sorted(indexed.chains)

    def both(fn, *args):
        first = fn(indexed, *args)
        with monkeypatch.context() as m:
            m.setattr(relay, "relay_step", _reference_round)
            second = fn(reference, *args)
        return first, second

    rosters = ROSTERS[seed % len(ROSTERS):] + ROSTERS[:seed % len(ROSTERS)]
    nonce = 0
    for k in range(steps):
        fork = k % 45 == 30
        if k % 15 == 0:
            # a fork needs a roster that commits within the attack's four steps
            both(relay.register_relays, {} if fork else rosters.pop(0))
        if k % 40 == 0:
            nonce += 1
            action = GovernanceAction("set_param", {"name": "transfer_timeout",
                                                    "value": rng.randint(4, 12)}, nonce)
            assert both(relay.submit_governance, action, {0, 1, 2, 3}) == (True, True)
        for _ in range(rng.randint(0, 3)):
            source = rng.choice(chains)
            funded = sorted(a for a, v in indexed.chains[source].balances.items() if v > 1)
            if funded:
                sender = rng.choice(funded)
                amount = rng.randint(1, indexed.chains[source].balance(sender) // 2)
                target = rng.choice([c for c in chains if c != source])
                both(relay.request_transfer, source, sender, amount, target, rng.randint(1, 50))
        if fork:
            chain = rng.choice(chains)
            token = min(t.id for t in indexed.tokens.values() if t.chain == chain)
            room = scenarios.ceiling_headroom(indexed, token)
            h_prime = int(room * SCALE * Fraction(rng.randint(1, 9), 10))
            reports = both(scenarios.compromised_chain_scenario, chain, h_prime)
            after_step(indexed, reference, *(r.as_json() for r in reports))
        elif k % 45 == 40:
            # a bare fork under whatever roster is live reverts the newest
            # escrows, so their transfers can only expire unrefunded
            chain = rng.choice(chains)
            both(System.mark_compromised, chain)
            both(System.fork_revert, chain, indexed.slot - 1)
        after_step(indexed, reference, *both(relay.step))


def _votes(system):
    return {tid: (t.state, t.commit_votes) for tid, t in system.transfers.items()}


class TestIndexedRound:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_indexed_round_matches_full_scan(self, seed, monkeypatch):
        def check(indexed, reference, indexed_events, reference_events):
            assert indexed_events == reference_events
            assert _votes(indexed) == _votes(reference)
            assert indexed.state_digest() == reference.state_digest()
            outcomes.update(x.state for x in indexed.transfers.values())
            forks.update(r["since_slot"] for r in indexed.revert_log)

        outcomes, forks = set(), set()
        _run_schedule(seed, monkeypatch, check)
        # the schedule reached every outcome and forked a chain
        assert outcomes == {ESCROWED, COMMITTED, ABORTED} and forks

    def test_pending_index_holds_exactly_the_escrowed_transfers(self, monkeypatch):
        def check(indexed, reference, *_):
            assert indexed.pending_transfers == {
                tid: t for tid, t in indexed.transfers.items() if t.state == ESCROWED
            }
            assert list(indexed.pending_transfers) == sorted(indexed.pending_transfers)

        _run_schedule(0, monkeypatch, check)


class _CountingDict(dict):
    """A transfer table that counts the entries read from it."""

    reads = 0

    def __iter__(self):
        self.reads += len(self)
        return super().__iter__()

    def __getitem__(self, key):
        self.reads += 1
        return super().__getitem__(key)


def test_round_cost_does_not_grow_with_history(monkeypatch):
    validations = []
    validate = relay._node_validates
    monkeypatch.setattr(relay, "_node_validates",
                        lambda s, tid, t: validations.append(tid) or validate(s, tid, t))

    def one_round(history):
        sys_ = System(SystemParams())
        a = sys_.create_chain({"name": "alpha", "accounts": {"1": units(10_000)}})
        b = sys_.create_chain({"name": "beta"})
        relay.register_relays(sys_)
        for _ in range(history):
            relay.request_transfer(sys_, a, 1, units(1), b, 7)
        relay.step(sys_)
        assert all(t.state == COMMITTED for t in sys_.transfers.values())
        relay.request_transfer(sys_, a, 1, units(1), b, 7)
        sys_.transfers = _CountingDict(sys_.transfers)
        validations.clear()
        assert [e["type"] for e in relay.step(sys_)] == ["commit"]
        return len(validations), sys_.transfers.reads

    assert one_round(500) == one_round(0)


def test_round_with_forging_relays_writes_no_record():
    # n=64, f=21: f forging relays and 22 crashed leave 21 honest votes
    # against a quorum of 43, so no transfer commits. A forger used to write
    # one record per pending transfer and other roster member: 132,300 here
    sys_ = System(SystemParams(relay_n=64, relay_f=21))
    a = sys_.create_chain({"name": "alpha", "accounts": {"1": units(10_000)}})
    b = sys_.create_chain({"name": "beta"})
    relay.register_relays(sys_, {**{node_id: BYZ_FORGE for node_id in range(21)},
                                 **{node_id: CRASHED for node_id in range(21, 43)}})
    tids = [relay.request_transfer(sys_, a, 1, units(1), b, 7) for _ in range(100)]
    assert relay.step(sys_) == []
    assert all(sys_.transfers[tid].commit_votes == set(range(43, 64)) for tid in tids)
