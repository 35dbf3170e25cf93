"""Cross-chain transfer state machine with 2f+1 quorum certificates,
governance actions, fault injection, and abstract cost models for the three
relay signature designs.

The relay roster is range(params.relay_n), so governance resizes it at the
next slot. Authentication is abstract: a vote is valid iff it carries the
node id of a relay on the roster, so Byzantine forgery of other ids is
rejected by construction and a forging relay counts as one that never
votes. A relay round is one vote rule over two voter sets built once per
round. Commit is atomic within one relay step on both chains.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable

from .errors import (
    InsufficientBalanceError,
    ProtocolError,
    QuorumError,
    StaleNonceError,
    UnknownChainError,
)
from .ledger import System

HONEST = "honest"
CRASHED = "crashed"
BYZ_EQUIVOCATE = "byzantine:equivocate"
BYZ_REFUSE = "byzantine:refuse"
BYZ_FORGE = "byzantine:forge"

BEHAVIORS = (HONEST, CRASHED, BYZ_EQUIVOCATE, BYZ_REFUSE, BYZ_FORGE)

ESCROWED = "escrowed"
COMMITTED = "committed"
ABORTED = "aborted"


@dataclass
class CrossChainTransfer:
    source: int
    target: int
    sender: int
    target_addr: int
    amount: int
    state: str = ESCROWED
    commit_votes: set[int] = field(default_factory=set)
    request_slot: int = 0


@dataclass(frozen=True)
class GovernanceAction:
    kind: str  # add_ward | remove_ward | set_param | add_chain | deprecate_contract
    payload: dict[str, Any]
    nonce: int


def register_relays(system: System, behaviors: dict[int, str] | None = None) -> None:
    """Set the behaviors of the relays of the roster 0..relay_n-1 that
    `behaviors` names; every other relay is honest."""
    behaviors = behaviors or {}
    n = system.params.relay_n
    unknown = [node_id for node_id in behaviors if node_id not in range(n)]
    if unknown:
        raise ProtocolError(f"relay ids {unknown} outside the roster 0..{n - 1}")
    for behavior in behaviors.values():
        if behavior not in BEHAVIORS:
            raise ProtocolError(f"unknown relay behavior {behavior!r}")
    system.relays = dict(behaviors)


def quorum(system: System) -> int:
    return 2 * system.params.relay_f + 1


def _roster(system: System) -> set[int]:
    """The ids of the relays whose votes count, on transfers and on
    certificates alike."""
    return set(range(system.params.relay_n))


# ----------------------------------------------------------------------
# transfers


def request_transfer(
    system: System, source_chain: int, sender: int, amount: int, target_chain: int, target_addr: int
) -> int:
    chain = system.chain(source_chain)
    if target_chain not in system.chains:
        raise UnknownChainError(f"unknown target chain {target_chain}")
    if amount <= 0:
        raise ProtocolError("transfer amount must be > 0")
    if chain.balance(sender) < amount:
        raise InsufficientBalanceError(
            f"sender {sender} holds {chain.balance(sender)}, needs {amount}"
        )
    tid = len(system.transfers)  # transfers are never removed
    transfer = CrossChainTransfer(
        source_chain, target_chain, sender, target_addr, amount, request_slot=system.slot
    )
    system.apply(source_chain, "escrow_create", {"transfer": tid, "sender": sender, "amount": amount})
    system.transfers[tid] = transfer
    system.pending_transfers[tid] = transfer
    return tid


def _node_validates(system: System, tid: int, transfer: CrossChainTransfer) -> bool:
    # an honest node re-reads the source chain and votes only if the escrow
    # is actually there with the advertised amount
    rec = system.chains[transfer.source].escrows.get(tid)
    return rec is not None and rec.amount == transfer.amount


def relay_step(system: System) -> list[dict[str, Any]]:
    """One relay round at the system clock's slot.

    The round is one vote rule. An equivocating relay of the roster votes
    for every pending transfer, and an honest one for each transfer whose
    escrow it can validate; a crashed, refusing or forging relay never casts
    a vote that counts. A transfer commits once the votes of 2f+1 distinct
    relays on the roster accumulate (burn on source and mint on target happen
    atomically within the step); votes cast before the roster shrank no
    longer count. Escrows that reach the timeout expire: commits are no
    longer accepted and the escrow is refunded in the same deterministic step.

    The round walks `system.pending_transfers` only; transfer ids are issued
    in increasing order, so that index is in id order.
    """
    slot = system.slot
    out: list[dict[str, Any]] = []
    needed = quorum(system)
    timeout = system.params.transfer_timeout
    roster = _roster(system)
    always = {node_id for node_id in roster if system.relays.get(node_id) == BYZ_EQUIVOCATE}
    on_valid = always | {node_id for node_id in roster
                         if system.relays.get(node_id, HONEST) == HONEST}

    for tid, transfer in list(system.pending_transfers.items()):
        if slot - transfer.request_slot >= timeout:
            # expired: refund if the escrow still exists, then close the
            # transfer so late commit certificates can never race the abort
            refunded = tid in system.chains[transfer.source].escrows
            if refunded:
                system.apply(transfer.source, "escrow_refund", {"transfer": tid})
            transfer.state = ABORTED
            del system.pending_transfers[tid]
            out.append({"type": "abort", "transfer": tid, "slot": slot, "refunded": refunded})
            continue

        # nothing is applied while the relays vote, so every honest relay
        # reads the same escrow
        valid = _node_validates(system, tid, transfer)
        transfer.commit_votes |= on_valid if valid else always
        votes = transfer.commit_votes & roster
        if len(votes) >= needed and valid:
            system.apply(transfer.source, "escrow_burn", {"transfer": tid})
            system.apply(
                transfer.target,
                "mint",
                {"account": transfer.target_addr, "amount": transfer.amount, "by": "relay", "transfer": tid},
            )
            transfer.state = COMMITTED
            del system.pending_transfers[tid]
            out.append({"type": "commit", "transfer": tid, "slot": slot, "votes": sorted(votes)})
    return out


def step(system: System) -> list[dict[str, Any]]:
    """Advance one slot: tick the clock, apply due governance, run the relay round."""
    system.tick()
    events = _apply_staged_governance(system)
    events.extend(relay_step(system))
    return events


# ----------------------------------------------------------------------
# governance


def submit_governance(system: System, action: GovernanceAction, votes: set[int]) -> bool:
    """Check and stage an action; it takes effect at the next step.

    Returns True iff the certificate carried a 2f+1 quorum of votes from the
    roster. The nonce is consumed only on acceptance.
    """
    if action.nonce in system.applied_nonces:
        raise StaleNonceError(f"nonce {action.nonce} already used")
    if len(_roster(system).intersection(votes)) < quorum(system):
        return False
    _effect(system, action)
    system.applied_nonces.add(action.nonce)
    system.staged_governance.append(action)
    return True


def _effect(system: System, action: GovernanceAction) -> Callable[[], Any]:
    """The action's effect on `system` as it stands, after reading every
    field the effect reads; a ProtocolError unless it can apply now."""
    kind, payload = action.kind, action.payload
    if not isinstance(payload, dict):
        raise ProtocolError(f"governance payload must be a dict, got {payload!r}")
    if kind == "set_param":
        if type(payload.get("name")) is not str or "value" not in payload:
            raise ProtocolError("set_param needs a str 'name' and a 'value'")
        params = system.params.with_param(payload["name"], payload["value"])  # raises if invalid
        return partial(setattr, system, "params", params)
    if kind in ("add_ward", "remove_ward"):
        account = payload.get("account")
        if type(account) is not int or type(payload.get("chain", 0)) is not int:
            raise ProtocolError(f"{kind} needs an int 'account' and, if any, an int 'chain'")
        targets = [system.chain(payload["chain"]).id] if "chain" in payload else sorted(system.chains)

        def wards() -> None:
            for chain_id in targets:
                system.apply(chain_id, "ward_add" if kind == "add_ward" else "ward_remove",
                             {"account": account})
        return wards
    if kind == "add_chain":
        config = payload.get("config", {})
        system.chain_config(config)
        return partial(system.create_chain, config)
    if kind == "deprecate_contract":
        if type(payload.get("contract")) is not str:
            raise ProtocolError("deprecate_contract needs a str 'contract'")
        return partial(system.deprecated_contracts.add, payload["contract"])
    raise ProtocolError(f"unknown governance action kind {kind!r}")


def _apply_staged_governance(system: System) -> list[dict[str, Any]]:
    due, system.staged_governance = system.staged_governance, []
    out = []
    for action in due:
        try:  # an action applied since this one was staged may have made it invalid
            effect = _effect(system, action)
        except ProtocolError as exc:
            out.append({"type": "governance_failed", "kind": action.kind, "nonce": action.nonce,
                        "error": str(exc)})
            continue
        effect()
        out.append({"type": "governance_applied", "kind": action.kind, "nonce": action.nonce})
    return out


# ----------------------------------------------------------------------
# invariant monitor


@dataclass(frozen=True)
class AuditReport:
    """What `audit` finds wrong with the transfers; the supply itself is
    `System.total_circulating`."""

    unbacked_minted: int  # committed transfers whose source burn was reverted
    unmatched_burns: list[int]  # committed transfers burned but never minted
    stuck_escrows: list[int]  # aborted transfers whose escrow was never refunded
    ok: bool  # none of the three


def audit(system: System) -> AuditReport:
    """Cross-check every transfer against the surviving chain event logs."""
    burn_seen: set[int] = set()
    mint_seen: dict[int, int] = {}
    for chain in system.chains.values():
        for ev in chain.events:
            if ev.kind == "escrow_burn":
                burn_seen.add(ev.payload["transfer"])
            elif ev.kind == "mint" and ev.payload.get("by") == "relay":
                tid = ev.payload.get("transfer")
                if tid is not None:
                    mint_seen[tid] = mint_seen.get(tid, 0) + ev.payload["amount"]

    unbacked = 0
    unmatched = []
    stuck = []
    for tid, transfer in sorted(system.transfers.items()):
        if transfer.state == COMMITTED:
            if tid in mint_seen and tid not in burn_seen:
                unbacked += mint_seen[tid]
            if tid in burn_seen and tid not in mint_seen:
                unmatched.append(tid)
        elif transfer.state == ABORTED and tid in system.chains[transfer.source].escrows:
            # an escrow still held was never refunded: a refund deletes it for good
            stuck.append(tid)
    return AuditReport(
        unbacked_minted=unbacked,
        unmatched_burns=unmatched,
        stuck_escrows=stuck,
        ok=(unbacked == 0 and not unmatched and not stuck),
    )


# ----------------------------------------------------------------------
# cost models for the three relay signature designs (abstract units)

N_OF_N = "NofN"  # every relay node sends its own approval transaction
N_OF_1 = "Nof1"  # one transaction carrying a batch of 2f+1 signatures
ONE_OF_1 = "1of1"  # one transaction carrying a single threshold signature

SIGNATURE_BYTES = 65
TX_UNITS = 21.0
VERIFY_UNITS = 3.0
BYTE_UNITS = 0.016
SIGN_SECONDS = 0.01  # per ordinary signature
THRESHOLD_SECONDS = 0.1  # coefficient of the ~n^2 threshold signing model


@dataclass(frozen=True)
class CostRecord:
    strategy: str
    transactions: int
    verifications: int
    message_bytes: int
    offchain_seconds: float

    @property
    def on_chain_units(self) -> float:
        return (
            self.transactions * TX_UNITS
            + self.verifications * VERIFY_UNITS
            + self.message_bytes * BYTE_UNITS
        )


def cost_of_commit(strategy: str, n: int, f: int) -> CostRecord:
    """Abstract cost of committing one transfer under each signature design.

    Per-quorum batches scale with 2f+1; the threshold scheme verifies one
    signature regardless of n but its off-chain signing grows ~n^2.
    """
    if f < 0 or n < 3 * f + 1:
        raise QuorumError(f"quorum arithmetic violated: n={n}, f={f} needs n >= 3f+1")
    q = 2 * f + 1
    if strategy == N_OF_N:
        return CostRecord(N_OF_N, transactions=q, verifications=q, message_bytes=0,
                          offchain_seconds=SIGN_SECONDS * q)
    if strategy == N_OF_1:
        return CostRecord(N_OF_1, transactions=1, verifications=q,
                          message_bytes=SIGNATURE_BYTES * q, offchain_seconds=SIGN_SECONDS * q)
    if strategy == ONE_OF_1:
        return CostRecord(ONE_OF_1, transactions=1, verifications=1,
                          message_bytes=SIGNATURE_BYTES, offchain_seconds=THRESHOLD_SECONDS * n * n)
    raise ProtocolError(f"unknown relay cost strategy {strategy!r}")
