"""The seed-0 decisions of the two protocol workloads, and the seed-0
Monte Carlo tables, pinned.

A pass digest hashes every accept/reject outcome and the final
`state_digest` of one `prepare()`d pass (perfbench/protocol.py), or every
cell of the failure table (perfbench/risk.py). The benchmark checks only
that the passes of one run agree with each other, so a change that alters
a protocol decision or a Monte Carlo bit on every pass alike shows here
first. A change meant to move a decision or an estimate says so in
CHANGES.md and pins the new digest.
"""

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from crocodai import montecarlo, relay
from crocodai.riskmodel import NORMAL, STUDENT_T

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import protocol  # noqa: E402  (perfbench/protocol.py)
import risk  # noqa: E402  (perfbench/risk.py)

DIGESTS = {
    "CdpBook": "9d5a81befc77e73fda9fc5c311e1c4b3de1379772f5377e3c7b82dd20f5c7da5",
    "RelayTraffic": "4ffa1004bc02b3ecbe12eb6982eae1ebe9a0ada22d4131d7ac1f2840c66c3c61",
}


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_seed0_pass_digest(name):
    workload = getattr(protocol, name)(0)
    workload.prepare()
    result = workload.run_pass()
    assert result.failed == 0, result.failures
    assert result.digest == DIGESTS[name]


# every relay step of the seed-0 RelayTraffic pass: its records, then the
# state_digest after it. Escrows and commit votes are live mid-pass, so this
# sees what the end-of-pass digest cannot.
RELAY_STEPS = 3033
RELAY_STEPS_DIGEST = "e472c484ebf6f900aa659d1323bc1ab7d47c15fd1c113103c2f2a300c9cbb532"


def test_seed0_relay_steps_digest(monkeypatch):
    h, steps = hashlib.sha256(), []
    step = relay.step

    @functools.wraps(step)  # the pass digest hashes the function's name
    def pinned(system):
        out = step(system)
        steps.append(None)
        h.update(json.dumps(out, sort_keys=True).encode())
        h.update(system.state_digest().encode())
        return out

    monkeypatch.setattr(relay, "step", pinned)
    workload = protocol.RelayTraffic(0)
    workload.prepare()
    result = workload.run_pass()
    assert result.failed == 0, result.failures
    assert result.digest == DIGESTS["RelayTraffic"]
    assert len(steps) == RELAY_STEPS
    assert h.hexdigest() == RELAY_STEPS_DIGEST


# the seed-0 McTable pass, and two sweeps on its fitted model (8 assets,
# ADA in row 0, BTC in row 2): C-Mix2 reads rows with gaps under normal
# draws, and the one-asset portfolios draw from seeds of their own
MC_TABLE_DIGEST = "856de364741014d96638c8d443401eabcbddef10f8fdaa5240ad84a2de6662cb"
SWEEP_DIGESTS = {
    "C-Mix2-normal": "d5896564640f483afd6cbd0e32ba4d153dd3f91403f17c53b84b883cc2386048",
    "ADA-BTC-t-independent": "e1b19520776bc75cc52a2b8f826d24b8855de56729f09c9ffeb48afe183b2803",
}


@pytest.fixture(scope="module")
def mc_table(tmp_path_factory):
    workload = risk.McTable(0, PERFBENCH.parent, tmp_path_factory.mktemp("mc-table"))
    workload.prepare()
    return workload


def test_seed0_mc_table_pass_digest(mc_table):
    result = mc_table.run_pass()
    assert result.failed == 0, result.failures
    assert result.digest == MC_TABLE_DIGEST


@pytest.mark.parametrize("name", sorted(SWEEP_DIGESTS))
def test_seed0_sweep_digest(mc_table, name):
    if name == "C-Mix2-normal":
        portfolios, distribution, crn = [montecarlo.builtin_portfolio("C-Mix2")], NORMAL, True
    else:
        portfolios = [montecarlo.Portfolio.from_weights(a, {a: 1.0}) for a in ("ADA", "BTC")]
        distribution, crn = STUDENT_T, False
    result = montecarlo.table_sweep(
        portfolios, risk.GAMMAS, mc_table.model, risk.THETA, risk.HORIZON, 4096, distribution,
        seed=0, common_random_numbers=crn)
    digest = hashlib.sha256(json.dumps(result.as_json(), sort_keys=True).encode()).hexdigest()
    assert digest == SWEEP_DIGESTS[name]
