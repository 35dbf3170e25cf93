"""The seed-0 decisions of the two protocol workloads, pinned.

A pass digest hashes every accept/reject outcome and the final
`state_digest` of one `prepare()`d pass (perfbench/protocol.py). The
benchmark checks only that the passes of one run agree with each other, so
a change that alters a protocol decision on every pass alike shows here
first. A change meant to move a decision says so in CHANGES.md and pins
the new digest.
"""

import functools
import hashlib
import json
import sys
from pathlib import Path

import pytest

from crocodai import relay

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import protocol  # noqa: E402  (perfbench/protocol.py)

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
