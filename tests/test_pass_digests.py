"""The seed-0 decisions of the two protocol workloads, pinned.

A pass digest hashes every accept/reject outcome and the final
`state_digest` of one `prepare()`d pass (perfbench/protocol.py). The
benchmark checks only that the passes of one run agree with each other, so
a change that alters a protocol decision on every pass alike shows here
first. A change meant to move a decision says so in CHANGES.md and pins
the new digest.
"""

import sys
from pathlib import Path

import pytest

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
