"""Shared by run.py and the workload processes: the result of one pass,
percentiles, the host-speed reference, and SIGTERM handling."""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class PassResult:
    start: float  # clock() when the measured part of the pass began
    wall: float  # seconds of clock(), tracing off unless this is the traced pass
    steps: list[tuple[float, int, int]]  # per step (slot, CLI call or sweep): HostSpeed.since()
    ops: int  # units of work completed: calls, CLI subcommands or paths
    attempted: int
    failed: int
    failures: list[str]
    digest: str  # decisions and outputs; equal across passes of one seed
    counts: dict[str, float] = field(default_factory=dict)  # per-layer counts seen by the workload code


def p50(values) -> float:
    return statistics.median(values)


def p99(values) -> float:
    """Nearest-rank 99th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.99 * len(ordered)) - 1)]


def terminate(signum, frame):
    """SIGTERM handler: raise SystemExit so `finally` blocks stop child
    processes and remove the work directory."""
    raise SystemExit(128 + signum)


# ----------------------------------------------------------------------
# host speed
#
# On a shared virtual machine the speed of one CPU changes by half or more
# within seconds and drifts over minutes: other guests take the CPU away,
# share its core and fill the shared cache. Times are therefore taken as the
# process's CPU time, which leaves out the time the CPU was taken away, and
# scaled by the speed of a fixed reference computation run in between: a
# timer interrupts the workload every REF_INTERVAL_S and runs it in the
# signal handler. `clock()` leaves the time spent there out, and
# `HostSpeed.scale` turns a stretch of the workload's CPU time into seconds
# at the nominal speed: its clock time times REF_NOMINAL_S over the mean CPU
# time the reference took meanwhile. The reference is the same code in every
# commit, so only the program's own work moves the scaled figures.

REF_INTERVAL_S = 0.02
STEP_CONTEXT = 10  # samples
REF_READ_LOOPS = 1500
REF_TEXT_LOOPS = 200
REF_NOMINAL_S = 0.0015  # the reference time the scaled figures assume
# Two halves of about equal time. The first does interpreter work and reads
# spread over 16 MiB, so it slows when the shared cache is busy; the second
# formats, hashes and parses strings, so it runs through much more of the
# interpreter and slows when the core is shared. On a shared 2-vCPU Xeon
# guest a relay-traffic pass took time as the first half's time to the power
# 1.41, as the second's to the power 0.90 and as both's to the power 1.13,
# where 1 would be a perfect yardstick (see README.md). Neither half
# allocates an object the garbage collector tracks, so the reference never
# collects the workload's garbage.
_REF_BYTES = bytes(range(256)) * (1 << 16)
_REF_TABLE = {i: i for i in range(256)}


def _reference() -> int:
    data, table, s = _REF_BYTES, _REF_TABLE, 0
    for i in range(REF_READ_LOOPS):
        s = (s * 31 + data[(i * 2654435761 + s) & 0xFFFFFF] + table[s & 255]) % 1_000_003
    for i in range(REF_TEXT_LOOPS):
        text = f"{i * 7919:x}-{s}"
        s = (s + hash(text.upper()) + int(text[text.index("-") + 1:]) + len(repr(i / 7.0))) % 1_000_003
    return s


class HostSpeed:
    def __init__(self):
        self.samples: list[float] = []  # seconds per reference computation
        self.busy = 0.0  # seconds spent in the handler

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, REF_INTERVAL_S, REF_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _sample(self, signum, frame) -> None:
        enter = time.process_time()
        _reference()
        done = time.process_time()
        self.samples.append(done - enter)
        self.busy += time.process_time() - enter

    def clock(self) -> float:
        """The process's CPU time less the time spent in the reference."""
        while True:
            busy = self.busy
            now = time.process_time()
            if busy == self.busy:  # no sample ran in between
                return now - busy

    def mark(self) -> tuple[float, int]:
        """The start of a step: clock() and the number of samples so far."""
        return self.clock(), len(self.samples)

    def since(self, mark: tuple[float, int]) -> tuple[float, int, int]:
        """A step that began at `mark`: its clock time, and the range of
        samples taken meanwhile."""
        return self.clock() - mark[0], mark[1], len(self.samples)

    def step_seconds(self, step: tuple[float, int, int]) -> float:
        """A step's time at the nominal speed, from the samples taken during it
        and STEP_CONTEXT on either side, so that a step shorter than the
        sampling interval is scaled by the speed around it."""
        seconds, first, last = step
        return seconds * self.scale(max(0, first - STEP_CONTEXT), last + STEP_CONTEXT)

    def scale(self, first: int, last: int = None) -> float:
        """Nominal over measured speed of the reference for samples[first:last];
        1.0 when no sample was taken."""
        window = self.samples[first:last]
        return REF_NOMINAL_S * len(window) / sum(window) if window else 1.0


HOST = HostSpeed()
clock, mark, since = HOST.clock, HOST.mark, HOST.since
