"""Host-contention probe: rescales a child's CPU time to a reference CPU speed.

On a shared virtual machine two things other than the program change how
long a child takes.  Other tenants' processes take turns on the same vCPUs,
which adds wall time but no CPU time to the child, so the benchmark times the
child's CPU time (user plus system, from ``os.wait4``).  And the speed of a
vCPU switches, many times a second, between a fast state and a state about
1.5 to 2 times slower (another tenant on the same physical core), with a
share of slow time that drifts over minutes; that slows CPU time too.

While a child runs, a thread of the benchmark times ``probe_work`` (a fixed
pure-Python loop of about 64 microseconds uncontended) every ``PERIOD_S``.
Before each probe the thread moves itself to the CPU the child last ran on
(read from /proc), so it sees the speed that CPU had while the child ran.
Then

    rescaled = CPU time * REFERENCE_S / mean probe time during the child

is the child's time on a CPU that runs ``probe_work`` in REFERENCE_S, the
probe's time on an uncontended vCPU of the 2-vCPU reference machine.  The
reference is a constant so that it adds no noise of its own; on another
machine the rescaled times are in that machine's probe units, comparable
between commits measured there.  Probes slower than ``OUTLIER`` times the
reference were preempted rather than slowed, and are left out of the mean.
"""

from __future__ import annotations

import os
import statistics
import threading
import time

PERIOD_S = 0.005
REFERENCE_S = 64e-6
OUTLIER = 3.0


def last_cpu(pid: int) -> int | None:
    """The CPU the process ran on last, or None where /proc does not say."""
    try:
        with open(f"/proc/{pid}/stat", "rb") as f:
            return int(f.read().rpartition(b")")[2].split()[36])
    except (OSError, ValueError, IndexError):
        return None


def _mix(a: int, b: int) -> int:
    return (a * 31 + b) & 1023


def probe_work() -> int:
    """Calls, dict reads and writes, tuples and integer arithmetic, as in polyrec's sweeps."""
    d = {}
    s = 0
    for i in range(250):
        k = _mix(i, s) & 63
        d[k] = d.get(k, 0) + i
        t = (k, i)
        s += t[0] + len(d)
    return s


class Probe(threading.Thread):
    """Times ``probe_work`` on the CPU of process ``pid`` every PERIOD_S until ``stop``."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.samples: list[float] = []
        self._stopped = threading.Event()

    def run(self):
        cpu = None
        while not self._stopped.wait(PERIOD_S):
            child_cpu = last_cpu(self.pid)
            if child_cpu is not None and child_cpu != cpu and hasattr(os, "sched_setaffinity"):
                try:
                    os.sched_setaffinity(0, {child_cpu})  # 0: this thread alone
                except OSError:
                    pass
                cpu = child_cpu
            start = time.perf_counter()
            probe_work()
            self.samples.append(time.perf_counter() - start)

    def stop(self) -> list[float]:
        self._stopped.set()
        self.join()
        return self.samples


class Timing:
    """The wall and CPU time of one child and the probe times taken while it ran."""

    def __init__(self, wall: float, cpu: float, samples: list[float]):
        self.wall = wall
        self.cpu = cpu
        self.samples = samples

    def rescaled(self) -> float:
        kept = [s for s in self.samples if s < OUTLIER * REFERENCE_S]
        return self.cpu * REFERENCE_S / statistics.fmean(kept) if kept else self.cpu
