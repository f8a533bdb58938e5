"""Host-speed probe, probe-window validity guard and sample statistics.

The benchmark host is shared, and its speed drifts between runs and, in
steps of a few seconds, within them.  Every timing the benchmark reports is
divided by the speed of a frozen probe run just before and just after it:

    corrected = raw * PROBE_REF_S / mean(probe window before, probe window after)

The probe is a loop of integer arithmetic and dict-of-int inserts and
deletes.  It allocates no object the garbage collector tracks, runs with
``gc`` disabled and imports nothing from ``repro``, so a change to the
program under test cannot change the probe.  It only runs while the system
under test is idle; :class:`HostProbe` checks that, and a run whose probe
windows saw other work is flagged invalid and left uncorrected.
"""

from __future__ import annotations

import gc
import os
import statistics
import time
from typing import List, NamedTuple, Optional, Sequence

#: Iterations of one probe window (~8 ms on the reference host).
PROBE_ITERATIONS = 25_000

#: Probe time on the reference host (2-core x86-64 VM, CPython 3.11, numpy
#: 2.4) in its faster speed state.  Frozen: corrected seconds are seconds
#: on that host.
PROBE_REF_S = 0.0076

#: CPU seconds other threads of this process may use during one window.
OTHER_THREAD_TOLERANCE_S = 0.0005

#: Clock ticks the watched server process may accrue during one window.
SERVER_TICK_TOLERANCE = 1

#: Fewest samples a p90 may be computed from (ten beyond the percentile).
MIN_P90_SAMPLES = 100


def probe_loop(iterations: int = PROBE_ITERATIONS) -> int:
    """The frozen probe: LCG-driven churn of a dict of ints (untracked).

    Hash-table churn slows with the host the way the workloads' object
    code does; a bare arithmetic loop slows less when the host is in its
    slow state, which under-corrects.
    """
    table = {}
    x = 1
    for _ in range(iterations):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 1023] = x
        if x & 1:
            table.pop((x >> 1) & 1023, None)
    return len(table)


def _proc_ticks(pid: int) -> int:
    """utime + stime of ``pid`` in clock ticks, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as handle:
        fields = handle.read().rsplit(")", 1)[1].split()
    return int(fields[11]) + int(fields[12])


def cpu_steal() -> tuple:
    """``(steal, total)`` jiffies of the aggregate ``cpu`` line of /proc/stat."""
    with open("/proc/stat") as handle:
        values = [int(v) for v in handle.readline().split()[1:]]
    steal = values[7] if len(values) > 7 else 0
    return steal, sum(values[:8])


def steal_frac(before: tuple, after: tuple) -> float:
    """Share of CPU time stolen by the hypervisor between two readings."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total else 0.0


class HostProbe:
    """Runs probe windows and derives the run's host-speed correction.

    Args:
        server_pid: a process that must stay idle during every window (the
            serve workload's server); ``None`` checks only this process.
        cpus: run the probe once pinned to each of these CPUs and take the
            mean, for load spread over several CPUs (the host slows one
            CPU at a time); ``None`` probes wherever this thread runs.
    """

    def __init__(
        self, server_pid: Optional[int] = None, cpus: Optional[Sequence[int]] = None
    ) -> None:
        self.server_pid = server_pid
        self.cpus = cpus
        self.samples: List[float] = []
        self.busy_windows = 0
        self.busy_reasons: List[str] = []

    def window(self) -> int:
        """Run one probe window; returns its index in :attr:`samples`."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            ticks0 = _proc_ticks(self.server_pid) if self.server_pid else 0
            proc0 = time.process_time()
            thread0 = time.thread_time()
            elapsed = self._probe()
            thread1 = time.thread_time()
            proc1 = time.process_time()
            ticks1 = _proc_ticks(self.server_pid) if self.server_pid else 0
        finally:
            if enabled:
                gc.enable()
        other_cpu = (proc1 - proc0) - (thread1 - thread0)
        reasons = []
        if other_cpu > OTHER_THREAD_TOLERANCE_S:
            reasons.append(f"other threads used {other_cpu * 1e3:.2f} ms CPU")
        if ticks1 - ticks0 > SERVER_TICK_TOLERANCE:
            reasons.append(f"server used {ticks1 - ticks0} ticks")
        if reasons:
            self.busy_windows += 1
            self.busy_reasons.extend(reasons)
        self.samples.append(elapsed)
        return len(self.samples) - 1

    def _probe(self) -> float:
        if not self.cpus:
            start = time.perf_counter()
            probe_loop()
            return time.perf_counter() - start
        allowed = os.sched_getaffinity(0)
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})  # this thread only
                start = time.perf_counter()
                probe_loop()
                times.append(time.perf_counter() - start)
        finally:
            os.sched_setaffinity(0, allowed)
        return sum(times) / len(times)

    @property
    def valid(self) -> bool:
        """True when every window saw the system under test idle."""
        return self.busy_windows == 0 and bool(self.samples)

    @property
    def last(self) -> int:
        """Index of the latest window."""
        return len(self.samples) - 1

    @property
    def median(self) -> float:
        return statistics.median(self.samples)

    def correct(self, timing: "Timing") -> float:
        """Reference-host seconds of ``timing``.

        Raw seconds for an invalid run: background work would otherwise
        make the corrected numbers look faster.
        """
        if not self.valid:
            return timing.raw
        local = (self.samples[timing.before] + self.samples[timing.after]) / 2
        return timing.raw * PROBE_REF_S / local


class Timing(NamedTuple):
    """A raw duration and the probe windows taken just before and after it."""

    raw: float
    before: int
    after: int


def p90_of(samples: Sequence[float]) -> float:
    """90th percentile; refuses fewer than :data:`MIN_P90_SAMPLES` samples."""
    if len(samples) < MIN_P90_SAMPLES:
        raise ValueError(
            f"op_p90_s needs at least {MIN_P90_SAMPLES} samples, "
            f"got {len(samples)}"
        )
    return statistics.quantiles(samples, n=10, method="inclusive")[-1]


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set (``VmHWM``) of ``pid`` (default: this process)."""
    path = f"/proc/{pid if pid else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")

