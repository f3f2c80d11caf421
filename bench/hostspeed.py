"""CPU time scaled to a reference host speed.

The benchmark machine is a shared 2-vCPU VM.  The same code runs there at
speeds up to 2x apart, switching every few seconds and sometimes staying
in one state for minutes.  CPU time swings with it as much as wall time
does, so a run's median CPU or wall time depends on the state the host
happened to be in.  The program's speed relative to a fixed piece of
reference work does not: over 14 to 18 back-to-back passes of each
workload, the wall time of a pass spread 23-28% (interquartile range
over median) and varied up to 1.95x, while the same passes in reference
seconds, with a chunk of the mix below, spread 0.9-3.0% and varied at
most 1.10x.  A chunk of tuple and dict work alone, or of arithmetic
alone, tracked the host's speed less closely.

``HostClock`` samples the host's speed all through a pass: every
``TICK_S`` of process CPU time a SIGPROF handler runs the reference chunk
and records its CPU time.  ``elapsed`` turns the CPU time between two
stamps, less the handlers' own time, into seconds at the reference speed:
each stretch between two ticks is scaled by ``REF_NS`` over the median
chunk time of the five nearest ticks.  ``REF_NS`` is the chunk's CPU
time on the benchmark machine in its slower, more common state, so
reference seconds read as that machine's seconds in that state.  The scaling removes host speed only; a change
to bruhatcells changes the reference seconds as it changes CPU time.

The clock is the main thread's CPU time (the process CPU clock of this
kernel is not read at fine grain inside the signal handler).  It leaves
out time the hypervisor gives to other guests (steal); the workloads are
single-threaded and do no I/O, so for them it is wall time less that.
"""

from __future__ import annotations

import bisect
import gc
import signal
import statistics
import time

TICK_S = 0.01
REF_KEYS = 120
REF_SUMS = 2150
REF_NS = 500_000


def _reference_chunk() -> int:
    """Tuple building, dict updates and integer arithmetic, the mix of the
    library's inner loops; it touches nothing of bruhatcells."""
    counts: dict = {}
    for i in range(REF_KEYS):
        key = tuple((i * 7 + j) % 101 for j in range(8))
        counts[key] = counts.get(key, 0) + 1
    total = 0
    for i in range(REF_SUMS):
        total += i * i % 7
    return len(counts) + total


class HostClock:
    """Thread CPU time with the host's speed sampled alongside it."""

    def __init__(self):
        # (thread CPU ns at handler entry, chunk CPU ns, CPU ns at exit)
        self.ticks: list = []
        self._cumulative = None
        self._in_tick = False

    def start(self):
        signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, TICK_S, TICK_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    @staticmethod
    def now() -> int:
        return time.thread_time_ns()

    def _tick(self, signum, frame):
        if self._in_tick:  # a tick that fell inside the chunk
            return
        self._in_tick = True
        clock = time.thread_time_ns
        entry = clock()
        gc_was_enabled = gc.isenabled()
        gc.disable()  # the library's garbage is not the chunk's work
        start = clock()
        _reference_chunk()
        ref = clock() - start
        if gc_was_enabled:
            gc.enable()
        self.ticks.append((entry, ref, clock()))
        self._in_tick = False

    def _build(self):
        """Scale and cumulative reference ns of each stretch between ticks;
        stretch k ends at the entry of tick k (the last one never ends)."""
        refs = [ref for _, ref, _ in self.ticks]
        starts = [0] + [exit_ for _, _, exit_ in self.ticks]
        ends = [entry for entry, _, _ in self.ticks]
        scales, cumulative = [], [0.0]
        for k in range(len(starts)):
            window = refs[max(0, k - 2):k + 3]
            scales.append(REF_NS / statistics.median(window) if window else 1.0)
            if k < len(ends):
                cumulative.append(cumulative[-1] + (ends[k] - starts[k]) * scales[k])
        self._cumulative = (ends, starts, scales, cumulative)

    def _position(self, stamp: int) -> float:
        ends, starts, scales, cumulative = self._cumulative
        k = bisect.bisect_right(ends, stamp)
        return cumulative[k] + max(0, stamp - starts[k]) * scales[k]

    def elapsed(self, start: int, end: int) -> float:
        """Reference seconds of work between two ``now()`` stamps; call
        after ``stop()``."""
        if self._cumulative is None:
            self._build()
        return (self._position(end) - self._position(start)) / 1e9
