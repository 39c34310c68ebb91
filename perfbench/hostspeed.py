"""Sample how fast the host runs while the program runs.

On a shared host a vCPU's speed drifts with the load other tenants put
on the hardware it shares: the same execution took from 9 to 17 s
within minutes on a 2-vCPU Xeon VM.  Little of that shows as steal
time (about 4% of CPU time during a run there): process CPU time varies
as much as wall time.  A yardstick timed before and after a multi-second
execution misses the changes in between.  So the probe samples during the execution: a
daemon thread wakes every ``PERIOD_S``, moves to the vCPU the program's
main thread last ran on (left alone it would run on the other, idle
one, whose speed differs), and times a fixed loop of ~0.3 ms there.
``run.py`` rescales each phase's wall time by
``REFERENCE_S / mean probe time`` over the phase.  Over 49
``paper-scale-hybrid`` executions on that VM, the mean probe time and
the wall time correlated at 0.92.

The loop imports nothing from the program and fits in L1, so a change
to the program moves the rescaled time by the share it moves the wall
time.  cProfile profiles only the thread that enables it, so the probe
never shows in the traced shares; it costs the program about 1% of its
CPU and one GIL hand-over per sample.
"""

from __future__ import annotations

import os
import threading
import time

PERIOD_S = 0.05
#: Typical mean probe time, in seconds, on the 2-vCPU Xeon VM the bounds
#: were set on: rescaled times are the wall times the work takes there.
REFERENCE_S = 0.00027


def _loop() -> int:
    x = 0
    for i in range(1_500):
        x = (x * 1103515245 + i) & 0xFFFFFFFF
    return x


class HostSpeedProbe:
    """Times ``_loop`` every ``PERIOD_S`` until stopped.

    Construct it in the thread whose vCPU it should sample.
    """

    def __init__(self) -> None:
        #: ``[monotonic end, seconds]`` per sample.
        self.samples: list = []
        self._stat = f"/proc/self/task/{threading.get_native_id()}/stat"
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="hostspeed", daemon=True)

    def start(self) -> "HostSpeedProbe":
        self._thread.start()
        return self

    def stop(self) -> list:
        self._stop.set()
        self._thread.join()
        return self.samples

    def _main_cpu(self) -> int:
        """The vCPU the sampled thread last ran on (field 39 of its stat)."""
        with open(self._stat) as fh:
            return int(fh.read().rsplit(")", 1)[1].split()[36])

    def _run(self) -> None:
        while not self._stop.wait(PERIOD_S):
            # The sampled thread now waits for the GIL this thread holds;
            # left alone, this thread would run on the other, idle vCPU.
            os.sched_setaffinity(0, {self._main_cpu()})
            t0 = time.perf_counter()
            _loop()
            t1 = time.perf_counter()
            self.samples.append([time.monotonic(), t1 - t0])
