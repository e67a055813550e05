"""Host-speed adjustment for timings taken on a contended machine.

On the shared 2-vCPU reference virtual machine, the speed a process
gets swings by up to 2x within seconds (the host schedules other
guests on the same cores); raw wall clocks of one job spread by 15-30%
between runs, more than any regression bound the benchmark could
usefully set.

:class:`HostSpeed` samples that speed while a job runs: a
``SIGVTALRM`` timer fires after every 20 ms of the benchmark process's
own CPU time and times a fixed dictionary-update loop.  ``factor()``
is the mean of ``REF_SECONDS / loop time`` over the samples -- the
share of the reference speed the host gave -- and a job's adjusted
time is its wall clock times that factor.  The timer counts only this process's CPU
time, so while the process waits on drain-pool workers no samples are
taken and the workers' load on the vCPUs does not read as a slow host.
Interval timers are not inherited across ``fork``, so pool workers are
never interrupted.
"""

from __future__ import annotations

import signal
import statistics
import time

#: The probe loop's time on the reference box when the host is not
#: contended (measured minimum 75-80 us).
REF_SECONDS = 7.5e-5
INTERVAL_SECONDS = 0.02


def _probe() -> float:
    # Hashing, dict lookups and integer arithmetic: of the loops tried,
    # the one whose slowdown tracked the simulator's most closely.
    # Repeating one seed, the coefficient of variation of adjusted job
    # times was 0.6% (smoke) and 2.8% (decode_heavy), against 3.3% and
    # 8.1% raw.
    start = time.perf_counter()
    counts: dict = {}
    for i in range(600):
        key = (i * 2654435761) & 255
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - start


class HostSpeed:
    """Context manager sampling the host's speed while it is active."""

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum, frame) -> None:
        self.samples.append(_probe())

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGVTALRM, self._sample)
        signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_SECONDS, INTERVAL_SECONDS)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_VIRTUAL, 0, 0)
        signal.signal(signal.SIGVTALRM, self._previous)

    def factor(self) -> float:
        """Mean share of the reference speed over the samples (1.0
        when nothing was sampled)."""
        if not self.samples:
            return 1.0
        return statistics.fmean(REF_SECONDS / s for s in self.samples)
