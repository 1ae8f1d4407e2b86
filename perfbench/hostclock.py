"""Host-speed sampling, to take the host's speed drift out of the timings.

On the shared virtual machines this benchmark runs on, the CPU's speed
drifts by up to 2x over periods of seconds to a minute, on every vCPU at
once (README.md, "Noise on a shared host").  A run's median pass moves with
it.  While a timed region runs, SIGALRM fires every PERIOD seconds in the
benchmark's own process and the handler times a fixed loop of interpreter
work.  The region's host-adjusted time is its wall time scaled by
REFERENCE_S over the median sample: the time it would take on a host where
that loop takes REFERENCE_S.
"""

import signal
import time

#: seconds between samples
PERIOD = 0.01

#: nominal time of the sampled loop; about its median on the baseline's host
REFERENCE_S = 25e-6


class HostClock:
    """Context manager that samples the host's speed while it is entered."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _sample(self, signum=None, frame=None):
        t0 = time.perf_counter()
        acc = 0.0
        for i in range(400):
            acc += i * 0.5
        self.samples.append(time.perf_counter() - t0)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def factor(self) -> float:
        """REFERENCE_S over the median sample since the last call; then reset.

        A region shorter than PERIOD gets one sample taken now.
        """
        if not self.samples:
            self._sample()
        # the median by hand: importing statistics would slow the set-up probes
        ordered = sorted(self.samples)
        speed = (ordered[(len(ordered) - 1) // 2] + ordered[len(ordered) // 2]) / 2
        self.samples.clear()
        return REFERENCE_S / speed
