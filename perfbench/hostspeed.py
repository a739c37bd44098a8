"""Host time measured in seconds of a reference host speed.

The virtual CPUs this benchmark was written on switch between speed
states that differ by up to 60% for a few seconds at a time, more than
any bound worth gating on.  :class:`HostSpeed` samples a fixed piece of
pure-Python work while the measured code runs and rescales the measured
time by it.

This module imports nothing but ``signal`` and ``time``: the set-up
probe imports it in a fresh interpreter before the imports it times.
"""

from __future__ import annotations

import signal
import time


def calibration_loop() -> float:
    """Seconds this host takes for a fixed piece of pure-Python work."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(30000):
        table[i % 97] = total
        total += (i * i) % 7
    return time.perf_counter() - start


class HostSpeed:
    """Times code in seconds of a reference host speed.

    While the code runs, a timer signal samples :func:`calibration_loop`
    every ``INTERVAL_S``, and the measured time (minus the sampling
    itself) is multiplied by ``REFERENCE_S`` over the mean sample: the
    time the code would have taken at the speed where the loop takes
    ``REFERENCE_S``.  The loop runs no simulator code, so a slower
    program still reads slower.
    """

    #: Calibration-loop time at the reference speed (the fast state of
    #: the 2-vCPU Xeon host the baseline was measured on).
    REFERENCE_S = 0.0033
    INTERVAL_S = 0.1

    def __init__(self) -> None:
        self.factors: list = []
        #: Called with the seconds each in-run sample took (a traced pass
        #: keeps them out of the layer self times).
        self.on_sample = None
        self._samples: list = []
        self._paused = 0.0

    def _sample(self, signum, frame) -> None:
        start = time.perf_counter()
        self._samples.append(calibration_loop())
        elapsed = time.perf_counter() - start
        self._paused += elapsed
        if self.on_sample is not None:
            self.on_sample(elapsed)

    def time(self, action, since=None):
        """Run ``action()``; returns its result and its (wall, cpu)
        seconds, rescaled.

        ``since`` is a ``time.perf_counter()`` reading to count wall time
        from instead of the call.  On Linux that clock is system-wide, so
        the reading may come from the process that started this one.
        """
        cpu, began = time.process_time(), time.perf_counter()
        self._samples = [calibration_loop()]
        if since is None:
            wall, cpu, self._paused = time.perf_counter(), time.process_time(), 0.0
        else:
            wall, self._paused = since, time.perf_counter() - began
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL_S, self.INTERVAL_S)
        try:
            result = action()
        finally:
            wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
        self._samples.append(calibration_loop())
        factor = self.REFERENCE_S * len(self._samples) / sum(self._samples)
        self.factors.append(factor)
        return result, (wall - self._paused) * factor, (cpu - self._paused) * factor
