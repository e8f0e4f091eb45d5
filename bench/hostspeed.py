"""Host-speed sampling, and scaling of timed intervals to full host speed.

On a shared host the CPU speed a process gets drifts by up to 2x within
seconds, because other tenants share the physical cores. Process CPU time
drifts with wall time, so neither says how fast lightwake is. While the
benchmark measures, ``Sampler`` runs a fixed pure-Python probe from a
SIGALRM handler every ``INTERVAL_S`` seconds, in the middle of whatever the
program is doing. An interval is then reported as its time at full speed:
each stretch between two probes is scaled by ``REFERENCE_S`` over the mean
of the two probe durations, and the probes' own time is left out. The probe
is benchmark code and the same on every commit, so the scaling cancels the
host's speed and nothing else. Raw times are kept beside the scaled ones.
"""

from __future__ import annotations

import bisect
import signal
import time

PROBE_LOOPS = 5000
# The probe's duration when the host runs at full speed: the fast mode of
# its distribution on a 2-vCPU x86-64 VM with CPython 3.11.
REFERENCE_S = 0.00125
INTERVAL_S = 0.1


def _probe_body() -> float:
    acc = 0.0
    for i in range(PROBE_LOOPS):
        d = {"a": i, "b": i * 0.5}
        acc += d["b"] / (i + 1.0)
    return acc


def probe() -> float:
    """Duration of one probe run, in seconds.

    Imports nothing beyond time, so a fresh interpreter can probe before it
    imports lightwake without loading any of its dependencies early.
    """
    start = time.perf_counter()
    _probe_body()
    return time.perf_counter() - start


def scale(raw: float, before: float, after: float) -> float:
    """raw seconds at the host speed two probes measured, as seconds at full speed."""
    return raw * 2 * REFERENCE_S / (before + after)


class Sampler:
    """Probes host speed every INTERVAL_S while active; scales intervals afterwards.

    Use as a context manager around the measured code. The handler runs in
    the main thread between bytecodes, and Python retries the system calls
    a signal interrupts, so the program runs as it would without it.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _sample(self, *_: object) -> None:
        start = time.perf_counter()
        _probe_body()
        end = time.perf_counter()
        self.starts.append(start)
        self.ends.append(end)
        self.durations.append(end - start)

    def __enter__(self) -> "Sampler":
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: object) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._sample()

    def scaled(self, start: float, end: float) -> tuple[float, float]:
        """(raw_s, scaled_s) of the interval [start, end] of perf_counter readings.

        raw_s leaves out the probes that ran inside the interval. Call after
        the sampler has exited, so that a probe precedes and follows every
        interval measured while it was active.
        """
        first = bisect.bisect_left(self.starts, start)
        last = bisect.bisect_right(self.ends, end)
        cuts = [start]
        for i in range(first, last):
            cuts += [self.starts[i], self.ends[i]]
        cuts.append(end)
        raw = scaled = 0.0
        for k in range(last - first + 1):
            # Stretch k runs from the end of probe first+k-1 to the start of probe first+k.
            stretch = cuts[2 * k + 1] - cuts[2 * k]
            raw += stretch
            scaled += scale(stretch, self.durations[max(first + k - 1, 0)], self.durations[first + k])
        return raw, scaled
