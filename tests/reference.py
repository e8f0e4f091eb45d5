"""Offline reference implementation used as the test oracle.

Deliberately independent of the streaming pipeline: a single vectorized
numpy pass over the whole trace computes normalized vectors, consecutive
L1 deltas, per-period maxima, the threshold band, and the first in-band
final-period delta. Only the RawSample record type is shared.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from lightwake.motion import RawSample

DEGENERATE_EPS = 1e-9


@dataclass(frozen=True)
class ReferenceOutcome:
    trigger: str  # "ThresholdHit" | "SessionEnd"
    alarm_time_ns: int
    trigger_delta: float | None
    t_min: float | None
    t_max: float | None
    learning_maxima: dict[int, float]


def delta_sequence(samples: list[RawSample], sleep_ns: int) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps_ns, values) of all deltas inside the session window."""
    rows = [(s.t_ns, s.ax, s.ay, s.az) for s in samples if s.t_ns < sleep_ns]
    if not rows:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    t = np.array([r[0] for r in rows], dtype=np.int64)
    a = np.array([r[1:] for r in rows], dtype=np.float64)
    norms = np.sqrt(a[:, 0] ** 2 + a[:, 1] ** 2 + a[:, 2] ** 2)
    keep = (norms >= DEGENERATE_EPS) & np.isfinite(norms)
    t, a, norms = t[keep], a[keep], norms[keep]
    if len(t) < 2:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.float64)
    unit = a / norms[:, None]
    step = np.abs(unit[1:] - unit[:-1])
    values = step[:, 0] + step[:, 1] + step[:, 2]
    return t[1:], values


def per_period_maxima(samples: list[RawSample], sleep_ns: int,
                      period_ns: int) -> dict[int, float]:
    """Brute-force max delta of every period (learning and final alike)."""
    t, values = delta_sequence(samples, sleep_ns)
    maxima: dict[int, float] = {}
    for ts, value in zip(t.tolist(), values.tolist()):
        index = ts // period_ns
        if index not in maxima or value > maxima[index]:
            maxima[index] = value
    return maxima


def offline_outcome(samples: list[RawSample], sleep_ns: int,
                    period_ns: int) -> ReferenceOutcome:
    """Reference alarm decision from one offline pass over the trace."""
    final_index = math.ceil(sleep_ns / period_ns) - 1
    t, values = delta_sequence(samples, sleep_ns)
    period = t // period_ns

    learning = period < final_index
    learning_maxima: dict[int, float] = {}
    for ts, value in zip(t[learning].tolist(), values[learning].tolist()):
        index = ts // period_ns
        if index not in learning_maxima or value > learning_maxima[index]:
            learning_maxima[index] = value
    t_min = min(learning_maxima.values()) if learning_maxima else None
    t_max = max(values[learning].tolist()) if learning.any() else None

    final = period == final_index
    if t_min is not None:
        for ts, value in zip(t[final].tolist(), values[final].tolist()):
            if t_min <= value <= t_max:
                return ReferenceOutcome("ThresholdHit", int(ts), value,
                                        t_min, t_max, learning_maxima)
    return ReferenceOutcome("SessionEnd", sleep_ns, None, t_min, t_max, learning_maxima)
