"""Offline reference implementation used as the test oracle.

Deliberately independent of the streaming pipeline: a single vectorized
numpy pass over the whole trace computes normalized vectors, consecutive
L1 deltas, per-period maxima, the threshold band, and the first in-band
final-period delta. offline_log writes the v3 event log from the same
pass. Only the RawSample record type is shared.
"""

from __future__ import annotations

import json
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


def _session_rows(samples: list[RawSample], sleep_ns: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(timestamps_ns, kept, values) of the samples inside the session window: kept masks
    those that are not degenerate, and values are the deltas between consecutive kept ones."""
    rows = [(s.t_ns, s.ax, s.ay, s.az) for s in samples if s.t_ns < sleep_ns]
    t = np.array([r[0] for r in rows], dtype=np.int64)
    a = np.array([r[1:] for r in rows], dtype=np.float64).reshape(-1, 3)
    norms = np.sqrt(a[:, 0] ** 2 + a[:, 1] ** 2 + a[:, 2] ** 2)
    keep = (norms >= DEGENERATE_EPS) & np.isfinite(norms)
    unit = a[keep] / norms[keep][:, None]
    step = np.abs(unit[1:] - unit[:-1])
    return t, keep, step[:, 0] + step[:, 1] + step[:, 2]


def delta_sequence(samples: list[RawSample], sleep_ns: int) -> tuple[np.ndarray, np.ndarray]:
    """(timestamps_ns, values) of all deltas inside the session window."""
    t, keep, values = _session_rows(samples, sleep_ns)
    return t[keep][1:], values


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


def offline_log(samples: list[RawSample], sleep_ns: int, period_ns: int) -> str:
    """The v3 event log of a session, built from the same offline pass.

    The header; then each learning sample's record in time order
    (SampleSkipped for a degenerate one, SampleAccepted for the first kept
    one, DeltaComputed for every later one), each after the PeriodClosed,
    and the ThresholdsUpdated where the band moved, of every learning period
    it crosses; then the learning periods left and FinalPeriodEntered; then
    the final period's records up to the alarm, AlarmFired and SessionEnded.
    """
    ref = offline_outcome(samples, sleep_ns, period_ns)
    final_index = math.ceil(sleep_ns / period_ns) - 1
    final_ns = final_index * period_ns
    t, keep, values = _session_rows(samples, sleep_ns)
    # rank: a sample's index among the kept ones; kept sample k > 0 has deltas[k - 1].
    times, kept, rank, deltas = t.tolist(), keep.tolist(), (np.cumsum(keep) - 1).tolist(), values.tolist()
    lines = [{"v": 3, "sleep_ns": sleep_ns, "period_ns": period_ns}]
    maxima: list[float] = []

    def record(t_ns: int, kind: str, **fields) -> None:
        lines.append({"t_ns": t_ns, "kind": kind, **fields})

    def close_before(index: int, closed: int) -> int:
        """Close the learning periods from closed up to index; returns the count closed."""
        for k in range(closed, index):
            top, end = ref.learning_maxima.get(k), (k + 1) * period_ns
            record(end, "PeriodClosed", index=k, period_max=top)
            if top is not None:
                band = (min(maxima), max(maxima)) if maxima else (None, None)
                maxima.append(top)
                if (min(maxima), max(maxima)) != band:
                    record(end, "ThresholdsUpdated", t_min=min(maxima), t_max=max(maxima))
        return max(closed, index)

    def sample(i: int) -> None:
        if not kept[i]:
            record(times[i], "SampleSkipped", reason="degenerate")
        elif rank[i] == 0:
            record(times[i], "SampleAccepted")
        else:
            record(times[i], "DeltaComputed", value=deltas[rank[i] - 1])

    closed = 0
    for i, t_ns in enumerate(times):
        if t_ns < final_ns:
            closed = close_before(t_ns // period_ns, closed)
            sample(i)
    close_before(final_index, closed)
    record(final_ns, "FinalPeriodEntered")
    for i, t_ns in enumerate(times):
        if final_ns <= t_ns <= ref.alarm_time_ns:
            sample(i)
    hit = {} if ref.trigger_delta is None else {"value": ref.trigger_delta}
    record(ref.alarm_time_ns, "AlarmFired", trigger=ref.trigger, **hit)
    record(ref.alarm_time_ns, "SessionEnded")
    return "".join(json.dumps(line, separators=(",", ":")) + "\n" for line in lines)
