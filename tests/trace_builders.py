"""Hand-scripted traces with exactly controlled motion deltas.

A "spike" replaces one baseline sample (gravity, (0, 0, 1)) with a unit
vector tilted in the x-z plane by an angle solved so that the L1 distance
to the baseline equals a chosen target. Each spike therefore contributes a
rising delta and a falling delta of the same value, both inside one
period, making per-period maxima fully scriptable.
"""

from __future__ import annotations

import math

from lightwake.motion import NS_PER_S, RawSample
from lightwake.sources import TraceHeader

BASELINE = (0.0, 0.0, 1.0)


def tilt_for_delta(target: float) -> tuple[float, float, float]:
    """Unit vector (sin b, 0, cos b) whose L1 distance to (0, 0, 1) is target.

    g(b) = sin b + (1 - cos b) grows monotonically from 0 to 2 on
    [0, pi/2]; bisect to float precision and keep the closer endpoint.
    """
    if not (0.0 <= target <= 2.0):
        raise ValueError(f"target delta {target!r} outside [0, 2]")

    def gap(beta: float) -> float:
        return math.sin(beta) + (1.0 - math.cos(beta))

    lo, hi = 0.0, math.pi / 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid == lo or mid == hi:
            break
        if gap(mid) < target:
            lo = mid
        else:
            hi = mid
    beta = lo if abs(gap(lo) - target) <= abs(gap(hi) - target) else hi
    return (math.sin(beta), 0.0, math.cos(beta))


def scripted_trace(
    period_maxima: list[float],
    final_deltas: list[float],
    *,
    period_s: int = 3600,
    rate_hz: float = 4.0,
    learning_spike_offset_s: int | None = None,
    final_spike_spacing_s: int | None = None,
    label: str = "scripted fixture",
) -> tuple[TraceHeader, list[RawSample]]:
    """Trace whose learning periods peak at period_maxima, with the given
    deltas scripted early in the final period.

    Covers len(period_maxima) learning periods plus one final period at the
    given rate. Requires integer ns per sample and spike offsets that land
    on the sample grid.
    """
    ns_per_sample = round(NS_PER_S / rate_hz)
    if abs(ns_per_sample * rate_hz - NS_PER_S) > 1e-3:
        raise ValueError(f"rate {rate_hz!r} Hz does not give integer ns per sample")
    if learning_spike_offset_s is None:
        learning_spike_offset_s = period_s // 2
    if final_spike_spacing_s is None:
        final_spike_spacing_s = max(1, period_s // 60)
    if not (0 < learning_spike_offset_s < period_s):
        raise ValueError("learning spike offset must fall inside its period")
    if (len(final_deltas) + 1) * final_spike_spacing_s >= period_s:
        raise ValueError("final spikes do not fit inside the final period")
    n_periods = len(period_maxima) + 1
    duration_ns = n_periods * period_s * NS_PER_S
    n = n_periods * period_s * round(rate_hz)

    vectors = [BASELINE] * n

    def place(t_s: float, value: float) -> int:
        offset_ns = round(t_s * NS_PER_S)
        index, rem = divmod(offset_ns, ns_per_sample)
        if rem:
            raise ValueError(f"spike at {t_s!r} s is off the sample grid")
        vectors[index] = tilt_for_delta(value)
        return index

    for k, value in enumerate(period_maxima):
        place(k * period_s + learning_spike_offset_s, value)
    final_start_s = len(period_maxima) * period_s
    for i, value in enumerate(final_deltas):
        place(final_start_s + (i + 1) * final_spike_spacing_s, value)

    samples = [
        RawSample(i * ns_per_sample, vx, vy, vz)
        for i, (vx, vy, vz) in enumerate(vectors)
    ]
    header = TraceHeader(sample_rate_hz=rate_hz, duration_ns=duration_ns, label=label)
    return header, samples
