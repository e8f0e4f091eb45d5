"""
Motion deltas from raw acceleration
===================================

The whole detector runs on one scalar signal: normalize each 3-axis
reading to a unit vector, then take the L1 distance between consecutive
vectors. Magnitude (sensor gain, gravity scale) cancels out; direction
changes remain. The math is plain tuples and floats; the time of a delta
is the time of the later reading.
"""

from lightwake import RawSample, manhattan_delta, normalize

NS = 1_000_000_000

# A sleeper lying still, rolling over, then still again in the new posture.
readings = [
    RawSample(0 * NS, 0.02, -0.01, 1.00),
    RawSample(1 * NS, 0.01, 0.00, 0.99),
    RawSample(2 * NS, 0.45, 0.20, 0.85),   # mid-roll
    RawSample(3 * NS, 0.70, 0.28, 0.62),
    RawSample(4 * NS, 0.71, 0.30, 0.63),   # settled
    RawSample(5 * NS, 0.70, 0.29, 0.63),
]

print("t_s   unit vector                      delta")
prev = None
for raw in readings:
    unit = normalize(raw)
    shown = f"{raw.t_ns / NS:<5g} ({unit[0]:+.3f}, {unit[1]:+.3f}, {unit[2]:+.3f})"
    print(shown, "  -" if prev is None else f"  {manhattan_delta(prev, unit):.4f}")
    prev = unit

# Scaling a reading changes nothing: only direction matters.
doubled = normalize(RawSample(6 * NS, 1.40, 0.58, 1.26))
settled = normalize(RawSample(7 * NS, 0.70, 0.29, 0.63))
print(f"\nsame direction at twice the magnitude, delta = "
      f"{manhattan_delta(doubled, settled):.2e}")
