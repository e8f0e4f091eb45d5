"""Pure math on 3-axis acceleration samples.

Every body-motion decision downstream is made on one scalar signal: the
Manhattan (L1) distance between consecutive *normalized* acceleration
vectors. Normalizing first (dividing each component by the vector's
Euclidean length) discards the overall magnitude, so the signal reacts to
changes in posture/direction rather than to sensor gain or gravity scale,
and every component lands in [-1, 1].

All functions here are pure and time-unaware: timestamps ride along
untouched, in integer nanoseconds, so replays are exactly reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DegenerateSample, OrderViolation

NS_PER_S = 1_000_000_000

# A reading shorter than this (in g) cannot come from a body at rest, which
# always measures about 1 g of gravity; treat it as a sensor fault.
DEGENERATE_NORM_EPS = 1e-9

# Largest possible L1 distance between two unit vectors, attained at the
# antipodal pair +/-(1,1,1)/sqrt(3).
MAX_DELTA = 2.0 * math.sqrt(3.0)

SENSOR_RANGE_G = 5.0


@dataclass(frozen=True, slots=True)
class RawSample:
    """One 3-axis accelerometer reading, components in g.

    t_ns is the virtual time offset from session start. Within a stream,
    timestamps are strictly increasing; each component is finite and within
    the sensor's +/-5 g range.
    """

    t_ns: int
    ax: float
    ay: float
    az: float


@dataclass(frozen=True, slots=True)
class NormalizedSample:
    """Unit-length direction vector derived from a RawSample.

    Satisfies sqrt(nx^2 + ny^2 + nz^2) == 1 within 1e-9, with every
    component in [-1, 1].
    """

    t_ns: int
    nx: float
    ny: float
    nz: float


@dataclass(frozen=True, slots=True)
class MotionDelta:
    """L1 distance between two consecutive normalized samples.

    Dimensionless, in [0, 2*sqrt(3)]. Stamped with the timestamp of the
    later of the two samples.
    """

    t_ns: int
    value: float


def euclidean_norm(ax: float, ay: float, az: float) -> float:
    """Euclidean length sqrt(ax^2 + ay^2 + az^2) of an acceleration vector.

    The distance is measured from the origin: that is the only reference
    point under which dividing each component by the result yields a unit
    vector.
    """
    return math.sqrt(ax * ax + ay * ay + az * az)


def normalize(sample: RawSample) -> NormalizedSample:
    """Scale a raw sample to unit Euclidean length, preserving its timestamp.

    Raises DegenerateSample when the vector's length is below
    DEGENERATE_NORM_EPS; callers are expected to skip the reading and log a
    warning rather than fabricate a direction.
    """
    norm = euclidean_norm(sample.ax, sample.ay, sample.az)
    if norm < DEGENERATE_NORM_EPS:
        raise DegenerateSample(
            f"acceleration vector at t={sample.t_ns} ns has length {norm:.3e} g, "
            f"below the {DEGENERATE_NORM_EPS:.0e} g guard"
        )
    return NormalizedSample(
        t_ns=sample.t_ns,
        nx=sample.ax / norm,
        ny=sample.ay / norm,
        nz=sample.az / norm,
    )


def manhattan_delta(prev: NormalizedSample, curr: NormalizedSample) -> MotionDelta:
    """Manhattan distance |dx| + |dy| + |dz| between back-to-back samples.

    The result carries the timestamp of `curr`. Raises OrderViolation
    unless prev.t_ns < curr.t_ns.
    """
    if prev.t_ns >= curr.t_ns:
        raise OrderViolation(
            f"samples out of order: prev t={prev.t_ns} ns >= curr t={curr.t_ns} ns"
        )
    value = abs(curr.nx - prev.nx) + abs(curr.ny - prev.ny) + abs(curr.nz - prev.nz)
    return MotionDelta(t_ns=curr.t_ns, value=value)
