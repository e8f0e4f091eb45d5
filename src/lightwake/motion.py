"""Pure vector math on 3-axis acceleration samples.

Every body-motion decision downstream is made on one scalar signal: the
Manhattan (L1) distance between consecutive *normalized* acceleration
vectors. Normalizing first (dividing each component by the vector's
Euclidean length) discards the overall magnitude, so the signal reacts to
changes in posture/direction rather than to sensor gain or gravity scale,
and every component lands in [-1, 1].

The math is time-unaware: normalize() returns a plain (nx, ny, nz) tuple
and manhattan_delta() a float. Timestamps stay on the RawSample.
block_deltas() does both in one numpy pass over a Block's components,
which sample_block() packs from RawSamples with one struct.pack_into call.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DegenerateSample

NS_PER_S = 1_000_000_000

# A reading shorter than this (in g) cannot come from a body at rest, which
# always measures about 1 g of gravity; treat it as a sensor fault.
DEGENERATE_NORM_EPS = 1e-9

# Largest possible L1 distance between two unit vectors, attained at the
# antipodal pair +/-(1,1,1)/sqrt(3).
MAX_DELTA = 2.0 * math.sqrt(3.0)

SENSOR_RANGE_G = 5.0

Vector = tuple[float, float, float]

Block = tuple[list[int], np.ndarray]  # a run of samples as columns (times, xyz); see sample_block


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


def raw_samples(t_ns: list[int], ax: list[float], ay: list[float], az: list[float]) -> list[RawSample]:
    """map(RawSample, t_ns, ax, ay, az), unchecked like it, at a third of its cost.

    Each slot's own descriptor sets its column, skipping the frozen __init__'s object.__setattr__.
    """
    samples = list(map(object.__new__, repeat(RawSample, len(t_ns))))
    for slot, column in zip((RawSample.t_ns, RawSample.ax, RawSample.ay, RawSample.az), (t_ns, ax, ay, az)):
        deque(map(slot.__set__, samples, column), maxlen=0)
    return samples


def block_rows(blocks: Iterable[Block]) -> Iterator[RawSample]:
    """The rows of Blocks as RawSamples, a Block at a time."""
    return chain.from_iterable(raw_samples(times, *xyz.tolist()) for times, xyz in blocks)


def sample_block(samples: Sequence[RawSample]) -> Block:
    """The Block of samples: their times, ints as a time may pass int64, and a 3 x n float64 array
    of their ax, ay and az, filled by one struct.pack_into; a component that is not a real number
    in float's range raises TypeError."""
    xyz = np.empty((3, len(samples)))
    try:
        struct.pack_into(f"{xyz.size}d", xyz, 0, *[s.ax for s in samples], *[s.ay for s in samples],
                         *[s.az for s in samples])
    except struct.error:
        raise TypeError("a sample component is not a real number in float's range") from None
    return [s.t_ns for s in samples], xyz


def normalize(sample: RawSample) -> Vector:
    """Scale a raw sample to a unit vector (nx, ny, nz) by its Euclidean length.

    Raises DegenerateSample when the length is below DEGENERATE_NORM_EPS or
    not finite (a NaN or infinite component, or one whose square overflows);
    callers are expected to skip the reading rather than fabricate a
    direction.
    """
    ax, ay, az = sample.ax, sample.ay, sample.az
    norm = math.sqrt(ax * ax + ay * ay + az * az)
    if not DEGENERATE_NORM_EPS <= norm < math.inf:
        raise DegenerateSample(
            f"acceleration vector has length {norm:.3e} g, "
            f"not a finite length of at least {DEGENERATE_NORM_EPS:.0e} g"
        )
    return (ax / norm, ay / norm, az / norm)


def manhattan_delta(prev: Vector, curr: Vector) -> float:
    """Manhattan distance |dx| + |dy| + |dz| between two unit vectors, in [0, MAX_DELTA]."""
    return abs(curr[0] - prev[0]) + abs(curr[1] - prev[1]) + abs(curr[2] - prev[2])


def block_deltas(prev: Vector | None, xyz: np.ndarray) -> tuple[np.ndarray, np.ndarray, Vector | None]:
    """normalize and manhattan_delta over a run of samples, given as a Block's xyz, bit for bit.

    Returns (degenerate, deltas, last). degenerate masks the samples that
    normalize refuses. deltas[i] is the manhattan_delta of sample i against
    the last sample before it that was kept, or against prev for the first;
    it is NaN where sample i is degenerate or nothing precedes it. last is
    the unit vector of the last kept sample in Python floats, or prev when
    none was kept. Each element goes through the scalar functions' IEEE
    operations in their order, and numpy fuses none of them.
    """
    with np.errstate(over="ignore"):  # an overflowing square or sum is a degenerate length
        sq = xyz * xyz
        norm = np.sqrt(sq[0] + sq[1] + sq[2])
    kept = (DEGENERATE_NORM_EPS <= norm) & (norm < math.inf)
    all_kept = kept.all()
    if not all_kept:
        xyz, norm = xyz[:, kept], norm[kept]
    unit = np.empty((3, len(norm) + 1))
    unit[:, 0] = (math.nan,) * 3 if prev is None else prev
    np.divide(xyz, norm, out=unit[:, 1:])
    step = np.abs(unit[:, 1:] - unit[:, :-1])
    deltas = step[0] + step[1] + step[2]
    if not all_kept:
        aligned = np.full(len(kept), math.nan)
        aligned[kept] = deltas
        deltas = aligned
    last = tuple(unit[:, -1].tolist()) if len(norm) else prev
    return ~kept, deltas, last
