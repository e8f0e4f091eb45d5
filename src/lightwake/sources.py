"""Producers of raw acceleration sample streams.

Three interchangeable sources feed a session: replay of a recorded trace
file, a seeded synthetic sleep-night generator, and a TCP line-protocol
listener standing in for a body-worn IMU.

Trace file format (UTF-8 CSV):

    # rate_hz=4.0
    # label=free text
    t_s,ax_g,ay_g,az_g
    0.000000000,0.0123,-0.0021,0.9987
    ...

Optional ``#``-prefixed ``key=value`` comment lines may precede the header;
``rate_hz`` and ``label`` are recognized. ``t_s`` is seconds from session
start, below 1e12, and is converted to integer nanoseconds by rounding
half-up on the text, so the text value is authoritative: a time with
exactly 9 decimals, as ``write_trace`` writes it, by ``int()`` of its
digits, every other decimal form (other fraction lengths, sign, exponent,
``.5``) by ``Decimal``, with the same result.
Timestamps must be strictly increasing and every component must stay
within the sensor's +/-5 g range.

Live line protocol (TCP): newline-delimited ASCII, one sample per line of
at most MAX_LINE_BYTES (1024) bytes, as four whitespace-separated decimal
fields ``t_s ax ay az``, validated like trace rows: blank lines are skipped
and an error names its line. The server accepts a single client, replies
nothing, and drops the connection on the first invalid line. Closing the
connection ends the stream. LiveSource binds a (host, port) tuple.
TraceHeader and SleepModelParams raise ConfigInvalid when built with a bad value.

The synthetic generator is a fixture factory, not a physiological model:
a gravity baseline plus Gaussian noise, with randomized movement bursts
arriving as a Poisson process whose rate switches between a light-sleep
rate and a deep/REM rate over a fixed cycle schedule (movement clusters
around light sleep). It draws from numpy's PCG64 generator, so a fixed
seed reproduces the identical trace on any platform.
"""

from __future__ import annotations

import math
import socket
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, ROUND_HALF_UP
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator

import numpy as np

from .errors import BindError, ConfigInvalid, OrderViolation, ParseError
from .motion import NS_PER_S, RawSample, SENSOR_RANGE_G

TRACE_HEADER_LINE = "t_s,ax_g,ay_g,az_g"
MAX_LINE_BYTES = 1024

_NS_QUANTUM = Decimal("1e-9")


@dataclass(frozen=True, slots=True)
class TraceHeader:
    """Trace metadata: sampling rate (1..250 Hz), covered duration (>= 0), label."""

    sample_rate_hz: float = 4.0
    duration_ns: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if not 1.0 <= self.sample_rate_hz <= 250.0:
            raise ConfigInvalid(f"sample rate {self.sample_rate_hz!r} Hz outside the sensor's "
                                f"1..250 Hz envelope")
        if self.duration_ns < 0:
            raise ConfigInvalid("duration must be non-negative")


@dataclass(frozen=True, slots=True)
class SleepModelParams:
    """Knobs of the synthetic night: cycle layout, noise, and burst process.

    Movement bursts arrive at burst_rate_light events/min while the schedule
    is in light sleep and burst_rate_deep otherwise (deep and REM are both
    quiet). Each burst lasts 1..5 s with a per-axis offset drawn uniformly
    from +/-burst_amplitude g.
    """

    cycle_length_ns: int = 90 * 60 * NS_PER_S
    rem_fraction: float = 0.20
    quiet_noise_sigma: float = 0.003
    burst_rate_light: float = 3.0
    burst_rate_deep: float = 0.1
    burst_amplitude: float = 0.4
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.cycle_length_ns < 60 * NS_PER_S:  # stage_schedule holds 3 segments per cycle
            raise ConfigInvalid(f"cycle length must be at least 60 s, got {self.cycle_length_ns} ns")
        if not 0.0 < self.rem_fraction < 1.0:
            raise ConfigInvalid(f"rem_fraction {self.rem_fraction!r} outside (0, 1)")
        if not self.quiet_noise_sigma >= 0.0:
            raise ConfigInvalid("quiet_noise_sigma must be non-negative")
        # Light sleep must be at least as restless as deep sleep; equal rates
        # are allowed so both can be zeroed for quiescent fixtures.
        if not self.burst_rate_light >= self.burst_rate_deep >= 0.0:
            raise ConfigInvalid(f"burst rates must satisfy light {self.burst_rate_light!r} "
                                f">= deep {self.burst_rate_deep!r} >= 0")
        if not self.burst_amplitude >= 0.0:
            raise ConfigInvalid("burst_amplitude must be non-negative")
        if self.rng_seed < 0:
            raise ConfigInvalid(f"rng_seed must be non-negative, got {self.rng_seed}")


def seconds_to_ns(token: str) -> int:
    """Convert a decimal seconds field to integer nanoseconds, rounding half-up.

    The form format_seconds writes, 1..12 ASCII digits, a point and exactly
    9 ASCII digits, is already whole nanoseconds and is read by int(); every
    other form goes through Decimal, which is exact on it too. Both are
    platform-independent; raises ValueError on anything non-finite or >= 1e12 s.
    """
    whole, _, frac = token.partition(".")
    if len(frac) == 9 and len(whole) <= 12 and whole.isdigit() and frac.isdigit() and token.isascii():
        return int(whole + frac)
    try:
        value = Decimal(token)
    except InvalidOperation as exc:
        raise ValueError(f"not a decimal number: {token.strip()!r}") from exc
    if not value.is_finite():
        raise ValueError(f"non-finite time value: {token.strip()!r}")
    # Larger values overflow Decimal or make int() take seconds; no night lasts 1e12 s.
    if value and value.adjusted() >= 12:
        raise ValueError(f"time value {token.strip()!r} out of range")
    # One rounding, on the exact value: at most 22 digits, within Decimal's 28.
    return int(value.quantize(_NS_QUANTUM, ROUND_HALF_UP).scaleb(9))


def _fields_to_sample(t_tok: str, x_tok: str, y_tok: str, z_tok: str) -> RawSample:
    # Decimal and float ignore surrounding whitespace, so tokens are stripped
    # only to name them in an error, as the wire, split on whitespace, has them.
    try:
        t_ns = seconds_to_ns(t_tok)
    except ValueError as exc:
        raise ParseError(f"bad time field {t_tok.strip()!r}: {exc}") from exc
    if t_ns < 0:
        raise ParseError(f"negative timestamp {t_tok.strip()!r}")
    try:
        ax, ay, az = float(x_tok), float(y_tok), float(z_tok)
    except ValueError:
        pass
    else:
        # NaN and +/-inf fail the range test too.
        if -SENSOR_RANGE_G <= ax <= SENSOR_RANGE_G and -SENSOR_RANGE_G <= ay <= SENSOR_RANGE_G \
                and -SENSOR_RANGE_G <= az <= SENSOR_RANGE_G:
            return RawSample(t_ns, ax, ay, az)
    raise ParseError(_component_error(x_tok, y_tok, z_tok))


def _component_error(*tokens: str) -> str:
    """Name the first of a row's acceleration fields that is not a reading."""
    for tok in map(str.strip, tokens):
        try:
            value = float(tok)
        except ValueError:
            return f"bad acceleration field {tok!r}"
        if not math.isfinite(value):
            return f"non-finite acceleration field {tok!r}"
        if abs(value) > SENSOR_RANGE_G:
            return f"acceleration {tok!r} exceeds +/-{SENSOR_RANGE_G:g} g"
    raise AssertionError("every acceleration field is a reading")


def _samples(numbered_lines: Iterable[tuple[int, str]], sep: str | None) -> Iterator[RawSample]:
    """Parse ``t_s ax ay az`` rows, split on sep, into strictly time-ordered samples.

    The one row reader for trace files and the live wire: blank rows are
    skipped, and a ParseError or OrderViolation names its 1-based line.
    """
    prev_t = -1  # timestamps are non-negative, so the first row always passes
    for lineno, line in numbered_lines:
        fields = line.split(sep)
        try:
            if len(fields) != 4:
                if not line.strip():
                    continue
                raise ParseError(f"expected 4 fields (t_s ax ay az), got {len(fields)}")
            sample = _fields_to_sample(*fields)
        except ParseError as exc:
            raise ParseError(f"line {lineno}: {exc}") from None
        if sample.t_ns <= prev_t:
            raise OrderViolation(
                f"line {lineno}: timestamp {sample.t_ns} ns does not increase past {prev_t} ns"
            )
        prev_t = sample.t_ns
        yield sample


# -- trace files ------------------------------------------------------------

def read_trace(path: str | Path) -> tuple[TraceHeader, list[RawSample]]:
    """Parse a trace CSV into its header and time-ordered samples.

    Raises ParseError (with the offending line number) on malformed or
    out-of-range rows or on bytes that are not UTF-8, or OrderViolation on
    non-monotone timestamps.
    """
    path = Path(path)
    rate = 4.0
    label = ""
    try:
        with path.open("r", encoding="utf-8") as fh:
            lines = enumerate(fh, start=1)
            for lineno, line in lines:
                line = line.rstrip("\r\n")
                if not line.startswith("#"):
                    break
                key, _, value = line[1:].strip().partition("=")
                key = key.strip()
                if key == "rate_hz":
                    try:
                        rate = TraceHeader(float(value)).sample_rate_hz
                    except (ValueError, ConfigInvalid) as exc:
                        raise ParseError(f"line {lineno}: bad rate_hz value {value!r}: {exc}") from None
                elif key == "label":
                    label = value
                # Unknown keys are ignored for forward compatibility.
            else:
                raise ParseError(f"{path}: missing {TRACE_HEADER_LINE!r} header line")
            if line.strip() != TRACE_HEADER_LINE:
                raise ParseError(f"line {lineno}: expected header {TRACE_HEADER_LINE!r}, got {line!r}")
            samples = list(_samples(lines, ","))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text: {exc}") from None
    header = TraceHeader(
        sample_rate_hz=rate,
        duration_ns=samples[-1].t_ns if samples else 0,
        label=label,
    )
    return header, samples


def format_seconds(t_ns: int) -> str:
    """Exact seconds with 9 decimals for t_ns >= 0, so seconds_to_ns reads it back."""
    return f"{t_ns // NS_PER_S}.{t_ns % NS_PER_S:09d}"


def write_trace(path: str | Path, header: TraceHeader, samples: list[RawSample]) -> None:
    """Write samples in the canonical trace CSV format (see module docstring).

    Components are written with shortest round-trip float formatting, so
    read_trace(write_trace(...)) reproduces the samples bit for bit.
    """
    path = Path(path)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# rate_hz={header.sample_rate_hz!r}\n")
        if header.label:
            fh.write(f"# label={header.label}\n")
        fh.write(TRACE_HEADER_LINE + "\n")
        for s in samples:
            fh.write(f"{format_seconds(s.t_ns)},{s.ax!r},{s.ay!r},{s.az!r}\n")


# -- synthetic generator -----------------------------------------------------

_DEEP, _LIGHT, _REM = "deep", "light", "rem"


def stage_schedule(params: SleepModelParams, duration_ns: int) -> list[tuple[int, int, str]]:
    """Piecewise-constant stage segments (start_ns, end_ns, stage) over the night.

    Each cycle runs deep -> light -> REM, with REM occupying rem_fraction of
    the cycle and the remainder split evenly between deep and light.
    """
    nrem_fraction = 1.0 - params.rem_fraction
    cycle = params.cycle_length_ns
    deep_end = int(cycle * nrem_fraction / 2.0)
    light_end = int(cycle * nrem_fraction)
    segments: list[tuple[int, int, str]] = []
    cycle_start = 0
    while cycle_start < duration_ns:
        for offset, end, stage in (
            (0, deep_end, _DEEP),
            (deep_end, light_end, _LIGHT),
            (light_end, cycle, _REM),
        ):
            seg_start = cycle_start + offset
            seg_end = min(cycle_start + end, duration_ns)
            if seg_start >= duration_ns:
                break
            if seg_end > seg_start:
                segments.append((seg_start, seg_end, stage))
        cycle_start += cycle
    return segments


def generate_trace(params: SleepModelParams, header: TraceHeader) -> list[RawSample]:
    """Synthesize a night of accelerometer samples; deterministic per seed."""
    rate = header.sample_rate_hz
    ns_per_sample = NS_PER_S / rate
    n = int(header.duration_ns * rate / NS_PER_S)
    while int(n * ns_per_sample + 0.5) < header.duration_ns:
        n += 1
    while n > 0 and int((n - 1) * ns_per_sample + 0.5) >= header.duration_ns:
        n -= 1
    if n == 0:
        return []
    # Each t_ns is int(i * ns_per_sample + 0.5) in float64; seeded traces depend on these ops.
    t_ns = (np.arange(n, dtype=np.float64) * ns_per_sample + 0.5).astype(np.int64)
    t_s = t_ns / NS_PER_S

    rng = np.random.default_rng(params.rng_seed)
    acc = np.zeros((n, 3), dtype=np.float64)
    acc[:, 2] = 1.0  # gravity baseline
    acc += rng.normal(0.0, params.quiet_noise_sigma, size=(n, 3))

    for seg_start, seg_end, stage in stage_schedule(params, header.duration_ns):
        rate_per_s = (
            params.burst_rate_light if stage == _LIGHT else params.burst_rate_deep
        ) / 60.0
        if rate_per_s <= 0.0:
            continue
        t = seg_start / NS_PER_S
        seg_end_s = seg_end / NS_PER_S
        while True:
            t += rng.exponential(1.0 / rate_per_s)
            if t >= seg_end_s:
                break
            duration = rng.uniform(1.0, 5.0)
            offsets = rng.uniform(-params.burst_amplitude, params.burst_amplitude, size=3)
            i0 = int(np.searchsorted(t_s, t, side="left"))
            i1 = int(np.searchsorted(t_s, t + duration, side="left"))
            if i1 <= i0:
                continue
            envelope = np.sin(np.pi * (t_s[i0:i1] - t) / duration)
            acc[i0:i1] += offsets[None, :] * envelope[:, None]

    np.clip(acc, -SENSOR_RANGE_G, SENSOR_RANGE_G, out=acc)
    return list(map(RawSample, t_ns.tolist(), *acc.T.tolist()))


# -- live listener -----------------------------------------------------------

def _wire_lines(wire: BinaryIO) -> Iterator[tuple[int, str]]:
    """Number the lines of a connection, refusing one longer than MAX_LINE_BYTES.

    Non-ASCII bytes decode to U+FFFD, which no field accepts.
    """
    for lineno, line in enumerate(iter(lambda: wire.readline(MAX_LINE_BYTES + 1), b""), start=1):
        if len(line) > MAX_LINE_BYTES:
            raise ParseError(f"line {lineno}: longer than {MAX_LINE_BYTES} bytes")
        yield lineno, line.decode("ascii", "replace")


class LiveSource:
    """Iterator of RawSamples read from a single TCP client on a (host, port).

    Binds eagerly (so BindError surfaces at construction, also for a port
    outside 0..65535); accepts the one client lazily on first iteration.
    The actual bound (host, port) is exposed as .address, which is how
    tests bind port 0 and discover the ephemeral port. Closing the
    connection ends the stream; any protocol violation drops the client
    and raises.
    """

    def __init__(self, bind_address: tuple[str, int], timeout: float | None = None):
        self._timeout = timeout
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self._listener.bind(bind_address)
            self._listener.listen(1)
        except (OSError, OverflowError) as exc:
            self._listener.close()
            raise BindError(f"cannot bind {bind_address[0]}:{bind_address[1]}: {exc}") from exc
        self._listener.settimeout(timeout)
        self.address: tuple[str, int] = self._listener.getsockname()[:2]
        self._iterator: Iterator[RawSample] | None = None

    def __iter__(self) -> Iterator[RawSample]:
        return self

    def __next__(self) -> RawSample:
        if self._iterator is None:
            self._iterator = self._stream()
        return next(self._iterator)

    def _stream(self) -> Iterator[RawSample]:
        try:
            conn, _ = self._listener.accept()
        except socket.timeout:
            raise ParseError("timed out waiting for a client connection") from None
        finally:
            self._listener.close()
        conn.settimeout(self._timeout)
        # A timeout leaves the file object unusable, but it also ends the stream.
        with conn, conn.makefile("rb") as wire:
            try:
                yield from _samples(_wire_lines(wire), None)
            except socket.timeout:
                raise ParseError("timed out waiting for sample data") from None

    def close(self) -> None:
        self._listener.close()
        if self._iterator is not None:
            self._iterator.close()


def listen_live(bind_address: tuple[str, int], timeout: float | None = None) -> LiveSource:
    """Bind a TCP listener and return the sample stream it will serve."""
    return LiveSource(bind_address, timeout=timeout)
