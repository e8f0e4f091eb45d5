"""Producers of raw acceleration sample streams.

Three interchangeable sources feed a session: replay of a recorded trace
file, a seeded synthetic sleep-night generator, and a TCP line-protocol
listener standing in for a body-worn IMU.

Trace file format (UTF-8 CSV; a leading byte-order mark is skipped):

    # rate_hz=4.0
    # label=free text
    t_s,ax_g,ay_g,az_g
    0.000000000,0.0123,-0.0021,0.9987
    ...

Optional ``#``-prefixed ``key=value`` comment lines may precede the header;
``rate_hz`` and ``label`` are recognized, and a label encodes as UTF-8 and
holds no line break and no trailing whitespace. ``t_s`` is seconds from
session start, below 1e12, and is converted to integer nanoseconds by
rounding half-up on the text (``seconds_to_ns``), so the text value is
authoritative. Timestamps must be strictly increasing and every component
must stay within the sensor's +/-5 g range.

Live line protocol (TCP): newline-delimited ASCII, one sample per line of
at most MAX_LINE_BYTES (1024) bytes with its newline, as four
whitespace-separated decimal fields ``t_s ax ay az``, validated like trace
rows: blank lines are skipped and an error names its line. The server
accepts a single client, replies nothing, and drops the connection on the
first invalid line. Closing the connection ends the stream; an unterminated
final line still counts. LiveSource binds a (host, port) tuple, and
iter(source) is its sample stream: motion.block_rows over the wire's Blocks.
Its close() closes the connection and ends the stream for next(source) and
any later iter(source).

Rows are decoded in blocks of whole lines, of about 64 KiB each, into the
columns of a motion.Block, which read_trace and LiveSource give as samples.
A block of canonical rows, as write_trace and the bench sender write them,
is decoded in bulk; any other block row by row by _samples, the one
row-path parser. The rows and errors are the same, and an error comes after
the Block of every earlier row. The wire's 1,024-byte rule is enforced in
two places: _wire_blocks refuses an unterminated line over it as it
buffers, and _rows' row-by-row path a terminated one, which no canonical
block holds. Trace lines have no limit.
TraceHeader and SleepModelParams raise ConfigInvalid when built with a bad value.

The synthetic generator is a fixture factory, not a physiological model:
a gravity baseline plus Gaussian noise, with randomized movement bursts
arriving as a Poisson process whose rate switches between a light-sleep
rate and a deep/REM rate over a fixed cycle schedule (movement clusters
around light sleep). It draws from numpy's PCG64 generator, so a fixed
seed reproduces the identical trace on any platform. It makes the night in
chunks of rows, so write_generated_trace writes it in memory bounded by a
chunk, with the bytes write_trace writes for generate_trace's list.
"""

from __future__ import annotations

import math
import operator
import re
import socket
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation, ROUND_HALF_UP
from itertools import chain
from pathlib import Path
from typing import IO, Iterable, Iterator

import numpy as np

from .errors import BindError, ConfigInvalid, LightwakeError, OrderViolation, ParseError
from .motion import NS_PER_S, Block, RawSample, SENSOR_RANGE_G, block_rows, raw_samples, sample_block

TRACE_HEADER_LINE = "t_s,ax_g,ay_g,az_g"
MAX_LINE_BYTES = 1024

_NS_QUANTUM = Decimal("1e-9")
_BLOCK_BYTES = 1 << 16  # the readlines hint of the trace and log readers


@dataclass(frozen=True, slots=True)
class TraceHeader:
    """Trace metadata: sampling rate (1..250 Hz), covered duration (>= 0), and a label that
    encodes as UTF-8, with no line break or trailing whitespace, so that a trace reads it
    back as written."""

    sample_rate_hz: float = 4.0
    duration_ns: int = 0
    label: str = ""

    def __post_init__(self) -> None:
        if not 1.0 <= self.sample_rate_hz <= 250.0:
            raise ConfigInvalid(f"sample rate {self.sample_rate_hz!r} Hz outside the sensor's "
                                f"1..250 Hz envelope")
        if self.duration_ns < 0:
            raise ConfigInvalid("duration must be non-negative")
        if "\n" in self.label or "\r" in self.label or self.label != self.label.rstrip():
            raise ConfigInvalid(f"label {self.label!r} holds a line break or ends in whitespace")
        if re.search("[\ud800-\udfff]", self.label):  # a lone surrogate, which UTF-8 cannot encode
            raise ConfigInvalid(f"label {self.label!r} does not encode as UTF-8")


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

    Decimal reads every form of the text exactly, and that value is rounded
    half-up once, so the result is platform-independent. Raises ValueError
    on anything non-finite or >= 1e12 s.
    """
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


def _samples(lines: Iterable[tuple[int, str]], sep: str | None, prev_t: int = -1) -> Iterator[RawSample]:
    """Parse ``t_s ax ay az`` rows, split on sep, into samples time-ordered after prev_t.

    The one row-path parser for trace files and the live wire: blank rows are
    skipped, and a ParseError or OrderViolation names its 1-based line. A row's
    first fault is the error: its field count, its time, its components in
    order, then its order after the row before.
    """
    for lineno, line in lines:
        fields = line.split(sep)
        if len(fields) != 4:
            if not line.strip():
                continue
            raise ParseError(f"line {lineno}: expected 4 fields (t_s ax ay az), got {len(fields)}")
        # Decimal and float ignore surrounding whitespace, so tokens are stripped
        # only to name them in an error, as the wire, split on whitespace, has them.
        try:
            t_ns = seconds_to_ns(fields[0])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad time field {fields[0].strip()!r}: {exc}") from None
        if t_ns < 0:
            raise ParseError(f"line {lineno}: negative timestamp {fields[0].strip()!r}")
        components = []
        for tok in fields[1:]:
            try:
                value = float(tok)
            except ValueError:
                raise ParseError(f"line {lineno}: bad acceleration field {tok.strip()!r}") from None
            if not math.isfinite(value):
                raise ParseError(f"line {lineno}: non-finite acceleration field {tok.strip()!r}")
            if abs(value) > SENSOR_RANGE_G:
                raise ParseError(f"line {lineno}: acceleration {tok.strip()!r} exceeds +/-{SENSOR_RANGE_G:g} g")
            components.append(value)
        if t_ns <= prev_t:
            raise OrderViolation(f"line {lineno}: timestamp {t_ns} ns does not increase past {prev_t} ns")
        prev_t = t_ns
        yield RawSample(t_ns, *components)


def _rows(blocks: Iterable[str], sep: str | None, lineno: int, limit: int | None = None) -> Iterator[Block]:
    """Parse blocks of whole lines, the first one numbered lineno, as _samples does, into Blocks.

    A block of canonical rows (a time as format_seconds writes it, then three
    short float tokens, one separator each) is decoded in bulk. Any other goes
    through _samples, the one row-path parser; on a bad row the Block of the
    rows before it comes first, and the error is raised when the reader is
    resumed. Given a limit, the
    first terminated line over limit bytes with its newline is a bad row,
    whatever it holds (the blocks' source checks an unterminated one). Only
    this path checks it: a canonical row is at most 98 bytes.
    """
    canonical = re.compile(rf"(?:[0-9]{{1,12}}\.[0-9]{{9}}(?:{sep or ' '}[-.0-9e]{{1,24}}){{3}}\n)+")
    prev_t = -1  # timestamps are non-negative, so the first row always passes
    for block in blocks:
        columns = canonical.fullmatch(block) and _canonical_block(block, prev_t)
        if columns is None:
            lines = block.split("\n")  # the last one is unterminated, or blank
            long = next((i for i, line in enumerate(lines[:-1]) if len(line) >= limit), None) if limit else None
            samples: list[RawSample] = []
            try:
                for sample in _samples(enumerate(lines[:long], lineno), sep, prev_t):
                    samples.append(sample)
                if long is not None:
                    raise ParseError(f"line {lineno + long}: longer than {limit} bytes")
            except LightwakeError:
                if samples:
                    yield sample_block(samples)
                raise
            columns = sample_block(samples)
        if columns[0]:  # a block of blank rows has none
            yield columns
            prev_t = columns[0][-1]
        lineno += block.count("\n")  # only the final block may end unterminated


def _canonical_block(block: str, prev_t: int) -> Block | None:
    """The Block of a block of canonical rows in range and order after prev_t, else None."""
    tokens = block.replace(",", " ").split()  # a canonical block has one kind of separator
    t_ns = list(map(int, " ".join(tokens[::4]).replace(".", "").split()))
    del tokens[::4]
    try:
        xyz = np.fromiter(map(float, tokens), np.float64, len(tokens)).reshape(-1, 3).T
    except ValueError:  # the pattern admits a few non-numbers, such as "1-2"
        return None
    # No token the pattern admits reads as NaN, so max sees +/-inf too.
    if prev_t < t_ns[0] and all(map(operator.lt, t_ns, t_ns[1:])) and np.abs(xyz).max() <= SENSOR_RANGE_G:
        return t_ns, xyz
    return None


# -- trace files ------------------------------------------------------------

def _utf8_blocks(fh: IO[str], path: Path, lineno: int, error: type = ParseError, hint: int = 0) -> Iterator[str]:
    """Read the rest of fh, its first line numbered lineno, in blocks of whole lines, each ending at the
    first line end past hint (by default _BLOCK_BYTES) bytes, up to a line that is not UTF-8: error."""
    for chunk in map("".join, iter(lambda: fh.readlines(hint or _BLOCK_BYTES), [])):
        try:
            chunk.encode("utf-8")  # a byte that is not UTF-8 was read as a lone surrogate, which this refuses
        except UnicodeEncodeError as exc:
            cut = chunk.rfind("\n", 0, exc.start) + 1
            if cut:  # the lines before it go first, so that an earlier bad row is the error reported
                yield chunk[:cut]
            lineno += chunk.count("\n", 0, cut)
            raise error(f"{path}: not UTF-8 text on line {lineno}") from None
        yield chunk
        lineno += chunk.count("\n")


def read_trace_blocks(path: str | Path) -> tuple[TraceHeader, list[Block]]:
    """Parse a trace CSV into its header and its rows as time-ordered Blocks.

    Raises ParseError (with the offending line number) on malformed or
    out-of-range rows or on bytes that are not UTF-8, or OrderViolation on
    non-monotone timestamps.
    """
    path = Path(path)
    rate = 4.0
    label = ""
    with path.open("r", encoding="utf-8-sig", errors="surrogateescape") as fh:  # a leading BOM is skipped
        for lineno, line in enumerate(_utf8_blocks(fh, path, 1, hint=1), start=1):  # a line a block
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
        blocks = list(_rows(_utf8_blocks(fh, path, lineno + 1), ",", lineno + 1))
    return TraceHeader(rate, blocks[-1][0][-1] if blocks else 0, label), blocks


def read_trace(path: str | Path) -> tuple[TraceHeader, list[RawSample]]:
    """read_trace_blocks, with the rows as a list of RawSamples."""
    header, blocks = read_trace_blocks(path)
    return header, list(block_rows(blocks))


def format_seconds(t_ns: int) -> str:
    """Exact seconds with 9 decimals for t_ns >= 0, so seconds_to_ns reads it back."""
    return f"{t_ns // NS_PER_S}.{t_ns % NS_PER_S:09d}"


# One trace row: t_ns as whole seconds and 9 decimals, then each component's repr.
_ROW = "%d.%09d,%r,%r,%r\n"


def _write_rows(path: str | Path, header: TraceHeader, rows: Iterable[str]) -> None:
    """Write the trace preamble, then the rows, each string holding one or more."""
    with Path(path).open("w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# rate_hz={header.sample_rate_hz!r}\n")
        if header.label:
            fh.write(f"# label={header.label}\n")
        fh.write(TRACE_HEADER_LINE + "\n")
        fh.writelines(rows)


def write_trace(path: str | Path, header: TraceHeader, samples: list[RawSample]) -> None:
    """Write samples in the canonical trace CSV format (see module docstring).

    Components are written with shortest round-trip float formatting, so
    read_trace(write_trace(...)) reproduces the samples bit for bit.
    """
    _write_rows(path, header, (_ROW % (*divmod(s.t_ns, NS_PER_S), s.ax, s.ay, s.az)
                               for s in samples))


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
            if seg_end > seg_start:
                segments.append((seg_start, seg_end, stage))
        cycle_start += cycle
    return segments


# Rows synthesized at once, at most; it bounds the memory write_generated_trace holds.
_CHUNK_ROWS = 16_384


def _sample_count(header: TraceHeader) -> int:
    """The number of grid times int(i * ns_per_sample + 0.5) below the duration.

    The grid rises with i and, at 250 Hz or less, is at least i, so i = duration_ns is past it.
    """
    ns_per_sample = NS_PER_S / header.sample_rate_hz
    return bisect_left(range(header.duration_ns + 1), header.duration_ns,
                       key=lambda i: int(i * ns_per_sample + 0.5))


def _bursts(params: SleepModelParams, duration_ns: int,
            rng: np.random.Generator) -> list[tuple[float, float, np.ndarray]]:
    """Movement bursts (start_s, duration_s, per-axis offsets), in start order."""
    bursts = []
    for seg_start, seg_end, stage in stage_schedule(params, duration_ns):
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
            bursts.append((t, duration, offsets))
    return bursts


def _trace_chunks(params: SleepModelParams, header: TraceHeader) -> Iterator[tuple[np.ndarray, ...]]:
    """Synthesize the night as (t_ns, ax, ay, az) columns of up to _CHUNK_ROWS rows.

    The draws are those of one pass: all the noise, then the bursts. So the
    noise after the first chunk is drawn twice, once to reach the bursts'
    draws and once, from the state saved after the first chunk, as each
    chunk is made.
    """
    n = _sample_count(header)
    if n == 0:
        return
    ns_per_sample = NS_PER_S / header.sample_rate_hz
    sigma = params.quiet_noise_sigma
    rng = np.random.default_rng(params.rng_seed)
    noise = rng.normal(0.0, sigma, size=(min(n, _CHUNK_ROWS), 3))
    resume = rng.bit_generator.state
    for start in range(_CHUNK_ROWS, n, _CHUNK_ROWS):
        rng.normal(0.0, sigma, size=(min(n - start, _CHUNK_ROWS), 3))
    bursts = _bursts(params, header.duration_ns, rng)
    rng.bit_generator.state = resume
    first = 0  # the bursts before it end by the first row still to come: they touch none
    for start in range(0, n, _CHUNK_ROWS):
        if start:
            noise = rng.normal(0.0, sigma, size=(min(n - start, _CHUNK_ROWS), 3))
        # Each t_ns is int(i * ns_per_sample + 0.5) in float64; seeded traces depend on these ops.
        t_ns = (np.arange(start, start + len(noise), dtype=np.float64) * ns_per_sample
                + 0.5).astype(np.int64)
        t_s = t_ns / NS_PER_S
        acc = np.zeros((len(noise), 3), dtype=np.float64)
        acc[:, 2] = 1.0  # gravity baseline
        acc += noise
        while first < len(bursts) and bursts[first][0] + bursts[first][1] <= t_s[0]:
            first += 1
        # In their drawn order, the bursts from there that start by the chunk's last row.
        last = bisect_right(bursts, t_s[-1], first, key=operator.itemgetter(0))
        for t, duration, offsets in bursts[first:last]:
            i0 = int(np.searchsorted(t_s, t, side="left"))
            i1 = int(np.searchsorted(t_s, t + duration, side="left"))
            envelope = np.sin(np.pi * (t_s[i0:i1] - t) / duration)
            acc[i0:i1] += offsets[None, :] * envelope[:, None]
        np.clip(acc, -SENSOR_RANGE_G, SENSOR_RANGE_G, out=acc)
        yield t_ns, *acc.T


def generate_trace(params: SleepModelParams, header: TraceHeader) -> list[RawSample]:
    """Synthesize a night of accelerometer samples; deterministic per seed."""
    samples: list[RawSample] = []
    for columns in _trace_chunks(params, header):
        samples += raw_samples(*(column.tolist() for column in columns))
    return samples


def write_generated_trace(path: str | Path, params: SleepModelParams, header: TraceHeader) -> int:
    """write_trace(path, header, generate_trace(params, header)) a chunk at a time,
    in memory bounded by the chunk; returns the sample count."""

    def chunks() -> Iterator[str]:
        for t_ns, *acc in _trace_chunks(params, header):
            columns = [column.tolist() for column in (*np.divmod(t_ns, NS_PER_S), *acc)]
            yield (_ROW * len(t_ns)) % tuple(chain.from_iterable(zip(*columns)))

    _write_rows(path, header, chunks())
    return _sample_count(header)


# -- live listener -----------------------------------------------------------

def _wire_blocks(conn: socket.socket) -> Iterator[str]:
    """Cut a connection's bytes into blocks of whole lines, as ASCII text, at each read's last newline.

    Non-ASCII bytes decode to U+FFFD, which no field accepts. An unterminated
    line longer than MAX_LINE_BYTES raises ParseError once every line before
    it is yielded, so a client that never sends a newline is not buffered;
    a longer terminated line is left to _rows' limit.
    """
    rest, lineno = b"", 1  # rest holds the first bytes of line lineno
    while data := conn.recv(1 << 16):
        data = rest + data
        cut = data.rfind(b"\n") + 1
        yield data[:cut].decode("ascii", "replace")  # empty if no line ended
        rest = data[cut:]
        lineno += data.count(b"\n")
        if len(rest) > MAX_LINE_BYTES:
            raise ParseError(f"line {lineno}: longer than {MAX_LINE_BYTES} bytes")
    yield rest.decode("ascii", "replace")  # the final line, unterminated, or nothing


def _wire_samples(listener: socket.socket, timeout: float | None) -> Iterator[Block]:
    """Accept one client on listener, then yield its wire Blocks.
    A function, not a LiveSource method: the generator holds no reference to its source."""
    try:
        conn, _ = listener.accept()
    except socket.timeout:
        raise ParseError("timed out waiting for a client connection") from None
    finally:
        listener.close()
    conn.settimeout(timeout)
    with conn:
        try:
            yield from _rows(_wire_blocks(conn), None, 1, MAX_LINE_BYTES)
        except socket.timeout:
            raise ParseError("timed out waiting for sample data") from None


class LiveSource:
    """RawSamples read from a single TCP client on a (host, port).

    Binds eagerly (so BindError surfaces at construction, also for a port
    outside 0..65535); accepts the one client lazily on first iteration.
    The actual bound (host, port) is exposed as .address, which is how
    tests bind port 0 and discover the ephemeral port. Closing the
    connection ends the stream; any protocol violation, a line over
    MAX_LINE_BYTES too (refused by _wire_blocks if unterminated, else by
    _rows), drops the client and raises.

    iter(source) is the sample stream: motion.block_rows over the wire's
    Blocks, built once, so no Python frame runs per sample. next(source)
    reads the same stream. close() closes the connection and ends the
    stream: next(source) and any later iter(source) give nothing more, but
    an iterator taken before close() still gives the rest of the Block in
    hand.
    """

    def __init__(self, bind_address: tuple[str, int], timeout: float | None = None):
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
        self._blocks = _wire_samples(self._listener, timeout)  # not started: nothing is accepted yet
        self._samples = block_rows(self._blocks)

    def __iter__(self) -> Iterator[RawSample]:
        return self._samples

    def __next__(self) -> RawSample:
        return next(self._samples)

    def close(self) -> None:
        self._listener.close()
        self._samples = iter(())
        self._blocks.close()


def listen_live(bind_address: tuple[str, int], timeout: float | None = None) -> LiveSource:
    """Bind a TCP listener and return the sample stream it will serve."""
    return LiveSource(bind_address, timeout=timeout)
