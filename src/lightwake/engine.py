"""Session orchestration: source -> normalize -> delta -> detector, on a virtual clock.

run_session() executes one full sleep session. All times in the pipeline
and the event log are *virtual* nanoseconds from session start. They live
on the samples and the detector clock, not in the motion math: a delta
takes the time of its later sample. Wall time only enters as pacing. At
speed 1.0 samples are delivered in real time, at speed s the wall delay
between deliveries is the virtual gap divided by s, and at speed 0
delivery is immediate. Logs are therefore byte-identical across speeds.

The event log is JSON Lines: a version header record first
(``{"v":3,"sleep_ns":...,"period_ns":...}``), then one event per line with
``t_ns`` (int), ``kind`` (str), and kind-specific fields. SampleAccepted
marks only the first accepted sample; each later one is its DeltaComputed
line. The band is logged only at period boundaries, as the detector's
ThresholdsUpdated after PeriodClosed. Records go to a sink or nowhere.
With a sink each is written as a whole line into the sink's own buffer,
which is flushed after each boundary record, at the session end and when
the session stops on an error; a log read while it is written, or cut
off, is therefore current up to the last boundary and a prefix of the
full one. Without a sink none is built, so a session holds memory by
periods, never by samples.

Nothing in a learning period can stop the session, so learning samples are
decided a block at a time. A source of RawSamples is read one by one, with
the same order check, pacing and session-end test for every sample, and its
learning samples are collected. A block ends where its records are due:
with a sink at the current period's end, whose boundary lines are written
and flushed then, and without one at the final period's start, since
nothing is due before it. It also ends at _BLOCK_SIZE samples and when the
source ends or raises. A source of Blocks, as read_trace_blocks gives them,
must increase strictly across them; unpaced, the rows of each before the
final period are one block, and paced, its rows go the way of RawSamples.
block_deltas gives a block's deltas in one numpy pass, Detector.learn takes
each run of them between skipped samples and period boundaries (the clock
first moves to a sample that starts a later period), and the run's
DeltaComputed lines are written together after it. The records and the
outcome are those of deciding each sample on its own. The final period,
where a delta can fire the alarm, decides each sample, a Block's rows as
RawSamples too, before it reads the next, so the engine reads no sample
that deciding one at a time would not have read.
"""

from __future__ import annotations

import json
import operator
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Any, IO, Iterable, Iterator

import numpy as np

from .detector import (
    FINAL_PERIOD_ENTERED,
    PERIOD_CLOSED,
    THRESHOLDS_UPDATED,
    Detector,
    DetectorOutcome,
    validate_session_shape,
)
from .errors import ConfigInvalid, DegenerateSample, LightwakeError, OrderViolation, SourceFailed
from .motion import NS_PER_S, Block, RawSample, Vector, block_deltas, manhattan_delta, normalize, sample_block

MINUTE_NS = 60 * NS_PER_S
HOUR_NS = 3600 * NS_PER_S

LOG_VERSION = 3

SAMPLE_ACCEPTED = "SampleAccepted"
SAMPLE_SKIPPED = "SampleSkipped"
DELTA_COMPUTED = "DeltaComputed"
SESSION_ENDED = "SessionEnded"

# A DeltaComputed record as json.dumps writes it: ints by str, floats by repr.
_DELTA_LINE = '{"t_ns":%d,"kind":"DeltaComputed","value":%r}\n'

# Learning samples decided at once, at most; it bounds the memory a block holds.
_BLOCK_SIZE = 4096


@dataclass(frozen=True, slots=True)
class SessionConfig:
    """Session parameters: duration and period in ns, plus the clock speed.

    Built with a shape the detector refuses or a speed that is negative or
    so slow that a pacing sleep would overflow, it raises ConfigInvalid.
    """

    sleep_duration_ns: int
    period_length_ns: int = HOUR_NS
    speed: float = 0.0

    def __post_init__(self) -> None:
        validate_session_shape(self.sleep_duration_ns, self.period_length_ns)
        if not self.speed >= 0.0:
            raise ConfigInvalid(f"speed must be >= 0, got {self.speed!r}")
        # time.sleep takes at most 2**63 ns; the longest pacing sleep is sleep / speed.
        if self.speed > 0.0 and self.sleep_duration_ns / self.speed >= 2**63:
            raise ConfigInvalid(f"speed {self.speed!r} stretches the session past the "
                                f"longest possible sleep")


@dataclass(frozen=True, slots=True)
class SessionEvent:
    """One audit-log record: virtual timestamp, kind, kind-specific fields."""

    t_ns: int
    kind: str
    data: dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps({"t_ns": self.t_ns, "kind": self.kind, **self.data},
                          separators=(",", ":"))


@dataclass(frozen=True, slots=True)
class SessionResult:
    outcome: DetectorOutcome
    # Always empty; kept only while the benchmark's retained_events_mb calls events.clear().
    events: list[SessionEvent] = field(default_factory=list)


# Records after which the sink is flushed: those of the period boundaries and the session end.
_FLUSH_AFTER = frozenset({PERIOD_CLOSED, THRESHOLDS_UPDATED, FINAL_PERIOD_ENTERED, SESSION_ENDED})


class EventLog:
    """Writes the log header, then each record passed to emit, to the sink as JSON lines.

    Lines are buffered by the sink. emit flushes it after each PeriodClosed,
    ThresholdsUpdated, FinalPeriodEntered and SessionEnded record, so every
    flush ends on a line end.
    """

    def __init__(self, config: SessionConfig, sink: IO[str]):
        self._sink = sink
        header = {
            "v": LOG_VERSION,
            "sleep_ns": config.sleep_duration_ns,
            "period_ns": config.period_length_ns,
        }
        sink.write(json.dumps(header, separators=(",", ":")) + "\n")

    def emit(self, t_ns: int, kind: str, **data: Any) -> None:
        self._sink.write(SessionEvent(t_ns, kind, data).to_json() + "\n")
        if kind in _FLUSH_AFTER:
            self._sink.flush()

    def write_deltas(self, times: list[int], values: list[float]) -> None:
        """Write the DeltaComputed lines of values[i] at times[i]."""
        self._sink.write("".join(map(_DELTA_LINE.__mod__, zip(times, values))))


def _learn_block(times: list[int], xyz: np.ndarray, prev: Vector | None, detector: Detector,
                 log: EventLog | None) -> Vector | None:
    """Decide learning samples, given as a Block's columns; returns the new prev.

    The samples end before the final period. A sample without a delta,
    skipped or the session's first accepted one, ends a run, and so does a
    period boundary: the detector's clock moves to a sample that starts a
    later period before its run or its record.
    """
    if not times:
        return prev
    skipped, deltas, last = block_deltas(prev, xyz)
    values = deltas.tolist()
    start = 0
    for stop in [*np.flatnonzero(np.isnan(deltas)).tolist(), len(times)]:
        while start < stop:
            if times[start] >= detector.learning_end_ns:
                detector.advance_to(times[start])
            cut = bisect_left(times, detector.learning_end_ns, start, stop)
            run = times[start:cut], values[start:cut]
            detector.learn(*run)
            if log is not None:
                log.write_deltas(*run)
            start = cut
        if stop < len(times) and log is not None:
            if times[stop] >= detector.learning_end_ns:
                detector.advance_to(times[stop])
            if skipped[stop]:
                log.emit(times[stop], SAMPLE_SKIPPED, reason="degenerate")
            else:
                log.emit(times[stop], SAMPLE_ACCEPTED)
        start = stop + 1
    return last


def _block_end(detector: Detector, log: EventLog | None) -> int:
    """Where the learning block must be decided next: where its records are due.

    A sink's are due at each period end, whose lines are written and flushed
    there; without a sink nothing is due before the final period. 0 once
    learning is over.
    """
    learning_end_ns = detector.learning_end_ns
    if log is None and learning_end_ns:
        return detector.final_period_index * detector.period_length_ns
    return learning_end_ns


def _ordered(blocks: Iterable[Block]) -> Iterator[Block]:
    """Pass on Blocks whose times increase strictly, within and across them; else OrderViolation."""
    last_t = -1
    for times, xyz in blocks:
        if times and not (last_t < times[0] and all(map(operator.lt, times, times[1:]))):
            raise OrderViolation(f"Block times must be strictly increasing: {times[0]} ns after {last_t} ns")
        last_t = times[-1] if times else last_t
        yield times, xyz


def _start(source: Iterable, iterator: Iterator, detector: Detector, log: EventLog | None,
           unpaced: bool) -> tuple[Vector | None, Iterator[RawSample]]:
    """Return prev and the samples left for the sample loop: all of a RawSample source, or the rows of
    a Block source (told by its first item) left once, unpaced, those before the final period are decided."""
    if isinstance(source, (list, tuple)):  # read by index, so no item is taken from iterator
        first = source[0] if source else None
    elif (first := next(iterator, iterator)) is not iterator:  # the iterator itself marks the end
        iterator = chain((first,), iterator)
    if not isinstance(first, tuple):
        return None, iterator
    prev, blocks = None, _ordered(iterator)
    for times, xyz in blocks if unpaced else ():
        start = bisect_left(times, _block_end(detector, None))
        prev = _learn_block(times[:start], xyz[:, :start], prev, detector, log)
        if start < len(times):
            blocks = chain([(times[start:], xyz[:, start:])], blocks)
            break
    return prev, chain.from_iterable(map(RawSample, times, *xyz.tolist()) for times, xyz in blocks)


def run_session(
    config: SessionConfig,
    source: Iterable[RawSample] | Iterable[Block],
    *,
    event_sink: IO[str] | None = None,
) -> SessionResult:
    """Run one sleep session over a source of RawSamples or of Blocks and return its outcome.

    The pipeline normalizes each sample, computes the Manhattan delta
    against the previous one, and feeds the detector, a block at a time
    while the detector is learning. On a threshold hit
    the source is stopped immediately; if the stream or the session ends
    without one, the virtual clock fast-forwards and the fallback alarm
    fires at exactly the configured sleep duration. Event records go to a
    sink or nowhere: to `event_sink` when one is given, else none is built.

    Raises SourceFailed if the source errors mid-session or yields a
    negative or non-increasing timestamp; the partial event log is flushed
    first, as it is at every period boundary and at the session end.
    """
    log = None if event_sink is None else EventLog(config, event_sink)
    detector = Detector(config.sleep_duration_ns, config.period_length_ns,
                        emit=None if log is None else log.emit)
    sleep_ns, speed = config.sleep_duration_ns, config.speed
    wall_start = time.monotonic()

    outcome: DetectorOutcome | None = None
    last_t_ns = -1
    block: list[RawSample] = []
    block_end = _block_end(detector, log)  # learning samples before it join the block
    unpaced = speed == 0.0
    iterator: Iterator = iter(source)
    try:
        try:
            prev, items = _start(source, iterator, detector, log, unpaced)
        except (LightwakeError, OSError) as exc:
            raise SourceFailed(f"sample source failed: {exc}") from exc
        while True:
            try:
                sample = next(items)
            except StopIteration:
                break
            except Exception as exc:
                # Whatever the source raises, the samples it gave are decided and logged first.
                _learn_block(*sample_block(block), prev, detector, log)
                if isinstance(exc, (LightwakeError, OSError)):
                    raise SourceFailed(f"sample source failed: {exc}") from exc
                raise
            t_ns = sample.t_ns
            # Unpaced, a sample in order and before block_end passes every check below,
            # as block_end is at most the final period's start, before sleep_ns.
            if last_t_ns < t_ns < block_end and unpaced:
                last_t_ns = t_ns
                block.append(sample)
                if len(block) == _BLOCK_SIZE:
                    prev = _learn_block(*sample_block(block), prev, detector, log)
                    block.clear()
                continue
            if t_ns <= last_t_ns:
                _learn_block(*sample_block(block), prev, detector, log)
                raise SourceFailed(f"source timestamps must be non-negative and strictly "
                                   f"increasing: {t_ns} ns after {last_t_ns} ns")
            last_t_ns = t_ns
            if t_ns >= sleep_ns:
                break
            if speed > 0.0:
                delay = wall_start + (t_ns / NS_PER_S) / speed - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            if block_end and t_ns >= block_end:  # block_end is 0 once learning is over
                prev = _learn_block(*sample_block(block), prev, detector, log)
                block.clear()
                detector.advance_to(t_ns)
                block_end = _block_end(detector, log)
            if t_ns < block_end:
                block.append(sample)
                if len(block) == _BLOCK_SIZE:
                    prev = _learn_block(*sample_block(block), prev, detector, log)
                    block.clear()
                continue
            # Final period: each sample is decided before the next is read.
            try:
                norm = normalize(sample)
            except DegenerateSample:
                if log is not None:
                    log.emit(t_ns, SAMPLE_SKIPPED, reason="degenerate")
                continue
            if prev is not None:
                value = manhattan_delta(prev, norm)
                if event_sink is not None:
                    event_sink.write(_DELTA_LINE % (t_ns, value))
                if (outcome := detector.ingest(t_ns, value)) is not None:
                    break
            elif log is not None:
                log.emit(t_ns, SAMPLE_ACCEPTED)
            prev = norm
        if block:  # the session ended while learning
            _learn_block(*sample_block(block), prev, detector, log)
    finally:
        closer = getattr(iterator, "close", None) or getattr(source, "close", None)
        if closer is not None:
            closer()
        if event_sink is not None:
            event_sink.flush()

    if outcome is None:
        # Source exhausted (or session window passed) without a hit: the
        # fallback alarm jumps the virtual clock to the end of the sleep time.
        outcome = detector.finalize()
    if log is not None:
        log.emit(outcome.alarm_time_ns, SESSION_ENDED)
    return SessionResult(outcome=outcome)
