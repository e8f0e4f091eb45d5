"""Session orchestration: source -> normalize -> delta -> detector, on a virtual clock.

run_session() executes one full sleep session. All times in the pipeline
and the event log are *virtual* nanoseconds from session start. They live
on the samples and the detector clock, not in the motion math: a delta
takes the time of its later sample. Wall time only enters as pacing. At
speed 1.0 samples are delivered in real time, at speed s the wall delay
between deliveries is the virtual gap divided by s, and at speed 0
delivery is immediate. Logs are therefore byte-identical across speeds.

The event log is JSON Lines: a version header record first
(``{"v":2,"sleep_ns":...,"period_ns":...}``), then one event per line with
``t_ns`` (int), ``kind`` (str), and kind-specific fields. SampleAccepted
marks only the first accepted sample; each later one is its DeltaComputed
line. Records go to a sink or nowhere. With a sink each is written as a
whole line into the sink's own buffer, which is flushed at every period
boundary, at the session end and when the session stops on an error; a log
read while it is written, or cut off, is therefore current up to the last
boundary and a prefix of the full one. Without a sink none is built, so a
session holds memory by periods, never by samples.

Nothing in a learning period can stop the session, so learning samples are
decided a block at a time. The engine reads them one by one, with the same
order check, pacing and session-end test as every sample, and collects
them. A block ends where its records are due: with a sink at the current
period's end, whose boundary lines are written and flushed then, and
without one at the final period's start, since nothing is due before it.
It also ends at _BLOCK_SIZE samples and when the source ends or raises.
block_deltas gives the block's deltas in one numpy pass, Detector.learn
takes each run of them between skipped samples and period boundaries (the
clock first moves to a run that starts a later period), and their
DeltaComputed lines are written together, each ThresholdsUpdated after the
line of its delta. The records and the outcome are those of deciding each
sample on its own. The final period, where a delta can fire the alarm,
decides each sample before it reads the next, so the engine reads no
sample that deciding one at a time would not have read.
"""

from __future__ import annotations

import json
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Any, IO, Iterable, Iterator

import numpy as np

from .detector import (
    FINAL_PERIOD_ENTERED,
    PERIOD_CLOSED,
    Detector,
    DetectorOutcome,
    validate_session_shape,
)
from .errors import ConfigInvalid, DegenerateSample, LightwakeError, SourceFailed
from .motion import NS_PER_S, RawSample, Vector, block_deltas, manhattan_delta, normalize

MINUTE_NS = 60 * NS_PER_S
HOUR_NS = 3600 * NS_PER_S

LOG_VERSION = 2

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


# Records after which the sink is flushed: the period boundaries and the session end.
_FLUSH_AFTER = frozenset({PERIOD_CLOSED, FINAL_PERIOD_ENTERED, SESSION_ENDED})


class EventLog:
    """Writes the log header, then each record passed to emit, to the sink as JSON lines.

    Lines are buffered by the sink. emit flushes it after each PeriodClosed,
    FinalPeriodEntered and SessionEnded record, so every flush ends on a
    line end. The DeltaComputed lines of a run of deltas are held until
    release writes them; emit first writes those at or before its record.
    """

    def __init__(self, config: SessionConfig, sink: IO[str]):
        self._sink = sink
        self._held: tuple[list[int], list[float]] = ([], [])
        self._written = 0  # of the held lines
        header = {
            "v": LOG_VERSION,
            "sleep_ns": config.sleep_duration_ns,
            "period_ns": config.period_length_ns,
        }
        sink.write(json.dumps(header, separators=(",", ":")) + "\n")

    def emit(self, t_ns: int, kind: str, **data: Any) -> None:
        if self._written < len(self._held[0]):
            self.release(t_ns)
        self._sink.write(SessionEvent(t_ns, kind, data).to_json() + "\n")
        if kind in _FLUSH_AFTER:
            self._sink.flush()

    def hold(self, times: list[int], values: list[float]) -> None:
        """Hold the DeltaComputed lines of values[i] at times[i]."""
        self._held = (times, values)
        self._written = 0

    def release(self, t_ns: int | None = None) -> None:
        """Write the held lines at or before t_ns, or all of them."""
        times, values = self._held
        end = len(times) if t_ns is None else bisect_right(times, t_ns, self._written)
        self._sink.write("".join(map(_DELTA_LINE.__mod__, zip(times[self._written:end],
                                                             values[self._written:end]))))
        self._written = end


def _learn_block(block: list[RawSample], prev: Vector | None, detector: Detector,
                 log: EventLog | None) -> Vector | None:
    """Decide and empty a block of learning samples; returns the new prev.

    The block ends before the final period. A sample without a delta, skipped
    or the session's first accepted one, ends a run, and so does a period
    boundary: the detector's clock moves to the first delta of a later period
    before it learns that period's run.
    """
    if not block:
        return prev
    skipped, deltas, last = block_deltas(prev, block)
    times = [s.t_ns for s in block]
    values = deltas.tolist()
    start = 0
    for stop in [*np.flatnonzero(np.isnan(deltas)).tolist(), len(block)]:
        while start < stop:
            if times[start] >= detector.learning_end_ns:
                detector.advance_to(times[start])
            cut = bisect_left(times, detector.learning_end_ns, start, stop)
            run = times[start:cut], values[start:cut]
            if log is not None:
                log.hold(*run)
            detector.learn(*run)
            if log is not None:
                log.release()
            start = cut
        if stop < len(block) and log is not None:
            if skipped[stop]:
                log.emit(times[stop], SAMPLE_SKIPPED, reason="degenerate")
            else:
                log.emit(times[stop], SAMPLE_ACCEPTED)
        start = stop + 1
    block.clear()
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


def run_session(
    config: SessionConfig,
    source: Iterable[RawSample],
    *,
    event_sink: IO[str] | None = None,
) -> SessionResult:
    """Run one sleep session over a sample source and return its outcome.

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
    prev: Vector | None = None
    last_t_ns = -1
    block: list[RawSample] = []
    block_end = _block_end(detector, log)  # learning samples before it join the block
    unpaced = speed == 0.0
    iterator: Iterator[RawSample] = iter(source)
    try:
        while True:
            try:
                sample = next(iterator)
            except StopIteration:
                break
            except Exception as exc:
                # Whatever the source raises, the samples it gave are decided and logged first.
                _learn_block(block, prev, detector, log)
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
                    prev = _learn_block(block, prev, detector, log)
                continue
            if t_ns <= last_t_ns:
                _learn_block(block, prev, detector, log)
                raise SourceFailed(f"source timestamps must be non-negative and strictly "
                                   f"increasing: {t_ns} ns after {last_t_ns} ns")
            last_t_ns = t_ns
            if t_ns >= sleep_ns:
                break
            if speed > 0.0:
                delay = wall_start + (t_ns / NS_PER_S) / speed - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            if t_ns >= block_end:
                prev = _learn_block(block, prev, detector, log)
                detector.advance_to(t_ns)
                block_end = _block_end(detector, log)
            if t_ns < block_end:
                block.append(sample)
                if len(block) == _BLOCK_SIZE:
                    prev = _learn_block(block, prev, detector, log)
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
                outcome = detector.ingest(value)
                if outcome is not None:
                    break
            elif log is not None:
                log.emit(t_ns, SAMPLE_ACCEPTED)
            prev = norm
        prev = _learn_block(block, prev, detector, log)
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
