"""Session orchestration: source -> normalize -> delta -> detector, on a virtual clock.

run_session() executes one full sleep session. All times in the pipeline
and the event log are *virtual* nanoseconds from session start. They live
on the samples and the detector clock, not in the motion math: a delta
takes the time of its later sample. Wall time only enters as pacing. At
speed 1.0 samples are delivered in real time, at speed s the wall delay
between deliveries is the virtual gap divided by s, and at speed 0
delivery is immediate. Logs are therefore byte-identical across speeds.

The event log is JSON Lines: a version header record first
(``{"v":1,"sleep_ns":...,"period_ns":...}``), then one event per line with
``t_ns`` (int), ``kind`` (str), and kind-specific fields. Each record goes
to exactly one place: with a sink it is written and flushed line by line,
so a truncated log is always a prefix of the full one, and nothing is kept
in memory; without one it is appended to ``SessionResult.events``.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Any, IO, Iterable, Iterator

# The detector's transition kinds are part of the log vocabulary too.
from .detector import (
    ALARM_FIRED,
    FINAL_PERIOD_ENTERED,
    PERIOD_CLOSED,
    STAGE_CLASSIFIED,
    THRESHOLDS_UPDATED,
    Detector,
    DetectorOutcome,
    validate_session_shape,
)
from .errors import ConfigInvalid, DegenerateSample, LightwakeError, SourceFailed
from .motion import NS_PER_S, RawSample, Vector, manhattan_delta, normalize

MINUTE_NS = 60 * NS_PER_S
HOUR_NS = 3600 * NS_PER_S

LOG_VERSION = 1

SAMPLE_ACCEPTED = "SampleAccepted"
SAMPLE_SKIPPED = "SampleSkipped"
DELTA_COMPUTED = "DeltaComputed"
SESSION_ENDED = "SessionEnded"


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
    events: list[SessionEvent]


class EventLog:
    """Writes each SessionEvent to the sink, flushed eagerly, or else keeps it in `events`."""

    def __init__(self, config: SessionConfig, sink: IO[str] | None = None):
        self.events: list[SessionEvent] = []
        self._sink = sink
        if sink is not None:
            header = {
                "v": LOG_VERSION,
                "sleep_ns": config.sleep_duration_ns,
                "period_ns": config.period_length_ns,
            }
            sink.write(json.dumps(header, separators=(",", ":")) + "\n")
            sink.flush()

    def emit(self, t_ns: int, kind: str, **data: Any) -> None:
        event = SessionEvent(t_ns, kind, data)
        if self._sink is None:
            self.events.append(event)
        else:
            self._sink.write(event.to_json() + "\n")
            self._sink.flush()


def run_session(
    config: SessionConfig,
    source: Iterable[RawSample],
    *,
    event_sink: IO[str] | None = None,
) -> SessionResult:
    """Run one sleep session over a sample source and return its outcome.

    The pipeline normalizes each sample, computes the Manhattan delta
    against the previous one, and feeds the detector. On a threshold hit
    the source is stopped immediately; if the stream or the session ends
    without one, the virtual clock fast-forwards and the fallback alarm
    fires at exactly the configured sleep duration. Event records go to
    `event_sink` when one is given, else to `SessionResult.events`.

    Raises SourceFailed if the source errors mid-session or yields a
    negative or non-increasing timestamp (the partial event log is already
    flushed).
    """
    log = EventLog(config, event_sink)
    detector = Detector(config.sleep_duration_ns, config.period_length_ns, emit=log.emit)
    wall_start = time.monotonic()

    outcome: DetectorOutcome | None = None
    prev: Vector | None = None
    last_t_ns = -1
    iterator: Iterator[RawSample] = iter(source)
    try:
        while True:
            try:
                sample = next(iterator)
            except StopIteration:
                break
            except (LightwakeError, OSError) as exc:
                raise SourceFailed(f"sample source failed: {exc}") from exc
            if sample.t_ns <= last_t_ns:
                raise SourceFailed(f"source timestamps must be non-negative and strictly "
                                   f"increasing: {sample.t_ns} ns after {last_t_ns} ns")
            last_t_ns = sample.t_ns
            if sample.t_ns >= config.sleep_duration_ns:
                break
            if config.speed > 0.0:
                delay = wall_start + (sample.t_ns / NS_PER_S) / config.speed - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            detector.advance_to(sample.t_ns)
            try:
                norm = normalize(sample)
            except DegenerateSample:
                log.emit(sample.t_ns, SAMPLE_SKIPPED, reason="degenerate")
                continue
            log.emit(sample.t_ns, SAMPLE_ACCEPTED)
            if prev is not None:
                value = manhattan_delta(prev, norm)
                log.emit(sample.t_ns, DELTA_COMPUTED, value=value)
                outcome = detector.ingest(value)
                if outcome is not None:
                    break
            prev = norm
    finally:
        closer = getattr(iterator, "close", None)
        if closer is None:
            closer = getattr(source, "close", None)
        if closer is not None:
            closer()

    if outcome is None:
        # Source exhausted (or session window passed) without a hit: the
        # fallback alarm jumps the virtual clock to the end of the sleep time.
        outcome = detector.finalize()
    log.emit(outcome.alarm_time_ns, SESSION_ENDED)
    return SessionResult(outcome=outcome, events=log.events)
