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
``t_ns`` (int), ``kind`` (str), and kind-specific fields. Records go to a
sink or nowhere. With a sink each is written as a whole line into the sink's
own buffer, which is flushed at every period boundary, at the session end and
when the session stops on an error; a log read while it is written, or cut
off, is therefore current up to the last boundary and a prefix of the full
one. Without a sink none is built, so a session holds memory by periods,
never by samples.
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
    # Always empty; kept only while the benchmark's retained_events_mb calls events.clear().
    events: list[SessionEvent] = field(default_factory=list)


# Records after which the sink is flushed: the period boundaries and the session end.
_FLUSH_AFTER = frozenset({PERIOD_CLOSED, FINAL_PERIOD_ENTERED, SESSION_ENDED})


class EventLog:
    """Writes the log header, then each record passed to emit, to the sink as JSON lines.

    Lines are buffered by the sink. emit flushes it after each PeriodClosed,
    FinalPeriodEntered and SessionEnded record, so every flush ends on a
    line end.
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
    fires at exactly the configured sleep duration. Event records go to a
    sink or nowhere: to `event_sink` when one is given, else none is built.

    Raises SourceFailed if the source errors mid-session or yields a
    negative or non-increasing timestamp; the partial event log is flushed
    first, as it is at every period boundary and at the session end.
    """
    log = None if event_sink is None else EventLog(config, event_sink)
    detector = Detector(config.sleep_duration_ns, config.period_length_ns,
                        emit=None if log is None else log.emit)
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
            t_ns = sample.t_ns
            if t_ns <= last_t_ns:
                raise SourceFailed(f"source timestamps must be non-negative and strictly "
                                   f"increasing: {t_ns} ns after {last_t_ns} ns")
            last_t_ns = t_ns
            if t_ns >= config.sleep_duration_ns:
                break
            if config.speed > 0.0:
                delay = wall_start + (t_ns / NS_PER_S) / config.speed - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
            detector.advance_to(t_ns)
            try:
                norm = normalize(sample)
            except DegenerateSample:
                if log is not None:
                    log.emit(t_ns, SAMPLE_SKIPPED, reason="degenerate")
                continue
            # Per-sample lines skip SessionEvent; json.dumps writes the same bytes (numbers by repr).
            if event_sink is not None:
                event_sink.write(f'{{"t_ns":{t_ns},"kind":"SampleAccepted"}}\n')
            if prev is not None:
                value = manhattan_delta(prev, norm)
                if event_sink is not None:
                    event_sink.write(f'{{"t_ns":{t_ns},"kind":"DeltaComputed","value":{value!r}}}\n')
                outcome = detector.ingest(value)
                if outcome is not None:
                    break
            prev = norm
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
