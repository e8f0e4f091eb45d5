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

The source is read by one generator, _read, which both paces and converts
errors. An error of a kind a source may raise becomes SourceFailed, and
only one raised while the source is read. Paced (speed above 0), it gives
each sample, a Block's rows as RawSamples, once its time has come; none at
or past the session end is waited for. A session has two phases, each with
one reader of _read's items. Nothing in a learning period can stop the
session, so every source is learned by one rule, _learn, a Block at a
time: it checks that times increase strictly, cuts at the final period's
start and decides the rows before the cut, and a pair out of order is
refused once the rows before it are decided. A source of Blocks gives its
own, an unpaced RawSample list or tuple those of its slices, and _batched
groups other RawSamples: a batch ends after the first sample of a later
period, so a boundary's records are written and flushed as it is crossed.
block_deltas gives a Block's deltas in one numpy pass, and _learn walks
the rows before the cut in pieces: a row without a delta, skipped or the
session's first accepted one, or else the run of deltas up to the next
such row or the period's end, which Detector.learn_run takes as (first,
last, max). Before each piece the detector's clock moves to its first row
if that row starts a later period. The records and outcome are those of
deciding each sample on its own. _learn reads no Block past the one it
cuts at the final period's start, and the final period reads what is left
of the source: the rest of that Block, then the source's own remaining
items as rows. It is one sample loop for every source, which decides each
sample before it reads the next.
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
from .errors import ConfigInvalid, DegenerateSample, LightwakeError, SourceFailed
from .motion import (NS_PER_S, Block, RawSample, Vector, block_deltas, block_rows, manhattan_delta,
                     normalize, sample_block)

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

# The SourceFailed message of a sample out of order, for every kind of source.
_ORDER = "source timestamps must be non-negative and strictly increasing: %d ns after %d ns"


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
        self._sink.write((_DELTA_LINE * len(times)) % tuple(chain.from_iterable(zip(times, values))))


def _read(items: Iterator, speed: float, sleep_ns: int) -> Iterator:
    """The source's items; an error it raises of a kind a source may raise becomes SourceFailed.
    Paced (speed above 0), a Block's rows are given as RawSamples, each sample once its time has
    come at speed; none at or past sleep_ns, which the session does not decide, is waited for."""
    try:
        if speed == 0.0:
            yield from items
            return
        wall_start = time.monotonic()
        for item in items:
            for sample in block_rows((item,)) if isinstance(item, tuple) else (item,):
                delay = wall_start + (sample.t_ns / NS_PER_S) / speed - time.monotonic()
                if delay > 0.0 and sample.t_ns < sleep_ns:  # behind its clock, no sleep(0): it costs tens of µs
                    time.sleep(delay)
                yield sample
    except (LightwakeError, OSError) as exc:
        raise SourceFailed(f"sample source failed: {exc}") from exc


def _batched(samples: Iterator[RawSample], period_ns: int) -> Iterator[Block]:
    """The RawSamples as Blocks, in order.

    A Block ends after the first sample of a later period, whose boundary records are then
    due, at _BLOCK_SIZE samples and at the source's end. Learning reads up to the Block that
    ends with the final period's first sample; the final period reads what is left of samples.
    Whatever ends the loop, an error too, the samples held go first.
    """
    batch, due = [], period_ns
    try:
        for sample in samples:
            batch.append(sample)
            t_ns = sample.t_ns
            if t_ns >= due or len(batch) == _BLOCK_SIZE:
                # Emptied before the yield, so that closing the generator there yields nothing more.
                held, batch, due = batch, [], (t_ns // period_ns + 1) * period_ns
                yield sample_block(held)
    finally:
        if batch:
            yield sample_block(batch)


def _learn(blocks: Iterator[Block], final_ns: int, detector: Detector,
           log: EventLog | None) -> tuple[Iterable[RawSample], Vector | None]:
    """Decide the rows before final_ns of Blocks, a Block at a time; returns the rows of the Block
    cut at final_ns from there on, as RawSamples, and the vector of the last sample kept. No Block
    past that one is read: the final period reads what is left of the source. Times are checked
    up to and including the first at or past final_ns, the rest by the final loop; the rows
    before a pair out of order are decided before its error is raised.

    A Block's rows are decided in pieces: a row without a delta, skipped or the session's first
    accepted one, or else the run of deltas from there up to the next such row or the end of
    the detector's period. The detector's clock moves to a piece's first row before the piece
    when that row starts a later period.
    """
    last_t, prev = -1, None
    for times, xyz in blocks:
        bad = len(times) if all(map(operator.lt, chain((last_t,), times), times)) else next(
            i for i, (s, t) in enumerate(zip(chain((last_t,), times), times)) if s >= t)
        cut = bisect_left(times, final_ns, 0, bad)
        skipped, deltas, prev = block_deltas(prev, xyz[:, :cut])
        values = None if log is None else deltas.tolist()
        gaps = [*np.flatnonzero(np.isnan(deltas)).tolist(), cut]  # the rows without a delta, then cut
        start = gap = 0
        while start < cut:
            if times[start] >= detector.learning_end_ns:
                detector.advance_to(times[start])
            if start == gaps[gap]:
                if log is not None and skipped[start]:
                    log.emit(times[start], SAMPLE_SKIPPED, reason="degenerate")
                elif log is not None:
                    log.emit(times[start], SAMPLE_ACCEPTED)
                start, gap = start + 1, gap + 1
                continue
            stop = bisect_left(times, detector.learning_end_ns, start, gaps[gap])
            # Ordered above; non-negative and no NaN, so numpy's max is max()'s.
            detector.learn_run(times[start], times[stop - 1], float(deltas[start:stop].max()))
            if log is not None:
                log.write_deltas(times[start:stop], values[start:stop])
            start = stop
        if cut == bad < len(times):
            raise SourceFailed(_ORDER % (times[bad], times[bad - 1] if bad else last_t))
        if cut < len(times):
            return block_rows([(times[cut:], xyz[:, cut:])]), prev
        last_t = times[-1] if times else last_t
    return (), prev


def run_session(
    config: SessionConfig,
    source: Iterable[RawSample] | Iterable[Block],
    *,
    event_sink: IO[str] | None = None,
) -> SessionResult:
    """Run one sleep session over a source of RawSamples or of Blocks and return its outcome.

    The pipeline normalizes each sample, computes the Manhattan delta
    against the previous one, and feeds the detector. While the detector
    is learning, every source is decided a Block at a time by one rule;
    unpaced, a list or tuple of RawSamples is read in slices. The final
    period reads what is left of the source, each sample before the next. On a
    threshold hit the source is stopped immediately; if the stream or the
    session ends without one, the virtual clock fast-forwards and the
    fallback alarm fires at exactly the configured sleep duration. Event
    records go to a sink or nowhere: to `event_sink` when one is given,
    else none is built.

    Raises SourceFailed if the source errors mid-session or yields a
    negative or non-increasing timestamp, once the samples before it are
    decided. A batched learning pair out of order is refused when its
    batch ends, by the next period's first sample at the latest, so an
    error the source raises before then gives way to the order error. The
    partial event log is flushed first, as it is at every period boundary
    and at the session end. An error of the sink propagates as it is,
    after the same flush.
    """
    log = None if event_sink is None else EventLog(config, event_sink)
    detector = Detector(config.sleep_duration_ns, config.period_length_ns,
                        emit=None if log is None else log.emit)
    sleep_ns = config.sleep_duration_ns
    final_ns = detector.final_period_index * detector.period_length_ns
    outcome: DetectorOutcome | None = None
    iterator: Iterator = iter(source)
    try:
        items = _read(iterator, config.speed, sleep_ns)
        # Learning: its rows as Blocks, decided a Block at a time; the source's first item tells its kind.
        # left is what the final period reads: the source's own items past those _learn reads.
        first = next(items, None)
        rows = items if first is None else chain((first,), items)
        if isinstance(first, tuple):
            blocks, left = rows, block_rows(rows)
        elif isinstance(source, (list, tuple)) and config.speed == 0.0:  # in memory, and no row is waited for
            # The slices before final_ns, found by bisection. Out of order, the list is checked as a
            # row-by-row reader checks it: _learn checks every row up to the first at or past final_ns.
            learning = bisect_left(source, final_ns, key=operator.attrgetter("t_ns"))
            starts = iter(range(0, learning, _BLOCK_SIZE))
            blocks = (sample_block(source[i:min(i + _BLOCK_SIZE, learning)]) for i in starts)
            # The list from the first slice _learn leaves unread, sliced once _learn is done.
            left = chain.from_iterable(source[next(unread, learning):] for unread in [starts])
        else:  # batched by period
            blocks, left = _batched(rows, config.period_length_ns), rows
        rest, prev = _learn(blocks, final_ns, detector, log)
        # The boundary records left, as finalize would write them, come before any final-period record.
        detector.advance_to(final_ns)
        # The final period: each sample is decided before the next is read.
        last_t = -1
        for sample in chain(rest, left):
            t_ns = sample.t_ns
            if t_ns <= last_t:
                raise SourceFailed(_ORDER % (t_ns, last_t))
            last_t = t_ns
            if t_ns >= sleep_ns:
                break
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
