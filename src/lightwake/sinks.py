"""Alarm outputs: buzzer-style melody synthesis and per-period chart export.

The melody sink renders 16-bit signed mono PCM square waves (the character
of a passive buzzer driven by a GPIO pin) and writes standard RIFF/WAVE
files. Melodies are plain text, one note per line as
``freq_hz:duration_ms`` with frequency 0 meaning a rest; blank lines and
``#`` comments are ignored.

The chart sink projects a session event log into one CSV per period (every
DeltaComputed event, timestamped in seconds within its period) plus a
key/value summary holding the per-period maxima, the learned thresholds,
and the alarm. Logs stream one record at a time in time order, so chart
memory is bounded by the number of periods.
"""

from __future__ import annotations

import json
import math
import wave
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .detector import ALARM_FIRED, THRESHOLDS_UPDATED, validate_session_shape
from .engine import DELTA_COMPUTED, LOG_VERSION, SessionEvent
from .errors import ConfigInvalid, InvalidMelody, MalformedLog
from .sources import format_seconds

# 0.8 of full scale: loud but clear of clipping artifacts.
_AMPLITUDE = 26214

DEFAULT_SAMPLE_RATE = 16000
# A minute of PCM is 1.9 MB; synthesis holds a few times that in temporaries.
MAX_MELODY_MS = 60_000.0


@dataclass(frozen=True, slots=True)
class Melody:
    """Ordered notes of (frequency_hz, duration_ms); frequency 0 is a rest.

    Built with no notes, an unusable one (a frequency above half the sample
    rate, say), or over MAX_MELODY_MS in all, it raises InvalidMelody.
    """

    notes: tuple[tuple[float, float], ...]
    name: str = "melody"

    def total_ms(self) -> float:
        return sum(duration for _, duration in self.notes)

    def __post_init__(self) -> None:
        if not self.notes:
            raise InvalidMelody(f"melody {self.name!r} has no notes")
        for freq, duration in self.notes:
            if not 0.0 <= freq <= DEFAULT_SAMPLE_RATE / 2:
                raise InvalidMelody(f"melody {self.name!r}: bad frequency {freq!r}, "
                                    f"not 0..{DEFAULT_SAMPLE_RATE // 2} Hz")
            if not 0.0 < duration < math.inf:
                raise InvalidMelody(f"melody {self.name!r}: bad duration {duration!r} ms")
        if not self.total_ms() <= MAX_MELODY_MS:
            raise InvalidMelody(f"melody {self.name!r} lasts over {MAX_MELODY_MS!r} ms")


DEFAULT_ALARM_MELODY = Melody(
    notes=((660.0, 250.0), (880.0, 250.0), (1320.0, 500.0)),
    name="default-ascending",
)


def parse_melody(text: str, name: str = "melody") -> Melody:
    """Parse the ``freq_hz:duration_ms`` one-note-per-line format."""
    notes: list[tuple[float, float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        freq_tok, sep, dur_tok = line.partition(":")
        if not sep:
            raise InvalidMelody(f"line {lineno}: expected freq_hz:duration_ms, got {raw!r}")
        try:
            freq = float(freq_tok)
            duration = float(dur_tok)
        except ValueError:
            raise InvalidMelody(f"line {lineno}: non-numeric note {raw!r}") from None
        notes.append((freq, duration))
    return Melody(notes=tuple(notes), name=name)


def synthesize_melody(melody: Melody) -> np.ndarray:
    """Render a melody as int16 mono PCM square-wave samples at DEFAULT_SAMPLE_RATE.

    Note boundaries are placed on the cumulative-duration grid, so the total
    length is within one frame of the melody's total duration regardless of
    how individual note lengths round.
    """
    segments: list[np.ndarray] = []
    cumulative_ms = 0.0
    frame_cursor = 0
    for freq, duration in melody.notes:
        cumulative_ms += duration
        frame_end = int(cumulative_ms * DEFAULT_SAMPLE_RATE / 1000.0 + 0.5)
        count = frame_end - frame_cursor
        frame_cursor = frame_end
        if count <= 0:
            continue
        if freq == 0.0:
            segments.append(np.zeros(count, dtype=np.int16))
            continue
        j = np.arange(count, dtype=np.float64)
        half_periods = np.floor(j * (2.0 * freq) / DEFAULT_SAMPLE_RATE).astype(np.int64)
        wave_block = np.where(half_periods % 2 == 0, _AMPLITUDE, -_AMPLITUDE)
        segments.append(wave_block.astype(np.int16))
    if not segments:
        return np.zeros(0, dtype=np.int16)
    return np.concatenate(segments)


def melody_to_wav(melody: Melody, path: str | Path) -> None:
    """Write the synthesized melody as an int16 mono RIFF/WAVE file."""
    with wave.open(str(path), "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(DEFAULT_SAMPLE_RATE)
        wav.writeframes(synthesize_melody(melody).astype("<i2").tobytes())


# -- chart export -------------------------------------------------------------

def read_event_log(path: str | Path) -> tuple[dict, list[SessionEvent]]:
    """Load and validate a JSONL event log: (header record, events).

    A log cut off anywhere after its header line still reads: the engine
    flushes whole lines only, so an unterminated last line is a truncation
    and is dropped, and the events are a prefix of the full log's. Whatever
    the engine could not have written raises MalformedLog: a header whose v
    is not the int 1 or 2 or that is no session shape, a line that is no
    event record, an event before the previous one or outside 0..sleep_ns,
    or a DeltaComputed at sleep_ns or without a finite float value >= 0.
    """
    records = _log_records(Path(path))
    header = next(records)
    return header, [SessionEvent(t_ns, kind, fields) for t_ns, kind, fields in records]


_raw_decode = json.JSONDecoder().raw_decode


def _log_records(path: Path) -> Iterator[dict | tuple[int, str, dict]]:
    """Yield a log's validated header record, then each validated event as a
    (t_ns, kind, fields) tuple, one line at a time; see read_event_log for
    what is rejected."""
    header: dict | None = None
    last_t_ns = 0
    try:
        with path.open("r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                if line[-1] != "\n":
                    break  # the unterminated last line of a truncated log
                line = line.strip()
                if not line:
                    continue
                if header is None:
                    header = _parse_header(path, line, lineno)
                    sleep_ns = header["sleep_ns"]
                    yield header
                    continue
                try:
                    t_ns, kind, fields = _event_fields(line)
                except (ValueError, RecursionError) as exc:
                    raise MalformedLog(f"{path}: line {lineno}: {exc}") from None
                if not last_t_ns <= t_ns <= sleep_ns:
                    raise MalformedLog(f"{path}: line {lineno}: t_ns {t_ns} is before the "
                                       f"previous event's or past the session end")
                last_t_ns = t_ns
                if kind == DELTA_COMPUTED:
                    value = fields.get("value")
                    if t_ns == sleep_ns or type(value) is not float or not 0.0 <= value < math.inf:
                        raise MalformedLog(f"{path}: line {lineno}: not a delta record: {line!r}")
                yield t_ns, kind, fields
    except UnicodeDecodeError as exc:
        raise MalformedLog(f"{path}: not UTF-8: {exc}") from None
    if header is None:
        raise MalformedLog(f"{path}: empty log (no version header)")


def _event_fields(line: str) -> tuple[int, str, dict]:
    """Decode a stripped line that is exactly one event record; ValueError otherwise."""
    record, end = _raw_decode(line)
    if end != len(line) or type(record) is not dict or type(record.get("t_ns")) is not int \
            or type(record.get("kind")) is not str:
        raise ValueError(f"not an event record: {line!r}")
    return record.pop("t_ns"), record.pop("kind"), record


def _parse_header(path: Path, line: str, lineno: int) -> dict:
    try:
        header, end = _raw_decode(line)
    except (ValueError, RecursionError) as exc:
        raise MalformedLog(f"{path}: line {lineno} is not JSON: {exc}") from None
    if end != len(line) or type(header) is not dict or "v" not in header:
        raise MalformedLog(f"{path}: first record is not a version header")
    # v 1 logs differ only by a SampleAccepted line before each DeltaComputed, which charts never read.
    if type(header["v"]) is not int or not 1 <= header["v"] <= LOG_VERSION:
        raise MalformedLog(f"{path}: unsupported log version {header['v']!r}")
    sleep_ns, period_ns = header.get("sleep_ns"), header.get("period_ns")
    if type(sleep_ns) is not int or type(period_ns) is not int:
        raise MalformedLog(f"{path}: header lacks integer sleep_ns/period_ns")
    try:
        validate_session_shape(sleep_ns, period_ns)
    except ConfigInvalid as exc:
        raise MalformedLog(f"{path}: header: {exc}") from None
    return header


def _cell(value: object) -> str:
    return "" if value is None else repr(value)


def export_period_charts(log_path: str | Path, out_dir: str | Path) -> list[Path]:
    """Write period_<k>.csv for every period plus summary.csv; returns the paths.

    Chart rows are a lossless projection of the log's DeltaComputed events.
    The summary holds each period's maximum delta (the final period's too),
    the last logged band, and the alarm. The log is streamed: each delta row
    is written as it is read, and only the per-period maxima are held. A
    MalformedLog stops the export before summary.csv is written.
    """
    records = _log_records(Path(log_path))
    header = next(records)
    period_ns = header["period_ns"]
    n_periods = validate_session_shape(header["sleep_ns"], period_ns)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / f"period_{index}.csv" for index in range(n_periods)]
    maxima: list[float | None] = [None] * n_periods
    t_min = t_max = alarm_t_ns = None
    alarm_fields: dict = {}
    for path in written:  # a period without deltas keeps a header-only chart
        path.write_text("t_s,delta\n", encoding="utf-8", newline="\n")
    chart: IO[str] | None = None
    index = period_start = period_end = 0  # the period whose chart is open
    try:
        for t_ns, kind, fields in records:
            if kind == DELTA_COMPUTED:
                value = fields["value"]
                if t_ns >= period_end:
                    # A later period's first delta: events never go back in
                    # time, so the chart open so far is complete.
                    if chart is not None:
                        chart.close()
                    index = t_ns // period_ns
                    period_start, period_end = index * period_ns, (index + 1) * period_ns
                    chart = written[index].open("a", encoding="utf-8", newline="\n")
                    maxima[index] = value
                elif value > maxima[index]:
                    maxima[index] = value
                chart.write(f"{format_seconds(t_ns - period_start)},{value!r}\n")
            elif kind == THRESHOLDS_UPDATED:
                t_min, t_max = fields.get("t_min"), fields.get("t_max")
            elif kind == ALARM_FIRED:
                alarm_t_ns, alarm_fields = t_ns, fields
    finally:
        if chart is not None:
            chart.close()

    path = out_dir / "summary.csv"
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("key,value\n")
        for index, period_max in enumerate(maxima):
            fh.write(f"period_{index}_max,{_cell(period_max)}\n")
        fh.write(f"t_min,{_cell(t_min)}\n")
        fh.write(f"t_max,{_cell(t_max)}\n")
        fh.write(f"alarm_trigger,{alarm_fields.get('trigger') or ''}\n")
        fh.write(f"alarm_t_s,{'' if alarm_t_ns is None else format_seconds(alarm_t_ns)}\n")
        fh.write(f"alarm_delta,{_cell(alarm_fields.get('value'))}\n")
    written.append(path)
    return written
