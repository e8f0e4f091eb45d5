"""Alarm outputs: buzzer-style melody synthesis and per-period chart export.

The melody sink renders 16-bit signed mono PCM square waves (the character
of a passive buzzer driven by a GPIO pin) and writes standard RIFF/WAVE
files. Melodies are plain text, one note per line as
``freq_hz:duration_ms`` with frequency 0 meaning a rest; blank lines and
``#`` comments are ignored.

The chart sink projects a session event log into one CSV per period (every
DeltaComputed event, timestamped in seconds within its period, its delta the
log's token as written) plus a key/value summary holding the per-period
maxima, the learned thresholds, and the alarm. Logs stream a block of lines
at a time, in time order, so chart memory is bounded by the number of
periods.
"""

from __future__ import annotations

import json
import math
import re
import wave
from bisect import bisect_left
from dataclasses import dataclass
from itertools import accumulate, chain
from pathlib import Path
from typing import IO, Iterator

import numpy as np

from .detector import ALARM_FIRED, THRESHOLDS_UPDATED, validate_session_shape
from .engine import DELTA_COMPUTED, LOG_VERSION, NS_PER_S
from .errors import ConfigInvalid, InvalidMelody, MalformedLog
from .sources import _line_blocks, _utf8_blocks, format_seconds

# 0.8 of full scale: loud but clear of clipping artifacts.
_AMPLITUDE = np.int16(26214)

DEFAULT_SAMPLE_RATE = 16000
# A minute of PCM is 1.9 MB; synthesis holds a few times that in temporaries.
MAX_MELODY_MS = 60_000.0


def _frame_grid(notes: tuple[tuple[float, float], ...]) -> list[int]:
    """Note boundaries in frames at DEFAULT_SAMPLE_RATE: 0, then each note's
    cumulative end in ms, rounded half-up. A note may span no frame."""
    return [int(ms * DEFAULT_SAMPLE_RATE / 1000.0 + 0.5)
            for ms in accumulate((duration for _, duration in notes), initial=0.0)]


@dataclass(frozen=True, slots=True)
class Melody:
    """Ordered notes of (frequency_hz, duration_ms); frequency 0 is a rest.

    Built with no notes, an unusable one (a frequency above half the sample
    rate, say), over MAX_MELODY_MS in all, or silent (no note above 0 Hz spans
    a frame: only rests, or notes too short), it raises InvalidMelody.
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
        grid = _frame_grid(self.notes)
        if not any(freq and start < end for (freq, _), start, end in zip(self.notes, grid, grid[1:])):
            raise InvalidMelody(f"melody {self.name!r} sounds for no frame at {DEFAULT_SAMPLE_RATE} Hz")


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

    One buffer spans the frame grid; each note above 0 Hz writes its square
    wave into its slice, and rests stay zero.
    """
    grid = _frame_grid(melody.notes)
    pcm = np.zeros(grid[-1], dtype=np.int16)
    for (freq, _), start, end in zip(melody.notes, grid, grid[1:]):
        if freq:
            # Each note's wave starts in phase at the note's first frame.
            half_periods = (np.arange(end - start) * (2.0 * freq) / DEFAULT_SAMPLE_RATE).astype(np.int64)
            pcm[start:end] = np.where(half_periods % 2 == 0, _AMPLITUDE, -_AMPLITUDE)
    return pcm


def melody_to_wav(melody: Melody, path: str | Path) -> None:
    """Write the synthesized melody as an int16 mono RIFF/WAVE file."""
    # Opened first: a Wave_write that fails to open its own path raises again when freed.
    with open(path, "wb") as fh, wave.open(fh, "wb") as wav:
        wav.setnchannels(1)
        wav.setsampwidth(2)
        wav.setframerate(DEFAULT_SAMPLE_RATE)
        wav.writeframes(synthesize_melody(melody).astype("<i2").tobytes())


# -- chart export -------------------------------------------------------------

def read_event_log(path: str | Path) -> tuple[dict, list[tuple[int, str, dict]]]:
    """Load and validate a JSONL event log: (header, [(t_ns, kind, fields), ...]).

    It reads log versions 1 to 3. A v 3 log writes the band once per period
    boundary where it moved; a v 2 log also writes it each time a learning
    delta raised t_max, and a StageClassified record after each final-period
    delta; a v 1 log also a SampleAccepted line before each DeltaComputed.
    The deltas and the last band of a complete log are alike in all three.
    A log cut off anywhere after its header line still reads: the engine
    flushes whole lines only, so an unterminated last line is a truncation
    and is dropped, and the events are a prefix of the full log's. Whatever
    the engine could not have written raises MalformedLog naming its line: a
    header whose v is not the int 1, 2 or 3 or that is no session shape, a
    line that is not UTF-8 or no event record, an event before the previous
    one or outside 0..sleep_ns, or a DeltaComputed at sleep_ns or without a
    finite float value >= 0.
    """
    records = _log_records(Path(path))
    header = next(records)
    events: list[tuple[int, str, dict]] = []
    for record in records:  # one event, or a run of deltas
        events += [record] if type(record[0]) is int \
            else [(t, DELTA_COMPUTED, {"value": v}) for t, v in zip(*record[:2])]
    return header, events


_raw_decode = json.JSONDecoder().raw_decode
_raw_decode_text = json.JSONDecoder(parse_float=str).raw_decode  # a float's JSON text, as written

# Runs of whole DeltaComputed lines as engine._DELTA_LINE writes them; int() reads a 30-digit t_ns.
_VALUE_KEY = ',"kind":"DeltaComputed","value":'
_DELTA_RUN = re.compile(r'(?m)^((?:\{"t_ns":(?:0|[1-9][0-9]{0,29})' + _VALUE_KEY +
                        r'(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)\}\n)+)')


def _log_records(path: Path) -> Iterator[dict | tuple[int, str, dict] | tuple[list[int], list[float], list[str]]]:
    """Yield a log's validated header record, then its events, read in blocks of whole lines:
    deltas as (times, values, tokens) lists, each token a value's JSON text as written, a run
    of _DELTA_RUN lines that passes every check as one triple and any other DeltaComputed line
    as a triple of one, and every other record as a (t_ns, kind, fields) tuple; see
    read_event_log."""
    header: dict | None = None
    sleep_ns = last_t_ns = lineno = 0  # lineno: the number of the last line read
    with path.open("rb") as fh:
        for _, block in _utf8_blocks(_line_blocks(fh.read), path, MalformedLog):
            for piece, text in enumerate(_DELTA_RUN.split(block)):  # text, then each run and the text after it
                if piece % 2:  # a run; before the header, sleep_ns is 0 and it fails the checks below
                    fields = text[len('{"t_ns":'):-len("}\n")].replace('}\n{"t_ns":', _VALUE_KEY).split(_VALUE_KEY)
                    times, tokens = list(map(int, fields[::2])), fields[1::2]
                    values = list(map(float, tokens))
                    if last_t_ns <= times[0] and times[-1] < sleep_ns and max(values) < math.inf \
                            and sorted(times) == times:
                        lineno += len(times)
                        last_t_ns = times[-1]
                        yield times, values, tokens
                        continue
                for line in text.split("\n")[:-1]:  # a truncated log's unterminated last line is dropped
                    lineno += 1
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
                    yield ([t_ns], [value], [_raw_decode_text(line)[0]["value"]]) if kind == DELTA_COMPUTED \
                        else (t_ns, kind, fields)
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

    Chart rows are a lossless projection of the log's DeltaComputed events:
    each row's delta is the value's token in the log, as written. The summary
    holds each period's maximum delta (the final period's too), the last
    logged band, and the alarm. The log is streamed: each run of delta rows
    is written as it is read, and only the per-period maxima are held. A
    MalformedLog stops the export before summary.csv is written, and an
    earlier export's summary.csv is removed before the period files are, as
    are its period_<k>.csv files with k at or past this log's period count.
    """
    records = _log_records(Path(log_path))
    header = next(records)
    period_ns = header["period_ns"]
    n_periods = validate_session_shape(header["sleep_ns"], period_ns)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = [out_dir / f"period_{index}.csv" for index in range(n_periods)]
    summary = out_dir / "summary.csv"
    summary.unlink(missing_ok=True)
    for stale in out_dir.glob("period_*.csv"):  # an earlier export's charts of periods this log lacks
        if (k := re.fullmatch("period_(0|[1-9][0-9]*)[.]csv", stale.name)) and int(k[1]) >= n_periods:
            stale.unlink()
    maxima: list[float | None] = [None] * n_periods
    t_min = t_max = alarm_t_ns = None
    alarm_fields: dict = {}
    for path in written:  # a period without deltas keeps a header-only chart
        path.write_text("t_s,delta\n", encoding="utf-8", newline="\n")
    chart: IO[str] | None = None
    index = period_start = period_end = 0  # the period whose chart is open
    try:
        for record in records:
            if type(record[0]) is int:
                t_ns, kind, fields = record
                if kind == THRESHOLDS_UPDATED:
                    t_min, t_max = fields.get("t_min"), fields.get("t_max")
                elif kind == ALARM_FIRED:
                    alarm_t_ns, alarm_fields = t_ns, fields
                continue
            times, values, tokens = record
            start = 0
            while start < len(times):
                if times[start] >= period_end:
                    # A later period's first delta: events never go back in
                    # time, so the chart open so far is complete.
                    if chart is not None:
                        chart.close()
                    index = times[start] // period_ns
                    period_start, period_end = index * period_ns, (index + 1) * period_ns
                    chart = written[index].open("a", encoding="utf-8", newline="\n")
                    maxima[index] = values[start]
                stop = bisect_left(times, period_end, start)
                maxima[index] = max(maxima[index], *values[start:stop])  # the first of equal maxima stays
                offsets = [t - period_start for t in times[start:stop]]
                rows = zip([t // NS_PER_S for t in offsets], [t % NS_PER_S for t in offsets], tokens[start:stop])
                # Each row is format_seconds(t - period_start), then the value's token; one % formats them all.
                chart.write(("%d.%09d,%s\n" * len(offsets)) % tuple(chain.from_iterable(rows)))
                start = stop
    finally:
        if chart is not None:
            chart.close()

    with summary.open("w", encoding="utf-8", newline="\n") as fh:
        fh.write("key,value\n")
        for index, period_max in enumerate(maxima):
            fh.write(f"period_{index}_max,{_cell(period_max)}\n")
        fh.write(f"t_min,{_cell(t_min)}\n")
        fh.write(f"t_max,{_cell(t_max)}\n")
        fh.write(f"alarm_trigger,{alarm_fields.get('trigger') or ''}\n")
        fh.write(f"alarm_t_s,{'' if alarm_t_ns is None else format_seconds(alarm_t_ns)}\n")
        fh.write(f"alarm_delta,{_cell(alarm_fields.get('value'))}\n")
    written.append(summary)
    return written
