import hashlib
import io
import json
import re
import shutil
import tracemalloc
import wave
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from lightwake import (
    DEFAULT_ALARM_MELODY,
    NS_PER_S,
    RawSample,
    SessionConfig,
    export_period_charts,
    melody_to_wav,
    parse_melody,
    read_event_log,
    run_session,
    synthesize_melody,
)
from lightwake.engine import HOUR_NS
from lightwake.sources import SleepModelParams, TraceHeader, generate_trace
from lightwake.engine import DELTA_COMPUTED
from lightwake.errors import InvalidMelody, MalformedLog
from lightwake import sinks, sources
from lightwake.sinks import Melody
from lightwake.sources import format_seconds, seconds_to_ns
from reference import offline_outcome, per_period_maxima
from test_engine import oracle_cases
from trace_builders import scripted_trace

P = 60 * NS_PER_S


def as_v2_log(log: bytes) -> bytes:
    """The v2 encoding of a v3 log: v 2 in the header; the band written where
    v2 moved it, after each learning DeltaComputed that raises its running
    maximum and after each PeriodClosed that lowers t_min, instead of at the
    v3 boundaries; and a StageClassified record after each final-period
    DeltaComputed once the band is set."""
    assert log.startswith(b'{"v":3,')
    header, *lines = log.splitlines(keepends=True)
    out = [b'{"v":2,' + header[len(b'{"v":3,'):]]

    def add(**record):
        out.append(json.dumps(record, separators=(",", ":")).encode("utf-8") + b"\n")

    t_min = t_max = None
    final = False
    for line in lines:
        record = json.loads(line)
        t_ns, kind = record["t_ns"], record["kind"]
        if kind == "ThresholdsUpdated":
            continue
        out.append(line)
        if kind == "FinalPeriodEntered":
            final = True
        elif kind == "PeriodClosed":
            period_max = record["period_max"]
            if period_max is not None and (t_min is None or period_max < t_min):
                t_min = period_max
                add(t_ns=t_ns, kind="ThresholdsUpdated", t_min=t_min, t_max=t_max)
        elif kind == DELTA_COMPUTED:
            value = record["value"]
            if not final and (t_max is None or value > t_max):
                t_max = value
                add(t_ns=t_ns, kind="ThresholdsUpdated", t_min=t_min, t_max=t_max)
            elif final and t_min is not None:
                add(t_ns=t_ns, kind="StageClassified",
                    stage="NREM" if t_min <= value <= t_max else "REM", value=value)
    return b"".join(out)


def as_v1_log(log: bytes) -> bytes:
    """The v1 encoding of a v2 log: v 1 in the header, and a SampleAccepted
    line before each DeltaComputed line, at its time."""
    assert log.startswith(b'{"v":2,')
    return re.sub(rb'^(\{"t_ns":(\d+),"kind":"DeltaComputed",)',
                  rb'{"t_ns":\2,"kind":"SampleAccepted"}\n\1',
                  b'{"v":1,' + log[len(b'{"v":2,'):], flags=re.M)


def log_versions(log: bytes) -> tuple[bytes, bytes, bytes]:
    """The v1, v2 and v3 encodings of a v3 log."""
    v2 = as_v2_log(log)
    return as_v1_log(v2), v2, log


# Logs the engine could not have written; each must be a MalformedLog.
BAD_HEADER_LINES = [
    b'{"v":1,"sleep_ns":28800000000000,"period_ns":0}\n',
    b'{"v":1,"sleep_ns":"28800000000000","period_ns":3600000000000}\n',
    b"[" * 100_000 + b"\n",
    b'{"v":1,"sleep_ns":20000,"period_ns":1}\n',
    b'{"v":true,"sleep_ns":240000000000,"period_ns":60000000000}\n',
    b'{"v":1.0,"sleep_ns":240000000000,"period_ns":60000000000}\n',
    b'{"v":1,"sleep_ns":240000000000,"period_ns":60000000000}{}\n',
    b'{"v":0,"sleep_ns":240000000000,"period_ns":60000000000}\n',
    b'{"v":4,"sleep_ns":240000000000,"period_ns":60000000000}\n',
]
BAD_RECORD_LINES = [
    b'{"t_ns":5,"kind":"DeltaComputed"}\n',
    b'[5,"DeltaComputed",0.5]\n',
    b'{"t_ns":5,"kind":"SampleSkipped","reason":"\xff"}\n',
    b'{"t_ns":-5,"kind":"DeltaComputed","value":0.5}\n',
    b'{"t_ns":240000000000,"kind":"DeltaComputed","value":0.5}\n',
    b'{"t_ns":200000000000,"kind":"SampleAccepted"}\n{"t_ns":199999999999,"kind":"SampleAccepted"}\n',
    b"[" * 100_000 + b"\n",
    b'{"t_ns":5,"kind":"DeltaComputed","value":NaN}\n',
    b'{"t_ns":5,"kind":"DeltaComputed","value":Infinity}\n',
    b'{"t_ns":5,"kind":"DeltaComputed","value":1e999}\n',
    b'{"t_ns":5,"kind":"DeltaComputed","value":-0.5}\n',
    b'{"t_ns":5,"kind":"SampleAccepted"}{"t_ns":6,"kind":"SampleAccepted"}\n',
]


class TestMelody:
    def test_default_melody_is_valid_and_ascending(self):
        freqs = [f for f, _ in DEFAULT_ALARM_MELODY.notes]
        assert len(freqs) == 3
        assert freqs == sorted(freqs)

    def test_parse_with_rest_and_comments(self):
        melody = parse_melody("# wake up\n440:100\n0:50\n\n880:200\n")
        assert melody.notes == ((440.0, 100.0), (0.0, 50.0), (880.0, 200.0))

    def test_parse_errors_carry_line_numbers(self):
        with pytest.raises(InvalidMelody, match="line 2"):
            parse_melody("440:100\nnot-a-note\n")
        with pytest.raises(InvalidMelody, match="line 1"):
            parse_melody("440;100\n")

    @pytest.mark.parametrize("notes", [(), ((440.0, 0.0),), ((-1.0, 100.0),),
                                       ((float("nan"), 100.0),), ((440.0, float("inf")),),
                                       ((8000.5, 100.0),), ((440.0, 3e4), (0.0, 30000.5)),
                                       # No note above 0 Hz spans a frame of the 16 kHz grid.
                                       ((440.0, 0.01),), ((0.0, 500.0),), ((0.0, 100.0), (440.0, 0.01))])
    def test_invalid_melodies(self, notes):
        with pytest.raises(InvalidMelody):
            Melody(notes=notes)

    def test_limits_are_inclusive(self):
        pcm = synthesize_melody(Melody(notes=((8000.0, 3e4), (0.0, 3e4))))
        assert len(pcm) == 60 * 16000
        assert pcm[:4].tolist() == [26214, -26214, 26214, -26214]


class TestSynthesis:
    def test_440hz_square_wave_at_16khz(self):
        pcm = synthesize_melody(Melody(notes=((440.0, 1000.0),)))
        assert len(pcm) == 16000
        assert set(pcm.tolist()) == {26214, -26214}
        transitions = int((pcm[1:] != pcm[:-1]).sum())
        # 440 full cycles over one second, one period ~ 36.36 samples.
        assert transitions in (879, 880)
        assert pcm[0] == 26214

    def test_rest_is_silence(self):
        pcm = synthesize_melody(Melody(notes=((0.0, 500.0), (440.0, 100.0))))
        assert len(pcm) == 9600
        assert not pcm[:8000].any()
        assert pcm[8000:].all()

    def test_note_boundaries_do_not_accumulate_rounding(self):
        melody = Melody(notes=((440.0, 333.3), (0.0, 333.3), (660.0, 333.3)))
        pcm = synthesize_melody(melody)
        assert abs(len(pcm) - melody.total_ms() * 16) <= 1.0

    def test_deterministic(self):
        a = synthesize_melody(DEFAULT_ALARM_MELODY)
        b = synthesize_melody(DEFAULT_ALARM_MELODY)
        assert (a == b).all()

    @pytest.mark.parametrize("notes, frames, sha256", [
        (DEFAULT_ALARM_MELODY.notes, 16_000,
         "1883dc28d9b2506a917e89efd467390ca72874819447b159f052a99201a2bb91"),
        (((440.0, 333.3), (0.0, 333.3), (660.0, 333.3)), 15_998,
         "973b3d0152e044ae8f787914e24045c2f6c870b9941bb06775072a5bcc56567a"),
        # The first note and the rest are each shorter than half a frame: both span none.
        (((440.0, 0.01), (880.0, 100.0), (0.0, 0.02), (1000.0, 0.5)), 1_608,
         "630ebe1062779c312a412b9238af4cc9be4c1457c526e6c7da41c0f87d6bade6"),
        (((8000.0, 3e4), (0.0, 3e4)), 960_000,
         "edc5116330ad7cbebb576541c27cee3647d24cc267fc070886e668ba0adb0df1"),
    ])
    def test_pcm_bytes_are_pinned(self, notes, frames, sha256):
        pcm = synthesize_melody(Melody(notes=notes)).astype("<i2").tobytes()
        assert len(pcm) == 2 * frames
        assert hashlib.sha256(pcm).hexdigest() == sha256


class TestWavFiles:
    def test_riff_wave_readback(self, tmp_path):
        path = tmp_path / "alarm.wav"
        melody_to_wav(DEFAULT_ALARM_MELODY, path)
        with wave.open(str(path), "rb") as wav:
            assert wav.getnchannels() == 1
            assert wav.getsampwidth() == 2
            assert wav.getframerate() == 16000
            frames = wav.getnframes()
            assert abs(frames / 16000 - DEFAULT_ALARM_MELODY.total_ms() / 1000.0) \
                <= 1.0 / 16000
        other = tmp_path / "alarm2.wav"
        melody_to_wav(DEFAULT_ALARM_MELODY, other)
        assert path.read_bytes() == other.read_bytes()


def run_with_log(tmp_path, samples, sleep_ns, period_ns, name="events.jsonl"):
    log_path = tmp_path / name
    with log_path.open("w", encoding="utf-8", newline="\n") as sink:
        result = run_session(SessionConfig(sleep_ns, period_ns), samples, event_sink=sink)
    return log_path, result


class TestCharts:
    def small_case(self, tmp_path):
        header, samples = scripted_trace([0.5, 0.9, 0.7], [0.2, 0.6], period_s=60)
        log_path, result = run_with_log(tmp_path, samples, 4 * P, P)
        return samples, log_path, result

    def test_one_csv_per_period_plus_summary(self, tmp_path):
        _, log_path, _ = self.small_case(tmp_path)
        out = tmp_path / "charts"
        written = export_period_charts(log_path, out)
        names = sorted(p.name for p in written)
        assert names == ["period_0.csv", "period_1.csv", "period_2.csv",
                         "period_3.csv", "summary.csv"]
        for path in written:
            assert path.read_text(encoding="utf-8").splitlines()[0] in (
                "t_s,delta", "key,value")

    def test_lossless_projection_of_delta_events(self, tmp_path):
        _, log_path, result = self.small_case(tmp_path)
        out = tmp_path / "charts"
        export_period_charts(log_path, out)
        _, events = read_event_log(log_path)
        logged = [(t_ns, fields["value"]) for t_ns, kind, fields in events if kind == DELTA_COMPUTED]
        assert logged and chart_rows(out, 4) == logged

    def test_summary_matches_brute_force(self, tmp_path):
        samples, log_path, result = self.small_case(tmp_path)
        out = tmp_path / "charts"
        export_period_charts(log_path, out)
        rows = (out / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
        summary = dict(row.split(",", 1) for row in rows)
        maxima = per_period_maxima(samples, 4 * P, P)
        assert sorted(maxima) == [0, 1, 2, 3]
        for k, value in maxima.items():
            assert float(summary[f"period_{k}_max"]) == value
        outcome = result.outcome
        assert float(summary["t_min"]) == outcome.final_thresholds.t_min
        assert float(summary["t_max"]) == outcome.final_thresholds.t_max
        assert summary["alarm_trigger"] == outcome.trigger.value
        assert seconds_to_ns(summary["alarm_t_s"]) == outcome.alarm_time_ns
        assert float(summary["alarm_delta"]) == outcome.trigger_delta

    def test_empty_final_period_writes_header_only(self, tmp_path):
        samples = [s for _, s in [scripted_trace([0.5, 0.6], [], period_s=60)]][0]
        truncated = [s for s in samples if s.t_ns < 2 * P]  # nothing in the final period
        log_path, _ = run_with_log(tmp_path, truncated, 3 * P, P)
        out = tmp_path / "charts"
        export_period_charts(log_path, out)
        assert (out / "period_2.csv").read_text(encoding="utf-8") == "t_s,delta\n"

    def test_truncated_log_yields_prefix_charts(self, tmp_path):
        _, log_path, _ = self.small_case(tmp_path)
        lines = log_path.read_text(encoding="utf-8").splitlines()
        cut = tmp_path / "cut.jsonl"
        cut.write_text("\n".join(lines[: len(lines) // 2]) + "\n", encoding="utf-8")
        out = tmp_path / "charts"
        written = export_period_charts(cut, out)
        assert (out / "summary.csv") in written  # prefix still exports

    def test_syntactic_corruption_raises(self, tmp_path):
        _, log_path, _ = self.small_case(tmp_path)
        lines = log_path.read_text(encoding="utf-8").splitlines()
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("\n".join(lines[:10]) + '\n{"t_ns": 5, "kind"\n',
                           encoding="utf-8")
        with pytest.raises(MalformedLog):
            export_period_charts(corrupt, tmp_path / "charts")
        prefix = ("\n".join(lines[:10]) + "\n").encode("utf-8")
        for line in BAD_RECORD_LINES:
            corrupt.write_bytes(prefix + line)
            with pytest.raises(MalformedLog):
                export_period_charts(corrupt, tmp_path / "charts")

    def test_malformed_log_leaves_no_earlier_summary(self, tmp_path):
        """An export into the directory of an earlier one removes its summary.csv before
        writing the period files, so a MalformedLog leaves none beside the new charts."""
        _, log_path, _ = self.small_case(tmp_path)
        out = tmp_path / "charts"
        export_period_charts(log_path, out)
        assert (out / "summary.csv").exists()
        lines = log_path.read_text(encoding="utf-8").splitlines()
        corrupt = tmp_path / "corrupt.jsonl"
        corrupt.write_text("\n".join(lines[:10]) + '\n{"t_ns": 5, "kind"\n', encoding="utf-8")
        with pytest.raises(MalformedLog):
            export_period_charts(corrupt, out)
        assert not (out / "summary.csv").exists()

    def test_reused_directory_keeps_no_chart_of_an_earlier_exports_later_periods(self, tmp_path):
        """An export into the directory of one with more periods removes that one's period_<k>.csv
        for k at or past its own period count, and no file of another name."""
        samples, log_path, _ = self.small_case(tmp_path)  # 4 one-minute periods
        out = tmp_path / "charts"
        eight, _ = run_with_log(tmp_path, samples, 4 * P, P // 2, name="eight.jsonl")
        assert len(export_period_charts(eight, out)) == 9
        others = ["period_04.csv", "period_5.csv.bak", "period_x.csv", "period_-5.csv", "period_4.CSV",
                  "period_.csv", "period_٤.csv", "notes.txt"]
        for name in others:
            (out / name).write_text("kept\n", encoding="utf-8")
        (out / "period_12.csv").write_text("stale\n", encoding="utf-8")
        written = export_period_charts(log_path, out)
        assert sorted(p.name for p in out.iterdir()) == sorted([p.name for p in written] + others)
        assert all((out / name).read_text(encoding="utf-8") == "kept\n" for name in others)

    def test_missing_or_bad_header_raises(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(MalformedLog):
            read_event_log(empty)
        bad_version = tmp_path / "bad.jsonl"
        bad_version.write_text('{"v":4,"sleep_ns":240,"period_ns":60}\n', encoding="utf-8")
        with pytest.raises(MalformedLog, match="unsupported log version 4"):
            read_event_log(bad_version)
        bad_header = tmp_path / "bad_header.jsonl"
        for line in BAD_HEADER_LINES:
            bad_header.write_bytes(line)
            with pytest.raises(MalformedLog):
                export_period_charts(bad_header, tmp_path / "charts")
        # Blank lines before the header count: the error names the header's own line.
        bad_header.write_bytes(b"\n[[\n")
        with pytest.raises(MalformedLog, match=r"bad_header\.jsonl: line 2 is not JSON: "):
            read_event_log(bad_header)

    def test_v1_and_v2_logs_chart_alike(self, tmp_path):
        """The v1, v2 and v3 logs of one session give the same chart bytes."""
        logs = [tmp_path / f"v{v}.jsonl" for v in (1, 2, 3)]
        for log, data in zip(logs, log_versions(ENGINE_LOG)):
            log.write_bytes(data)
        charts = [[path.read_bytes() for path in export_period_charts(log, tmp_path / log.stem)]
                  for log in logs]
        assert charts[0] == charts[1] == charts[2]

    def test_chart_series_points_are_in_period_and_ordered(self, tmp_path):
        _, log_path, _ = self.small_case(tmp_path)
        out = tmp_path / "charts"
        export_period_charts(log_path, out)
        for k in range(4):
            rows = (out / f"period_{k}.csv").read_text(encoding="utf-8").splitlines()[1:]
            times = [seconds_to_ns(row.split(",")[0]) for row in rows]
            assert times == sorted(times)
            assert all(0 <= t < P for t in times)

    def test_memory_bounded_by_periods(self, tmp_path):
        """Chart export holds per-period state, not per-delta rows: its peak
        barely moves when the same hour is sampled four times as often."""
        peaks = []
        for rate_hz in (4.0, 16.0):
            samples = generate_trace(SleepModelParams(rng_seed=9), TraceHeader(rate_hz, HOUR_NS))
            log_path, _ = run_with_log(tmp_path, samples, HOUR_NS, 15 * P, f"{rate_hz}.jsonl")
            tracemalloc.start()
            try:
                export_period_charts(log_path, tmp_path / f"charts_{rate_hz}")
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks


def engine_log() -> bytes:
    """A small engine log holding every kind of record: four 60 s periods at 1 Hz,
    one degenerate sample, and an alarm in the final period."""
    _, samples = scripted_trace([0.5, 0.9, 0.7], [0.2, 0.6], period_s=60, rate_hz=1.0)
    samples[30] = RawSample(samples[30].t_ns, 0.0, 0.0, 0.0)
    buf = io.StringIO()
    run_session(SessionConfig(4 * P, P), samples, event_sink=buf)
    return buf.getvalue().encode("utf-8")


ENGINE_LOG = engine_log()
HEADER_END = ENGINE_LOG.index(b"\n") + 1
LINE_ENDS = [i + 1 for i, byte in enumerate(ENGINE_LOG) if byte == ord("\n")]

SMALL_HEADERS = ['{"v":%d,"sleep_ns":240,"period_ns":60}' % v for v in (1, 2, 3)]
_ANY = st.one_of(st.none(), st.booleans(), st.integers(-10, 300), st.floats(), st.text(max_size=4))
_RECORDS = st.fixed_dictionaries(
    {"t_ns": st.one_of(st.integers(0, 250), _ANY),
     "kind": st.one_of(st.sampled_from(["SampleAccepted", DELTA_COMPUTED, "AlarmFired",
                                        "ThresholdsUpdated"]), _ANY)},
    optional={"value": _ANY, "t_min": _ANY}).map(json.dumps)
_LINES = st.one_of(_RECORDS, st.text(max_size=12),
                   st.sampled_from(["", "[", "{", '"', "{}{}", "[" * 5000, "1e999", "NaN"]))
# Arbitrary text, and lines of near-records after a valid or an invalid header.
LOG_TEXTS = st.one_of(
    st.text(),
    st.tuples(st.sampled_from([*SMALL_HEADERS, '{"v":2}', '{"v":true,"sleep_ns":240,"period_ns":60}']),
              st.lists(_LINES, max_size=8), st.sampled_from(["", "\n", "\r\n"]))
    .map(lambda parts: "\n".join([parts[0], *parts[1]]) + parts[2]),
)


def chart_rows(out, n_periods):
    """The (t_ns, value) rows of the period charts in out, in period order."""
    rows = []
    for k in range(n_periods):
        lines = (out / f"period_{k}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t_s,delta"
        for row in lines[1:]:
            t_s, value = row.split(",")
            rows.append((k * P + seconds_to_ns(t_s), float(value)))
    return rows


class TestChartsAgainstTheOracle:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("charts_oracle")

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(case=oracle_cases())
    def test_summary_is_the_oracles(self, workdir, case):
        """summary.csv holds the oracle's maximum of each period, the final one's up to the
        alarm, its band and its alarm."""
        samples, sleep_ns, period_ns = case
        ref = offline_outcome(samples, sleep_ns, period_ns)
        maxima = per_period_maxima([s for s in samples if s.t_ns <= ref.alarm_time_ns], sleep_ns, period_ns)
        log = workdir / "events.jsonl"
        with log.open("w", encoding="utf-8", newline="\n") as sink:
            run_session(SessionConfig(sleep_ns, period_ns), samples, event_sink=sink)
        export_period_charts(log, workdir / "charts")

        def cell(value):
            return "" if value is None else repr(value)

        want = ["key,value", *(f"period_{k}_max,{cell(maxima.get(k))}" for k in range(-(-sleep_ns // period_ns))),
                f"t_min,{cell(ref.t_min)}", f"t_max,{cell(ref.t_max)}", f"alarm_trigger,{ref.trigger}",
                f"alarm_t_s,{ref.alarm_time_ns // NS_PER_S}.{ref.alarm_time_ns % NS_PER_S:09d}",
                f"alarm_delta,{cell(ref.trigger_delta)}"]
        assert (workdir / "charts" / "summary.csv").read_text(encoding="utf-8").splitlines() == want


class TestReaderProperties:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("reader_properties")

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(text=LOG_TEXTS)
    def test_any_text_gives_events_or_malformed_log(self, workdir, text):
        path = workdir / "any.jsonl"
        path.write_text(text, encoding="utf-8", newline="")
        readers = [read_event_log]
        if text.startswith(tuple(SMALL_HEADERS)):  # a 4-period session: charts stay small
            readers.append(lambda log: export_period_charts(log, workdir / "charts"))
        for reader in readers:
            try:
                reader(path)
            except MalformedLog:
                pass

    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(cut=st.one_of(st.integers(HEADER_END, len(ENGINE_LOG)), st.sampled_from(LINE_ENDS)))
    @example(cut=len(ENGINE_LOG) - 1)
    @example(cut=HEADER_END)
    def test_every_byte_prefix_reads_as_the_logs_prefix(self, workdir, cut):
        full = workdir / "full.jsonl"
        full.write_bytes(ENGINE_LOG)
        _, events = read_event_log(full)
        assert len(events) == len(LINE_ENDS) - 1
        prefix = workdir / "prefix.jsonl"
        prefix.write_bytes(ENGINE_LOG[:cut])
        complete = ENGINE_LOG[:cut].count(b"\n") - 1  # event lines up to the last newline
        _, read = read_event_log(prefix)
        assert read == events[:complete]
        export_period_charts(prefix, workdir / "charts")
        deltas = [(t_ns, fields["value"]) for t_ns, kind, fields in read if kind == DELTA_COMPUTED]
        assert chart_rows(workdir / "charts", 4) == deltas

    def test_rejections_name_the_record_line(self, tmp_path):
        header = b'{"v":1,"sleep_ns":240000000000,"period_ns":60000000000}\n'
        log = tmp_path / "log.jsonl"
        log.write_bytes(header + b'{"t_ns":5,"kind":"DeltaComputed","value":0.5}\n')
        assert len(read_event_log(log)[1]) == 1
        for line in BAD_RECORD_LINES:
            log.write_bytes(header + line)
            with pytest.raises(MalformedLog, match=r"line [23]\b|not UTF-8"):
                read_event_log(log)


def night_log() -> bytes:
    """A seeded engine log of 71 kB, longer than one block of the reader: a
    4-minute night at 4 Hz in 2-minute periods."""
    samples = generate_trace(SleepModelParams(rng_seed=4), TraceHeader(4.0, 4 * P))
    buf = io.StringIO()
    run_session(SessionConfig(4 * P, 2 * P), samples, event_sink=buf)
    return buf.getvalue().encode("utf-8")


NIGHT_LOG = night_log()
_DELTA_LINE = re.compile(rb'\{"t_ns":(\d+),"kind":"DeltaComputed","value":([^}]+)\}')


def delta(t_ns: bytes, value: bytes, colon: bytes = b":", kind: bytes = b"DeltaComputed") -> bytes:
    return b'{"t_ns"%s%s,"kind":"%s","value":%s}' % (colon, t_ns, kind, value)


# Each mutation of a DeltaComputed line, made from its t_ns and value text, the
# previous event's t_ns and sleep_ns; and whether the mutated log still reads.
LINE_MUTATIONS = {
    "minus zero": (lambda t, v, prev, end: delta(t, b"-0.0"), True),
    "int value": (lambda t, v, prev, end: delta(t, b"1"), False),
    "negative value": (lambda t, v, prev, end: delta(t, b"-0.5"), False),
    "1E400": (lambda t, v, prev, end: delta(t, b"1E400"), False),
    "1e-400": (lambda t, v, prev, end: delta(t, b"1e-400"), True),
    "trailing zero": (lambda t, v, prev, end: delta(t, b"0.50"), True),
    "upper-case exponent": (lambda t, v, prev, end: delta(t, b"5E-3"), True),
    "not the shortest repr": (lambda t, v, prev, end: delta(t, b"0.10000000000000001"), True),
    "leading zero": (lambda t, v, prev, end: delta(b"0" + t, v), False),
    "space after a colon": (lambda t, v, prev, end: delta(t, v, colon=b": "), True),
    "CRLF line end": (lambda t, v, prev, end: delta(t, v) + b"\r", True),
    "blank line": (lambda t, v, prev, end: b"\n" + delta(t, v), True),
    "t_ns goes back": (lambda t, v, prev, end: delta(b"%d" % (prev - 1), v), False),
    "delta at sleep_ns": (lambda t, v, prev, end: delta(b"%d" % end, v), False),
    "two records on a line": (lambda t, v, prev, end: b'{"t_ns":%s,"kind":"SampleAccepted"}' % t + delta(t, v), False),
    "xff byte": (lambda t, v, prev, end: delta(t, v, kind=b"Delta\xffComputed"), False),
    "unterminated last line": (None, True),
}


def mutated(log: bytes, n: int, mutation: str) -> bytes:
    """log with its line n, a DeltaComputed line, mutated."""
    lines = log.split(b"\n")
    make, _ = LINE_MUTATIONS[mutation]
    if make is None:
        return b"\n".join(lines[:n])
    prev_t = int(re.search(rb'"t_ns":(\d+)', lines[n - 2]).group(1))
    lines[n - 1] = make(*_DELTA_LINE.fullmatch(lines[n - 1]).groups(), prev_t, json.loads(lines[0])["sleep_ns"])
    return b"\n".join(lines)


def read_and_chart(path, out):
    """read_event_log's result or MalformedLog message, then export_period_charts'
    message or None (its paths name out), and the chart files it leaves, even when
    it stops on an error."""
    shutil.rmtree(out, ignore_errors=True)
    results = []
    for reader in (read_event_log, lambda log: export_period_charts(log, out) and None):
        try:
            results.append(reader(path))
        except MalformedLog as exc:
            results.append(str(exc))
    return results, {chart.name: chart.read_bytes() for chart in sorted(out.iterdir())}


def delta_lines(log: bytes) -> list[int]:
    return [n for n, line in enumerate(log.split(b"\n"), 1) if _DELTA_LINE.fullmatch(line)]


# (log, line) pairs to mutate: the first, a middle and the last DeltaComputed line of
# each rendering of ENGINE_LOG, and one of NIGHT_LOG's past the reader's first block.
MUTATED_LINES = [(log, n) for log in log_versions(ENGINE_LOG)
                 for deltas in [delta_lines(log)] for n in (deltas[0], deltas[len(deltas) // 2], deltas[-1])]
MUTATED_LINES.append((NIGHT_LOG, delta_lines(NIGHT_LOG)[-40]))


class TestBlockReader:
    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("block_reader")

    def test_runs_past_the_first_block_are_decoded_in_bulk(self, workdir):
        path = workdir / "night.jsonl"
        path.write_bytes(NIGHT_LOG)
        log, n = MUTATED_LINES[-1]
        assert len(b"\n".join(log.split(b"\n")[:n - 1])) > sources._BLOCK_BYTES  # past the first block
        records = sinks._log_records(path)
        next(records)  # the header
        runs = [len(record[0]) for record in records if type(record[0]) is list]
        assert max(runs, default=0) > 40, runs

    def test_runs_are_cut_at_period_ends(self, workdir):
        """Without its boundary records a log's runs cross period ends, and each
        period's rows still go to its own chart."""
        path = workdir / "deltas.jsonl"
        lines = NIGHT_LOG.split(b"\n")
        path.write_bytes(b"\n".join([lines[0], *(line for line in lines if _DELTA_LINE.fullmatch(line))]) + b"\n")
        with mock.patch.object(sinks, "_DELTA_RUN", re.compile("(?!)")):
            by_line = read_and_chart(path, workdir / "by_line")
        for block_bytes in (1, 64, 4096, sources._BLOCK_BYTES):  # at 4096 a run holds the end of period 0
            with mock.patch.object(sources, "_BLOCK_BYTES", block_bytes):
                assert read_and_chart(path, workdir / "by_block") == by_line, block_bytes
        assert by_line[1]["period_1.csv"].startswith(b"t_s,delta\n0.000000000,")

    @pytest.mark.parametrize("mutation", LINE_MUTATIONS)
    def test_blocks_read_like_lines(self, workdir, mutation):
        """With one DeltaComputed line mutated, the block reader gives the events
        or the MalformedLog message, and the chart bytes, of a reading one line
        at a time, at any block size. A mutated line that still reads, is
        terminated and has the engine's layout charts its value token as
        written."""
        path, reads = workdir / "mutated.jsonl", LINE_MUTATIONS[mutation][1]
        for log, n in MUTATED_LINES:
            path.write_bytes(mutated(log, n, mutation))
            lines = path.read_bytes().split(b"\n")[:-1]  # the terminated lines
            line = _DELTA_LINE.fullmatch(lines[n - 1]) if n <= len(lines) else None
            with mock.patch.object(sinks, "_DELTA_RUN", re.compile("(?!)")):  # no run: every line alone
                by_line = read_and_chart(path, workdir / "by_line")
            for block_bytes in (1, 64, sources._BLOCK_BYTES):
                with mock.patch.object(sources, "_BLOCK_BYTES", block_bytes):
                    assert read_and_chart(path, workdir / "by_block") == by_line, (mutation, n, block_bytes)
            (read, _), charts = by_line
            if reads:
                assert isinstance(read, tuple)
                if line:
                    t_ns, period_ns = int(line[1]), read[0]["period_ns"]
                    row = b"\n%s,%s\n" % (format_seconds(t_ns % period_ns).encode(), line[2])
                    assert row in charts[f"period_{t_ns // period_ns}.csv"], (mutation, n, row)
            else:
                assert re.search(rf"line {n}\b", read), read
