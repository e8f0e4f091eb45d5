import io
import json
import re
import tracemalloc
import wave

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
from lightwake.sinks import Melody
from lightwake.sources import seconds_to_ns
from reference import per_period_maxima
from trace_builders import scripted_trace

P = 60 * NS_PER_S


def as_v1_log(log: bytes) -> bytes:
    """The v1 encoding of a v2 log: v 1 in the header, and a SampleAccepted
    line before each DeltaComputed line, at its time."""
    assert log.startswith(b'{"v":2,')
    return re.sub(rb'^(\{"t_ns":(\d+),"kind":"DeltaComputed",)',
                  rb'{"t_ns":\2,"kind":"SampleAccepted"}\n\1',
                  b'{"v":1,' + log[len(b'{"v":2,'):], flags=re.M)

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
    b'{"v":3,"sleep_ns":240000000000,"period_ns":60000000000}\n',
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
                                       ((8000.5, 100.0),), ((440.0, 3e4), (0.0, 30000.5))])
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
        pcm = synthesize_melody(Melody(notes=((0.0, 500.0),)))
        assert len(pcm) == 8000
        assert not pcm.any()

    def test_note_boundaries_do_not_accumulate_rounding(self):
        melody = Melody(notes=((440.0, 333.3), (0.0, 333.3), (660.0, 333.3)))
        pcm = synthesize_melody(melody)
        assert abs(len(pcm) - melody.total_ms() * 16) <= 1.0

    def test_deterministic(self):
        a = synthesize_melody(DEFAULT_ALARM_MELODY)
        b = synthesize_melody(DEFAULT_ALARM_MELODY)
        assert (a == b).all()


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
        logged = [(e.t_ns, e.data["value"]) for e in events if e.kind == DELTA_COMPUTED]
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

    def test_missing_or_bad_header_raises(self, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        with pytest.raises(MalformedLog):
            read_event_log(empty)
        bad_version = tmp_path / "bad.jsonl"
        bad_version.write_text('{"v":3,"sleep_ns":240,"period_ns":60}\n', encoding="utf-8")
        with pytest.raises(MalformedLog, match="unsupported log version 3"):
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
        v1_log, v2_log = tmp_path / "v1.jsonl", tmp_path / "v2.jsonl"
        v2_log.write_bytes(ENGINE_LOG)
        v1_log.write_bytes(as_v1_log(ENGINE_LOG))
        charts = [[path.read_bytes() for path in export_period_charts(log, tmp_path / log.stem)]
                  for log in (v1_log, v2_log)]
        assert charts[0] == charts[1]

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

SMALL_HEADERS = ['{"v":1,"sleep_ns":240,"period_ns":60}', '{"v":2,"sleep_ns":240,"period_ns":60}']
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
        deltas = [(e.t_ns, e.data["value"]) for e in read if e.kind == DELTA_COMPUTED]
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
