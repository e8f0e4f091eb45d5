import io
import json
import time
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from lightwake import (
    HOUR_NS,
    NS_PER_S,
    RawSample,
    SessionConfig,
    SleepModelParams,
    TraceHeader,
    generate_trace,
    run_session,
)
from lightwake import engine
from lightwake.detector import (
    ALARM_FIRED,
    FINAL_PERIOD_ENTERED,
    PERIOD_CLOSED,
    STAGE_CLASSIFIED,
    AlarmTrigger,
)
from lightwake.engine import (
    DELTA_COMPUTED,
    LOG_VERSION,
    SAMPLE_ACCEPTED,
    SAMPLE_SKIPPED,
    SESSION_ENDED,
    SessionEvent,
)
from lightwake.errors import ConfigInvalid, OrderViolation, SourceFailed
from lightwake.motion import block_deltas
from reference import offline_outcome
from trace_builders import scripted_trace

NS = NS_PER_S
P = 60 * NS


def quiescent_samples(n, dt_ns=250_000_000):
    return [RawSample(i * dt_ns, 0.0, 0.0, 1.0) for i in range(n)]


class FlushRecorder(io.StringIO):
    """Text sink that tells written text from flushed text: flushes holds
    how much had been written at each flush."""

    def __init__(self):
        super().__init__()
        self.flushes: list[int] = []

    def flush(self):
        self.flushes.append(self.tell())


def check_log_grammar(text: str):
    """Shared event-log well-formedness assertions; returns (header, events)."""
    lines = text.splitlines()
    header = json.loads(lines[0])
    assert header["v"] == LOG_VERSION and "sleep_ns" in header and "period_ns" in header
    events = []
    for line in lines[1:]:
        record = json.loads(line)
        t_ns, kind = record.pop("t_ns"), record.pop("kind")
        assert type(t_ns) is int and type(kind) is str
        events.append(SessionEvent(t_ns, kind, record))
    assert all(b.t_ns >= a.t_ns for a, b in zip(events, events[1:]))
    # One SampleAccepted, for the first accepted sample: before any delta, which needs two.
    accepted = [i for i, e in enumerate(events) if e.kind == SAMPLE_ACCEPTED]
    deltas = [i for i, e in enumerate(events) if e.kind == DELTA_COMPUTED]
    assert len(accepted) <= 1
    if deltas:
        assert accepted and accepted[0] < deltas[0]
    alarms = [e for e in events if e.kind == ALARM_FIRED]
    assert len(alarms) == 1
    assert alarms[0].t_ns <= header["sleep_ns"]
    assert events[-1].kind == SESSION_ENDED
    final_entries = [i for i, e in enumerate(events) if e.kind == FINAL_PERIOD_ENTERED]
    stage_indices = [i for i, e in enumerate(events) if e.kind == STAGE_CLASSIFIED]
    if stage_indices:
        assert final_entries and final_entries[0] < stage_indices[0]
    return header, events


class TestConfig:
    def test_sleep_must_cover_two_periods(self):
        with pytest.raises(ConfigInvalid):
            SessionConfig(P, P)

    def test_speed_must_be_non_negative(self):
        for speed in (-1.0, float("nan")):
            with pytest.raises(ConfigInvalid):
                SessionConfig(3 * P, P, speed=speed)

    def test_pacing_sleep_must_fit_time_sleep(self):
        # time.sleep takes under 2**63 ns: 9.2e9 s sleeps, 9.3e9 s overflows.
        SessionConfig(3 * P, P, speed=3 * P / 9.2e18)
        for speed in (3 * P / 9.3e18, 1e-300, 5e-324):
            with pytest.raises(ConfigInvalid):
                SessionConfig(3 * P, P, speed=speed)


class TestSessionPaths:
    def test_quiescent_trace_hits_zero_band_at_first_final_delta(self):
        samples = quiescent_samples(3 * 60 * 4)
        buf = io.StringIO()
        result = run_session(SessionConfig(3 * P, P), samples, event_sink=buf)
        outcome = result.outcome
        assert outcome.trigger is AlarmTrigger.THRESHOLD_HIT
        assert outcome.trigger_delta == 0.0
        assert outcome.alarm_time_ns == 2 * P  # the boundary sample's delta
        assert outcome.final_thresholds.t_min == 0.0
        assert outcome.final_thresholds.t_max == 0.0
        check_log_grammar(buf.getvalue())

    def test_all_final_deltas_out_of_band_falls_back_to_session_end(self):
        header, samples = scripted_trace([0.5, 0.6], [1.9, 1.8], period_s=60)
        result = run_session(SessionConfig(3 * P, P), samples)
        outcome = result.outcome
        assert outcome.trigger is AlarmTrigger.SESSION_END
        assert outcome.alarm_time_ns == 3 * P  # exactly the sleep duration

    def test_source_exhausted_mid_learning_fast_forwards(self):
        samples = [s for s in quiescent_samples(4 * 60 * 4) if s.t_ns < 90 * NS]
        buf = io.StringIO()
        result = run_session(SessionConfig(4 * P, P), samples, event_sink=buf)
        assert result.outcome.trigger is AlarmTrigger.SESSION_END
        assert result.outcome.alarm_time_ns == 4 * P
        _, events = check_log_grammar(buf.getvalue())
        closes = [e for e in events if e.kind == PERIOD_CLOSED]
        assert [c.data["index"] for c in closes] == [0, 1, 2]
        assert closes[0].data["period_max"] == 0.0
        assert closes[1].data["period_max"] == 0.0   # samples up to 89.75 s
        assert closes[2].data["period_max"] is None  # no samples ever arrived
        assert [e.t_ns for e in closes] == [P, 2 * P, 3 * P]

    def test_samples_beyond_sleep_duration_ignored(self):
        samples = quiescent_samples(10 * 60 * 4)  # trace much longer than session
        result = run_session(SessionConfig(3 * P, P), samples)
        assert result.outcome.alarm_time_ns <= 3 * P

    def test_stop_on_hit_reads_no_further_samples(self, paper_case):
        consumed = 0

        def counting():
            nonlocal consumed
            for sample in paper_case.samples:
                consumed += 1
                yield sample

        result = run_session(SessionConfig(8 * 3600 * NS, 3600 * NS), counting())
        alarm_ns = result.outcome.alarm_time_ns
        assert result.outcome.trigger is AlarmTrigger.THRESHOLD_HIT
        assert consumed == alarm_ns // 250_000_000 + 1


class TestDegenerateSamples:
    def test_skip_and_warn_then_bridge_neighbors(self):
        samples = quiescent_samples(3 * 60 * 4)
        samples[10] = RawSample(samples[10].t_ns, 0.0, 0.0, 0.0)
        buf = io.StringIO()
        result = run_session(SessionConfig(3 * P, P), samples, event_sink=buf)
        _, events = check_log_grammar(buf.getvalue())
        skipped = [e for e in events if e.kind == SAMPLE_SKIPPED]
        assert len(skipped) == 1
        assert skipped[0].t_ns == samples[10].t_ns
        assert skipped[0].data["reason"] == "degenerate"
        # The delta at the skipped slot is bridged, not fabricated.
        deltas = [e for e in events if e.kind == DELTA_COMPUTED]
        assert all(e.t_ns != samples[10].t_ns for e in deltas)
        ref = offline_outcome(samples, 3 * P, P)
        assert result.outcome.trigger.value == ref.trigger
        assert result.outcome.alarm_time_ns == ref.alarm_time_ns


class TestSourceFailures:
    def test_typed_source_error_wrapped_with_flushed_prefix(self):
        def broken():
            yield RawSample(0, 0.0, 0.0, 1.0)
            yield RawSample(250_000_000, 0.0, 0.0, 1.0)
            raise OrderViolation("line 3: timestamps went backwards")

        sink = FlushRecorder()
        with pytest.raises(SourceFailed):
            run_session(SessionConfig(3 * P, P), broken(), event_sink=sink)
        text = sink.getvalue()
        assert sink.flushes[-1] == len(text)  # all that was written is flushed
        lines = text.splitlines()
        assert json.loads(lines[0])["v"] == LOG_VERSION
        assert [json.loads(line)["kind"] for line in lines[1:]] == [
            SAMPLE_ACCEPTED, DELTA_COMPUTED, "ThresholdsUpdated"]

    @pytest.mark.parametrize("error", [OSError("connection reset"), RuntimeError("bug in the source")])
    def test_error_after_blocks_flushes_the_log_of_the_samples_read(self, error):
        # 30-minute periods at 4 Hz: 5,000 learning samples fill more than one block.
        samples = generate_trace(SleepModelParams(rng_seed=4), TraceHeader(4.0, HOUR_NS))[:5000]
        assert 5000 > engine._BLOCK_SIZE
        config = SessionConfig(HOUR_NS, HOUR_NS // 2)

        def broken():
            yield from samples
            raise error

        sink = FlushRecorder()
        with pytest.raises(SourceFailed if isinstance(error, OSError) else RuntimeError):
            run_session(config, broken(), event_sink=sink)
        text = sink.getvalue()
        assert sink.flushes[-1] == len(text)
        whole = io.StringIO()
        run_session(config, samples, event_sink=whole)
        header, *records = whole.getvalue().splitlines(keepends=True)
        last_ns = samples[-1].t_ns
        assert text == header + "".join(r for r in records if json.loads(r)["t_ns"] <= last_ns)

    def test_flushes_fall_on_line_ends_at_period_boundaries(self):
        triggers = set()
        for final_deltas in ([0.2, 0.31, 1.016, 0.8], []):
            _, samples = scripted_trace([0.9, 1.1, 0.8, 0.75, 1.662, 0.497, 1.2], final_deltas,
                                        period_s=60)
            sink = FlushRecorder()
            result = run_session(SessionConfig(8 * P, P), samples, event_sink=sink)
            triggers.add(result.outcome.trigger)
            text = sink.getvalue()
            assert all(text[end - 1] == "\n" for end in sink.flushes)
            assert len(sink.flushes) <= 8 + 2
            assert sink.flushes[-1] == len(text)
            lines = text.splitlines(keepends=True)
            line_end = len(lines[0])
            for line in lines[1:]:
                line_end += len(line)
                if json.loads(line)["kind"] in (PERIOD_CLOSED, FINAL_PERIOD_ENTERED):
                    assert line_end in sink.flushes
        assert triggers == {AlarmTrigger.THRESHOLD_HIT, AlarmTrigger.SESSION_END}

    def test_non_monotone_custom_source_detected(self):
        for times in ([0, 0], [0, 2 * NS, 1 * NS], [-1]):
            samples = [RawSample(t, 0.0, 0.0, 1.0) for t in times]
            with pytest.raises(SourceFailed, match="strictly increasing"):
                run_session(SessionConfig(3 * P, P), samples)

    def test_source_closed_on_alarm(self):
        closed = []

        class Closable:
            def __iter__(self):
                return iter(quiescent_samples(3 * 60 * 4))

            def close(self):
                closed.append(True)

        run_session(SessionConfig(3 * P, P), Closable())
        assert closed == [True]


class TestVirtualClock:
    def test_real_time_pacing(self):
        dt = 250_000_000
        samples = [RawSample(0, 0.0, 0.0, 1.0), RawSample(dt, 0.0, 0.0, 1.0)]
        config = SessionConfig(2 * dt, dt, speed=1.0)
        start = time.perf_counter()
        run_session(config, samples)
        elapsed = time.perf_counter() - start
        assert 0.2 <= elapsed <= 2.0  # 250 ms nominal, host scheduler slack

    def test_speed_invariance_single_trace(self):
        samples = generate_trace(SleepModelParams(rng_seed=6),
                                 TraceHeader(4.0, 120 * NS))
        logs = []
        for speed in (0.0, 3600.0):
            buf = io.StringIO()
            run_session(SessionConfig(120 * NS, 30 * NS, speed), samples, event_sink=buf)
            logs.append(buf.getvalue())
        assert logs[0] == logs[1]


class TestEventLogShape:
    def test_grammar_on_generated_traces(self):
        for seed in (1, 2, 3):
            samples = generate_trace(SleepModelParams(rng_seed=seed),
                                     TraceHeader(4.0, 300 * NS))
            buf = io.StringIO()
            run_session(SessionConfig(300 * NS, 60 * NS), samples, event_sink=buf)
            check_log_grammar(buf.getvalue())

    def test_paper_fixture_log_grammar_and_memory_events_match(self, paper_case):
        text = paper_case.log_path.read_text(encoding="utf-8")
        check_log_grammar(text)
        assert paper_case.result.events == []  # records go to a sink or nowhere
        buf = io.StringIO()
        in_memory = run_session(SessionConfig(8 * 3600 * NS, 3600 * NS), paper_case.samples,
                                event_sink=buf)
        assert in_memory.outcome == paper_case.result.outcome
        assert buf.getvalue() == text

    @settings(derandomize=True, database=None, deadline=None)
    @given(t_ns=st.integers(0, 10**21),
           value=st.one_of(st.sampled_from([5e-324, 0.1 + 0.2, 1e16]),
                           st.floats(min_value=0.0, allow_nan=False, allow_infinity=False)))
    def test_per_sample_lines_are_the_json_encoding(self, t_ns, value):
        """Every DeltaComputed line, from a learning block and from the final
        period, is json.dumps of its record."""
        # Periods of t_ns + 2 ns: t_ns and t_ns + 1 learn, t_ns + 2 opens the final period.
        samples = [RawSample(t, 0.0, 0.0, 1.0) for t in (t_ns, t_ns + 1, t_ns + 2)]
        period_ns = t_ns + 2

        def learning_deltas(prev, block):
            skipped, deltas, last = block_deltas(prev, block)
            return skipped, np.where(np.isnan(deltas), deltas, value), last

        buf = io.StringIO()
        with mock.patch.object(engine, "block_deltas", learning_deltas), \
                mock.patch.object(engine, "manhattan_delta", lambda prev, curr: value):
            run_session(SessionConfig(2 * period_ns, period_ns), samples, event_sink=buf)
        lines = [line for line in buf.getvalue().splitlines()[1:]
                 if json.loads(line)["kind"] in (SAMPLE_ACCEPTED, DELTA_COMPUTED)]
        records = [{"t_ns": t_ns, "kind": SAMPLE_ACCEPTED},
                   {"t_ns": t_ns + 1, "kind": DELTA_COMPUTED, "value": value},
                   {"t_ns": t_ns + 2, "kind": DELTA_COMPUTED, "value": value}]
        assert lines == [json.dumps(record, separators=(",", ":")) for record in records]

    def test_memory_without_sink_bounded_by_periods(self):
        """Without a sink no record is built: the peak barely moves when the
        same hour is sampled four times as often."""
        nights = [generate_trace(SleepModelParams(rng_seed=9), TraceHeader(rate_hz, HOUR_NS))
                  for rate_hz in (4.0, 16.0)]
        peaks = []
        for samples in nights:
            tracemalloc.start()
            try:
                run_session(SessionConfig(HOUR_NS, 15 * P), samples)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] < 1.5 * peaks[0], peaks

    def test_thresholds_updated_culminates_at_final_band(self, paper_case):
        _, events = check_log_grammar(paper_case.log_path.read_text(encoding="utf-8"))
        updates = [e for e in events if e.kind == "ThresholdsUpdated"]
        assert updates, "learning must update thresholds"
        final = updates[-1]
        assert final.data["t_min"] == paper_case.result.outcome.final_thresholds.t_min
        assert final.data["t_max"] == paper_case.result.outcome.final_thresholds.t_max


# -- streaming engine against the offline oracle --------------------------------

# Vectors skipped as degenerate (zero, sub-guard, or not finite in length), a
# resting one, and arbitrary directions.
_NAN, _INF = float("nan"), float("inf")
_VECTORS = st.one_of(
    st.sampled_from([(0.0, 0.0, 0.0), (1e-12, 0.0, 0.0), (_NAN, 0.0, 1.0), (0.0, _INF, 1.0),
                     (-_INF, 0.0, 0.0), (0.0, 0.0, 1.0)]),
    st.tuples(*[st.floats(-2.0, 2.0)] * 3),
)


@st.composite
def oracle_cases(draw):
    """(samples, sleep_ns, period_ns): a grid of samples plus extra ones,
    often on period boundaries; a sleep that need not be a multiple of the
    period; some learning periods emptied; vectors from a pool of at most
    four, so deltas repeat and final ones land in the band. A pool of one
    gives all-zero deltas: a band of zero width."""
    period_ns = draw(st.integers(4, 40))
    full_periods = draw(st.integers(2, 5))
    sleep_ns = full_periods * period_ns + draw(st.integers(0, period_ns - 1))
    step = draw(st.integers(1, period_ns))
    times = set(range(draw(st.integers(0, step - 1)), sleep_ns + period_ns, step))
    on_boundary = st.integers(0, full_periods + 1).map(lambda k: k * period_ns)
    times |= draw(st.sets(st.one_of(on_boundary, st.integers(0, sleep_ns + period_ns))))
    emptied = draw(st.sets(st.integers(0, full_periods - 1), max_size=2))
    times = sorted(t for t in times if t // period_ns not in emptied)
    pool = st.sampled_from(draw(st.lists(_VECTORS, min_size=1, max_size=4)))
    return [RawSample(t, *draw(pool)) for t in times], sleep_ns, period_ns


class TestOracleProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(case=oracle_cases())
    def test_run_session_matches_offline_outcome(self, case):
        samples, sleep_ns, period_ns = case
        ref = offline_outcome(samples, sleep_ns, period_ns)
        buf = io.StringIO()
        outcome = run_session(SessionConfig(sleep_ns, period_ns), samples, event_sink=buf).outcome
        check_log_grammar(buf.getvalue())  # among others: t_ns never decreases
        assert outcome.trigger.value == ref.trigger
        assert outcome.alarm_time_ns == ref.alarm_time_ns
        assert outcome.trigger_delta == ref.trigger_delta
        band = outcome.final_thresholds
        assert (band.t_min, band.t_max) == (ref.t_min, ref.t_max)
        assert band.period_maxima == tuple(ref.learning_maxima[k] for k in sorted(ref.learning_maxima))

    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(case=oracle_cases())
    def test_block_size_changes_no_byte(self, case):
        """Blocks of 1, 2 or 3 learning samples, cut anywhere in a period, give
        the log and outcome of the default size."""
        samples, sleep_ns, period_ns = case

        def run():
            buf = io.StringIO()
            outcome = run_session(SessionConfig(sleep_ns, period_ns), samples, event_sink=buf).outcome
            return outcome, buf.getvalue()

        want = run()
        for size in (1, 2, 3):
            with mock.patch.object(engine, "_BLOCK_SIZE", size):
                assert run() == want

    # Period 10 ns, 7 learning periods: a block of a session without a sink
    # spans them all; period 2 is empty, and periods 1, 3 and 4 start with a
    # degenerate sample, which is period 4's only one.
    @example(case=([RawSample(t, *v) for t, v in [
        (0, (0.0, 0.0, 1.0)), (3, (0.6, 0.0, 0.8)), (9, (0.0, 0.0, 1.0)),
        (10, (0.0, 0.0, 0.0)), (12, (0.0, 1.0, 0.0)), (19, (0.6, 0.0, 0.8)),
        (30, (0.0, _INF, 1.0)), (31, (0.0, 0.0, 1.0)), (40, (1e-12, 0.0, 0.0)),
        (50, (0.0, 1.0, 0.0)), (55, (0.0, 0.0, 1.0)), (60, (0.6, 0.0, 0.8)),
        (61, (0.0, 0.0, 1.0)), (65, (0.6, 0.0, 0.8)), (70, (0.0, 0.0, 1.0)),
        (72, (0.6, 0.0, 0.8))]], 74, 10))
    @settings(derandomize=True, database=None, deadline=None, max_examples=100)
    @given(case=oracle_cases())
    def test_session_without_sink_decides_like_one_with_a_sink(self, case):
        """Without a sink a learning block may span periods; the outcome is that
        of a session with a sink and the oracle's, whatever the block size."""
        samples, sleep_ns, period_ns = case
        config = SessionConfig(sleep_ns, period_ns)
        ref = offline_outcome(samples, sleep_ns, period_ns)
        want = run_session(config, samples, event_sink=io.StringIO()).outcome
        assert (want.trigger.value, want.alarm_time_ns, want.trigger_delta) == \
               (ref.trigger, ref.alarm_time_ns, ref.trigger_delta)
        assert want.final_thresholds.period_maxima == tuple(
            ref.learning_maxima[k] for k in sorted(ref.learning_maxima))
        learning = [s for s in samples if s.t_ns < (-(-sleep_ns // period_ns) - 1) * period_ns]
        for size in (1, 2, 3, engine._BLOCK_SIZE):
            with mock.patch.object(engine, "_BLOCK_SIZE", size):
                assert run_session(config, samples).outcome == want
                # A repeated learning time is refused without a sink too.
                if learning:
                    at = learning[len(learning) // 2]
                    repeated = sorted(samples + [at], key=lambda s: s.t_ns)
                    with pytest.raises(SourceFailed, match="strictly increasing"):
                        run_session(config, repeated)
