import dataclasses
import io
import json
import math
import time
import tracemalloc
import types
from itertools import accumulate, count
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
    THRESHOLDS_UPDATED,
    AlarmTrigger,
    Detector,
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
from lightwake import sources
from lightwake.motion import block_deltas, sample_block
from lightwake.sources import read_trace, read_trace_blocks, write_trace
from reference import offline_log, offline_outcome
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
    # The band is logged only at a period boundary, right after its PeriodClosed.
    for i, e in enumerate(events):
        if e.kind == THRESHOLDS_UPDATED:
            assert events[i - 1].kind == PERIOD_CLOSED and events[i - 1].t_ns == e.t_ns
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
        # A session whose first sample is already in the final period: the band is empty.
        buf = io.StringIO()
        result = run_session(SessionConfig(3 * P, P), quiescent_samples(3 * 60 * 4)[2 * 60 * 4:],
                             event_sink=buf)
        assert result.outcome.trigger is AlarmTrigger.SESSION_END
        assert result.outcome.alarm_time_ns == 3 * P
        assert result.outcome.final_thresholds.period_maxima == ()
        assert result.outcome.final_thresholds.t_min is None
        _, events = check_log_grammar(buf.getvalue())
        assert [(e.t_ns, e.kind) for e in events[:4]] == [
            (P, PERIOD_CLOSED), (2 * P, PERIOD_CLOSED), (2 * P, FINAL_PERIOD_ENTERED),
            (2 * P, SAMPLE_ACCEPTED)]
        assert [e.kind for e in events].count(DELTA_COMPUTED) == 60 * 4 - 1
        assert not any(e.kind == THRESHOLDS_UPDATED for e in events)

    def test_final_period_moves_the_clock_only_at_boundaries(self):
        """advance_to runs once per period boundary and once in finalize, not per sample."""
        _, samples = scripted_trace([0.5, 0.6], [1.9, 1.8], period_s=60, rate_hz=50.0)
        for sink in (None, io.StringIO()):
            with mock.patch.object(Detector, "advance_to", autospec=True,
                                   side_effect=Detector.advance_to) as advance_to:
                result = run_session(SessionConfig(3 * P, P), samples, event_sink=sink)
            assert result.outcome.trigger is AlarmTrigger.SESSION_END  # 3,000 final deltas
            assert advance_to.call_count <= 2 + 1  # the boundaries at P and 2 P, then finalize

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
        # Still learning periods, then a final period that turns 90 degrees at every sample:
        # no delta is in the band [0, 0] unless a skipped sample bridges two of one direction.
        turning = quiescent_samples(3 * 60 * 4)
        for i in range(2 * 60 * 4, len(turning), 2):
            turning[i] = RawSample(turning[i].t_ns, 0.0, 1.0, 0.0)
        # A learning sample, the first final-period sample and one in the middle of the final period.
        for index, alarm_index in ((10, None), (480, 481), (600, 601)):
            samples = list(turning)
            samples[index] = RawSample(samples[index].t_ns, 0.0, 0.0, 0.0)
            buf = io.StringIO()
            result = run_session(SessionConfig(3 * P, P), samples, event_sink=buf)
            _, events = check_log_grammar(buf.getvalue())
            skipped = [e for e in events if e.kind == SAMPLE_SKIPPED]
            assert len(skipped) == 1
            assert skipped[0].t_ns == samples[index].t_ns
            assert skipped[0].data["reason"] == "degenerate"
            # The delta at the skipped slot is bridged, not fabricated.
            deltas = [e for e in events if e.kind == DELTA_COMPUTED]
            assert all(e.t_ns != samples[index].t_ns for e in deltas)
            ref = offline_outcome(samples, 3 * P, P)
            assert result.outcome.trigger.value == ref.trigger
            assert result.outcome.alarm_time_ns == ref.alarm_time_ns
            assert result.outcome.alarm_time_ns == (3 * P if alarm_index is None
                                                    else samples[alarm_index].t_ns)


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
            SAMPLE_ACCEPTED, DELTA_COMPUTED]

    @pytest.mark.parametrize("error", [OSError("connection reset"), RuntimeError("bug in the source")])
    def test_error_after_blocks_flushes_the_log_of_the_samples_read(self, error):
        # 30-minute periods at 4 Hz: 5,000 learning samples fill more than one block, and
        # 8,000 stop inside the final period, which starts at sample 7,200 and never fires.
        trace = generate_trace(SleepModelParams(rng_seed=4), TraceHeader(4.0, HOUR_NS))
        assert 5000 > engine._BLOCK_SIZE
        config = SessionConfig(HOUR_NS, HOUR_NS // 2)
        for samples in (trace[:5000], trace[:8000]):

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

    def test_boundary_records_are_flushed_before_any_later_line(self):
        """A tailed log is current up to its last boundary: every record the
        detector writes at a period boundary is flushed before a line of a
        later time is written."""
        samples = generate_trace(SleepModelParams(rng_seed=4), TraceHeader(4.0, HOUR_NS))
        # 20-minute periods at 4 Hz: 4,800 samples, more than one learning block each.
        period_ns = HOUR_NS // 3
        sink = FlushRecorder()
        run_session(SessionConfig(HOUR_NS, period_ns), samples, event_sink=sink)
        header, *lines = sink.getvalue().splitlines(keepends=True)
        ends = list(accumulate(map(len, lines), initial=len(header)))
        records = [json.loads(line) for line in lines]
        at_boundaries = [i for i, r in enumerate(records) if r["t_ns"] % period_ns == 0
                         and r["kind"] in (PERIOD_CLOSED, THRESHOLDS_UPDATED, FINAL_PERIOD_ENTERED)]
        assert len(at_boundaries) >= 2 + 2  # both closes, a band at each, the final period's entry
        for i in at_boundaries:
            later = next((j for j in range(i + 1, len(lines)) if records[j]["t_ns"] > records[i]["t_ns"]),
                         len(lines))
            assert any(ends[i + 1] <= end <= ends[later] for end in sink.flushes), lines[i]

    def test_boundary_is_flushed_before_a_later_sample_is_read(self):
        """A log tailed while a live source streams is current up to its last
        boundary: a period's PeriodClosed is flushed once the first sample past
        it is read, before the source is asked for the next."""
        samples = quiescent_samples(12, P // 2)  # two samples a period
        read = []

        def live():
            for sample in samples:
                read.append(sample.t_ns)
                yield sample

        class Sink(io.StringIO):
            def flush(self):
                flushed.append((self.getvalue().count(PERIOD_CLOSED), len(read)))

        for block_size in (2, engine._BLOCK_SIZE):
            read, flushed = [], []
            with mock.patch.object(engine, "_BLOCK_SIZE", block_size):
                run_session(SessionConfig(6 * P, P), live(), event_sink=Sink())
            # Period k closes at sample 2 (k + 1), the (2 k + 3)th read.
            for closed in range(1, 6):
                assert (closed, 2 * closed + 1) in flushed, flushed

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
            # A PeriodClosed and at most one ThresholdsUpdated per learning period,
            # FinalPeriodEntered, SessionEnded and the flush as the session stops.
            assert len(sink.flushes) <= 2 * 7 + 3
            assert sink.flushes[-1] == len(text)
            lines = text.splitlines(keepends=True)
            line_end = len(lines[0])
            for line in lines[1:]:
                line_end += len(line)
                if json.loads(line)["kind"] in (PERIOD_CLOSED, THRESHOLDS_UPDATED, FINAL_PERIOD_ENTERED):
                    assert line_end in sink.flushes
        assert triggers == {AlarmTrigger.THRESHOLD_HIT, AlarmTrigger.SESSION_END}

    def test_non_monotone_custom_source_detected(self):
        # The last repeats a time inside the final period, after a delta there.
        for times in ([0, 0], [0, 2 * NS, 1 * NS], [-1], [0, 2 * P + NS, 2 * P + 2 * NS, 2 * P + 2 * NS]):
            samples = [RawSample(t, 0.0, 0.0, 1.0) for t in times]
            messages = set()
            # As samples, as one block, and as a block a sample.
            for source in (samples, [sample_block(samples)], [sample_block([s]) for s in samples]):
                with pytest.raises(SourceFailed, match="strictly increasing") as failed:
                    run_session(SessionConfig(3 * P, P), source)
                messages.add(str(failed.value))
            assert len(messages) == 1, messages  # one text, naming the same pair of times

    def test_sink_error_is_not_a_source_failure(self):
        """A sink that fails to write stops the session with its own OSError, whatever
        the source's kind, and what was written before it is flushed."""

        class FullDisk(FlushRecorder):
            writes = 0

            def write(self, text):
                if self.writes == 3:  # the header and two more
                    raise OSError(28, "No space left on device")
                self.writes += 1
                return super().write(text)

        samples = generate_trace(SleepModelParams(rng_seed=4), TraceHeader(4.0, HOUR_NS))
        for source in (samples, [sample_block(samples)], [sample_block(samples[i:i + 900])
                                                          for i in range(0, len(samples), 900)]):
            sink = FullDisk()
            with pytest.raises(OSError, match="No space left") as failed:
                run_session(SessionConfig(HOUR_NS, HOUR_NS // 3), source, event_sink=sink)
            assert not isinstance(failed.value, SourceFailed)
            assert sink.getvalue() and sink.flushes[-1] == len(sink.getvalue())

    def test_source_closed_on_alarm(self):
        closed = []

        class Closable:
            def __iter__(self):
                return iter(quiescent_samples(3 * 60 * 4))

            def close(self):
                closed.append(True)

        run_session(SessionConfig(3 * P, P), Closable())
        assert closed == [True]


def _kind_case(name):
    """(samples, config, expected) of a case the source kinds must agree on; expected is the
    outcome's trigger, or the SourceFailed text."""
    hit = generate_trace(SleepModelParams(rng_seed=2), TraceHeader(4.0, 260 * NS))  # alarm at 210.5 s
    still = generate_trace(SleepModelParams(rng_seed=0), TraceHeader(4.0, 260 * NS))  # no alarm
    config = SessionConfig(4 * P, P)

    def moved(samples, i, t_ns):  # row i at t_ns instead
        return samples[:i] + [RawSample(t_ns, samples[i].ax, samples[i].ay, samples[i].az)] + samples[i + 1:]

    if name == "learning row out of order":
        return moved(hit, 300, hit[299].t_ns), config, engine._ORDER % (hit[299].t_ns, hit[299].t_ns)
    if name == "row out of order after the alarm":
        return moved(hit, 845, hit[843].t_ns), config, AlarmTrigger.THRESHOLD_HIT
    if name == "row out of order after the final period's first":
        return moved(hit, 721, 3 * P), config, engine._ORDER % (3 * P, 3 * P)
    if name == "final-period row among learning rows":  # so the final period starts at row 300
        return moved(hit, 300, 3 * P + NS), config, engine._ORDER % (hit[301].t_ns, 3 * P + NS)
    if name == "degenerate rows":
        zero, nan = (0.0, 0.0, 0.0), (math.nan, 0.0, 1.0)
        for i, vector in ((0, zero), (240, zero), (241, nan), (500, zero), (720, zero), (721, nan)):
            hit = hit[:i] + [RawSample(hit[i].t_ns, *vector)] + hit[i + 1:]
        return hit, config, AlarmTrigger.THRESHOLD_HIT
    if name == "rows past sleep_ns":
        return still, config, AlarmTrigger.SESSION_END
    if name == "empty":
        return [], config, AlarmTrigger.SESSION_END
    if name == "first row in the final period":
        return [s for s in still if s.t_ns >= 3 * P], config, AlarmTrigger.SESSION_END
    if name == "final-period rows ending a list's first slice":  # read on from there, not from row 5120
        samples = generate_trace(SleepModelParams(rng_seed=2), TraceHeader(4.0, 2000 * NS))
        for i in range(4090, 4096):  # at 1280 s + 1-6 ns, before rows 4096-5119 from 1024 s on
            samples = moved(samples, i, 1280 * NS + i - 4089)
        return samples, SessionConfig(1920 * NS, 640 * NS), engine._ORDER % (1024 * NS, 1280 * NS + 6)
    assert name == "final period at row 4096"  # 4,096 rows at 4 Hz are 1,024 s
    samples = generate_trace(SleepModelParams(rng_seed=2), TraceHeader(4.0, 1100 * NS))
    assert samples[engine._BLOCK_SIZE].t_ns == 1024 * NS > samples[engine._BLOCK_SIZE - 1].t_ns
    return samples, SessionConfig(1536 * NS, 512 * NS), AlarmTrigger.SESSION_END


class TestSourceKinds:
    @pytest.mark.parametrize("case", [
        "learning row out of order", "row out of order after the alarm",
        "row out of order after the final period's first", "final-period row among learning rows",
        "degenerate rows", "rows past sleep_ns",
        "empty", "first row in the final period", "final period at row 4096",
        "final-period rows ending a list's first slice"])
    def test_every_source_kind_logs_and_decides_alike(self, case):
        """The same samples as a list, a tuple, a generator, Blocks of 1, 7 and 4,096 rows and
        one Block, and paced as a list, a generator and Blocks of 7, give the same log bytes,
        flush points, and outcome or SourceFailed text."""
        samples, config, expected = _kind_case(case)
        blocks_of = {size: [sample_block(samples[i:i + size]) for i in range(0, len(samples), size)]
                     for size in (1, 7, engine._BLOCK_SIZE)}
        paced = dataclasses.replace(config, speed=1e6)
        sources_of_kind = {"list": (config, samples), "tuple": (config, tuple(samples)),
                           "generator": (config, (s for s in samples)),
                           "one Block": (config, [sample_block(samples)]),
                           "paced list": (paced, samples), "paced generator": (paced, (s for s in samples)),
                           "paced Blocks of 7": (paced, blocks_of[7])}
        for size, blocks in blocks_of.items():
            sources_of_kind[f"Blocks of {size}"] = config, blocks
        results = {}
        for kind, (kind_config, source) in sources_of_kind.items():
            sink = FlushRecorder()
            try:
                outcome = run_session(kind_config, source, event_sink=sink).outcome
            except SourceFailed as exc:
                outcome = str(exc)
            results[kind] = sink.getvalue(), sink.flushes, outcome
        want = results["list"]
        assert {kind for kind, got in results.items() if got != want} == set()
        text, flushes, outcome = want
        assert flushes[-1] == len(text) and text.count("\n") > 1
        assert (outcome if isinstance(outcome, str) else outcome.trigger) == expected

    @pytest.mark.parametrize("size", [1, 7, engine._BLOCK_SIZE])
    def test_blocks_are_read_up_to_the_one_holding_the_alarm_row(self, size):
        """A source of Blocks is read no further than the Block that holds the alarm's row."""
        samples = generate_trace(SleepModelParams(rng_seed=2), TraceHeader(4.0, 260 * NS))
        read = 0

        def blocks():
            nonlocal read
            for i in range(0, len(samples), size):
                read += 1
                yield sample_block(samples[i:i + size])

        outcome = run_session(SessionConfig(4 * P, P), blocks()).outcome
        assert outcome.trigger is AlarmTrigger.THRESHOLD_HIT
        alarm_row = [s.t_ns for s in samples].index(outcome.alarm_time_ns)
        assert alarm_row == 842  # at 210.5 s
        assert read == alarm_row // size + 1

    def test_order_error_in_a_held_batch_comes_before_a_later_source_error(self):
        """A generator that yields a learning pair out of order, then fails before that
        pair's batch is due, gives the order error and the log of the list of its rows."""
        samples, config, expected = _kind_case("learning row out of order")
        rows = samples[:310]  # past the pair at rows 299 and 300, before period 1 ends at row 480

        def failing():
            yield from rows
            raise OSError(5, "Input/output error")

        results = []
        for source in (rows, failing()):
            sink = FlushRecorder()
            with pytest.raises(SourceFailed) as failed:
                run_session(config, source, event_sink=sink)
            results.append((sink.getvalue(), sink.flushes, str(failed.value)))
        assert results[1] == results[0]
        assert results[0][2] == expected

    def test_a_batched_pair_out_of_order_is_refused_at_the_next_period_with_or_without_a_sink(self):
        """A generator's learning pair out of order is refused when its batch ends, after the
        first sample of the next period, whether or not there is a sink."""
        times = [i * 10 * NS for i in range(18)]  # three one-minute periods, a sample every 10 s
        times[3] = times[2]  # the sample at 30 s repeats the time 20 s
        for sink in (io.StringIO(), None):
            read = 0

            def samples():
                nonlocal read
                for t_ns in times:
                    read += 1
                    yield RawSample(t_ns, 0.0, 0.0, 1.0)

            with pytest.raises(SourceFailed, match=f"{20 * NS} ns after {20 * NS} ns"):
                run_session(SessionConfig(3 * P, P), samples(), event_sink=sink)
            assert read == 7  # through the sample at 60 s, the first of period 1

    @pytest.mark.parametrize("component", [None, "1.0"])
    @pytest.mark.parametrize("row", [100, 800], ids=["learning", "final period"])
    def test_a_component_that_is_not_a_number_is_refused_in_every_period(self, component, row):
        """A RawSample component that is not a real number raises TypeError wherever it is
        read: in learning, where sample_block refuses it, as in the final period."""
        samples, config, _ = _kind_case("rows past sleep_ns")  # no alarm: every row is read
        assert (row < 720) == (samples[row].t_ns < 3 * P)  # the final period starts at row 720
        samples[row] = dataclasses.replace(samples[row], ay=component)
        for kind_config, source in ((config, samples), (config, iter(samples)),
                                    (dataclasses.replace(config, speed=1e6), samples)):
            with pytest.raises(TypeError):
                run_session(kind_config, source, event_sink=io.StringIO())


class TestVirtualClock:
    def test_real_time_pacing(self):
        dt = 250_000_000
        samples = [RawSample(0, 0.0, 0.0, 1.0), RawSample(dt, 0.0, 0.0, 1.0)]
        config = SessionConfig(2 * dt, dt, speed=1.0)
        start = time.perf_counter()
        run_session(config, samples)
        elapsed = time.perf_counter() - start
        assert 0.2 <= elapsed <= 2.0  # 250 ms nominal, host scheduler slack

    def test_paced_blocks_are_read_row_by_row(self):
        """Paced, learning rows are paced too, a Block's as RawSamples': period 0 is
        closed when its end comes, and its PeriodClosed is flushed then."""
        dt = 100_000_000
        samples = quiescent_samples(4, dt)

        class Sink(io.StringIO):
            def flush(self):
                closes.append((time.monotonic(), PERIOD_CLOSED in self.getvalue()))

        for source in ([sample_block(samples)], samples):
            closes = []
            start = time.monotonic()
            run_session(SessionConfig(4 * dt, dt, speed=1.0), source, event_sink=Sink())
            assert next(t for t, closed in closes if closed) - start >= 0.09

    def test_a_session_behind_its_clock_does_not_sleep(self, monkeypatch):
        """Paced, a sample whose time has passed is given at once, with no time.sleep call,
        and the session logs and decides as unpaced."""
        samples, config, _ = _kind_case("degenerate rows")
        want = FlushRecorder()
        outcome = run_session(config, samples, event_sink=want).outcome
        clock, sleeps = count(0.0, 1e6), []  # a million seconds pass between readings
        monkeypatch.setattr(engine, "time", types.SimpleNamespace(monotonic=clock.__next__,
                                                                  sleep=sleeps.append))
        paced = dataclasses.replace(config, speed=1.0)
        for source in (samples, (s for s in samples), [sample_block(samples)]):
            sink = FlushRecorder()
            assert run_session(paced, source, event_sink=sink).outcome == outcome
            assert (sink.getvalue(), sink.flushes) == (want.getvalue(), want.flushes)
        assert sleeps == []

    def test_pacing_waits_for_no_sample_past_the_session_end(self):
        """A sample at or past the session end is not decided, so pacing does not wait for it."""
        dt = 100_000_000
        # Nothing in the final period fires the alarm, so the session reads the last sample.
        samples = quiescent_samples(2, dt) + [RawSample(4 * dt + 100 * NS, 0.0, 0.0, 1.0)]
        for source in (samples, [sample_block(samples)]):
            start = time.monotonic()
            run_session(SessionConfig(4 * dt, dt, speed=1.0), source, event_sink=io.StringIO())
            assert time.monotonic() - start < 2.0

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
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(case=oracle_cases())
    def test_log_replays_to_its_own_decision_records(self, case):
        """The log explains itself: a fresh Detector fed only the log's DeltaComputed
        records, then finalize if none fired, writes exactly the log's decision records."""
        samples, sleep_ns, period_ns = case
        buf = io.StringIO()
        run_session(SessionConfig(sleep_ns, period_ns), samples, event_sink=buf)
        _, events = check_log_grammar(buf.getvalue())
        replayed = []
        detector = Detector(sleep_ns, period_ns,
                            emit=lambda t_ns, kind, **data: replayed.append(SessionEvent(t_ns, kind, data)))
        if not any(detector.ingest(e.t_ns, e.data["value"]) for e in events if e.kind == DELTA_COMPUTED):
            detector.finalize()
        decisions = (PERIOD_CLOSED, THRESHOLDS_UPDATED, FINAL_PERIOD_ENTERED, ALARM_FIRED)
        assert replayed == [e for e in events if e.kind in decisions]

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(case=oracle_cases(), size=st.integers(1, 8))
    def test_log_is_the_offline_log(self, case, size):
        """The audit trail is the oracle's: run_session's log equals offline_log byte for byte,
        from a list, from Blocks of size rows and from a generator paced at speed 1e6."""
        samples, sleep_ns, period_ns = case
        want = offline_log(samples, sleep_ns, period_ns)
        blocks = [sample_block(samples[i:i + size]) for i in range(0, len(samples), size)]
        for speed, source in ((0.0, samples), (0.0, blocks), (1e6, (s for s in samples))):
            buf = io.StringIO()
            run_session(SessionConfig(sleep_ns, period_ns, speed), source, event_sink=buf)
            assert buf.getvalue() == want, (speed, type(source))

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
        the log and outcome of the default size, from the list and from an iterator."""
        samples, sleep_ns, period_ns = case

        def run(source):
            buf = io.StringIO()
            outcome = run_session(SessionConfig(sleep_ns, period_ns), source, event_sink=buf).outcome
            return outcome, buf.getvalue()

        want = run(samples)
        for size in (1, 2, 3):
            with mock.patch.object(engine, "_BLOCK_SIZE", size):
                assert run(samples) == want
                assert run(iter(samples)) == want

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


def stretched_session(rng):
    """(samples, sleep_ns, period_ns): rows in stretches of one kind each, a repeated vector
    (a run of all-zero deltas), fresh vectors, or one degenerate row, which splits a run, so a
    kept row between two degenerate ones is a one-delta run."""
    period_ns = int(rng.integers(5, 60))
    sleep_ns = int(rng.integers(2, 6)) * period_ns + int(rng.integers(0, period_ns))
    times = accumulate(rng.integers(1, 4, size=sleep_ns + period_ns).tolist())
    degenerate = [(0.0, 0.0, 0.0), (1e-12, 0.0, 0.0), (_NAN, 0.0, 1.0), (0.0, _INF, 1.0)]
    rows = []
    while len(rows) < sleep_ns // 2 + period_ns:
        kind = int(rng.integers(3))
        if kind == 0:
            rows += [tuple(rng.uniform(-2.0, 2.0, size=3).tolist())] * int(rng.integers(1, 9))
        elif kind == 1:
            rows += map(tuple, rng.uniform(-2.0, 2.0, size=(int(rng.integers(1, 4)), 3)).tolist())
        else:
            rows.append(degenerate[int(rng.integers(len(degenerate)))])
    return [RawSample(t, *row) for t, row in zip(times, rows)], sleep_ns, period_ns


def _hex(value):
    return None if value is None else float.hex(value)


class TestRunsWithoutASink:
    def test_runs_decide_bit_for_bit_with_and_without_a_sink(self):
        """Without a sink a learning run reaches the detector as (first, last, max) and builds no
        list of its deltas; at any block size, from a list or an iterator, the outcome is the one
        with a sink and the oracle's, its band and trigger delta equal by float.hex."""
        rng = np.random.default_rng(2027)
        zero_deltas = one_delta_runs = 0
        for _ in range(60):
            samples, sleep_ns, period_ns = stretched_session(rng)
            config = SessionConfig(sleep_ns, period_ns)
            ref = offline_outcome(samples, sleep_ns, period_ns)
            want = (ref.trigger, ref.alarm_time_ns, _hex(ref.trigger_delta), _hex(ref.t_min),
                    _hex(ref.t_max), tuple(_hex(ref.learning_maxima[k]) for k in sorted(ref.learning_maxima)))

            def key(source, sink):
                outcome = run_session(config, source, event_sink=sink).outcome
                band = outcome.final_thresholds
                return (outcome.trigger.value, outcome.alarm_time_ns, _hex(outcome.trigger_delta),
                        _hex(band.t_min), _hex(band.t_max), tuple(map(_hex, band.period_maxima)))

            for size in (1, 2, 3, engine._BLOCK_SIZE):
                with mock.patch.object(engine, "_BLOCK_SIZE", size):
                    for source in (lambda: samples, lambda: iter(samples)):
                        assert key(source(), io.StringIO()) == key(source(), None) == want
            # What the learning rows held, from the log: zero deltas and runs of one delta.
            log = io.StringIO()
            run_session(config, samples, event_sink=log)
            final_ns = (-(-sleep_ns // period_ns) - 1) * period_ns
            kinds = [(e["kind"], e.get("value")) for e in map(json.loads, log.getvalue().splitlines()[1:])
                     if e["t_ns"] < final_ns]
            zero_deltas += kinds.count((DELTA_COMPUTED, 0.0))
            one_delta_runs += sum(a[0] == c[0] == SAMPLE_SKIPPED and b[0] == DELTA_COMPUTED
                                  for a, b, c in zip(kinds, kinds[1:], kinds[2:]))
        assert zero_deltas > 100 and one_delta_runs > 10


# -- trace blocks against their samples -------------------------------------------

def loose_trace(path, samples):
    """Write a trace of the samples that is read row by row: CRLF line ends,
    padded fields, and each t_ns written as that many milliseconds, with 3 decimals."""
    rows = "".join(f" {s.t_ns // 1000}.{s.t_ns % 1000:03d} , {s.ax!r},  {s.ay!r} ,{s.az!r}\r\n"
                   for s in samples)
    path.write_text("t_s,ax_g,ay_g,az_g\r\n" + rows, encoding="utf-8", newline="")


@pytest.fixture(scope="module")
def block_trace(tmp_path_factory):
    return tmp_path_factory.mktemp("blocks") / "trace.csv"


class TestTraceBlocks:
    @settings(derandomize=True, database=None, deadline=None, max_examples=60)
    @given(case=oracle_cases(), loose=st.booleans())
    def test_blocks_decide_like_their_samples(self, block_trace, case, loose):
        """run_session over the reader's Blocks logs and decides as over read_trace's
        samples: at any reader block size, paced or not, with a sink or without."""
        samples, sleep_ns, period_ns = case
        # A vector that is not finite cannot be written; the zero vector is degenerate too.
        samples = [s if all(map(math.isfinite, (s.ax, s.ay, s.az))) else RawSample(s.t_ns, 0.0, 0.0, 0.0)
                   for s in samples]
        scale = 10**6 if loose else 1
        if loose:
            loose_trace(block_trace, samples)
        else:
            write_trace(block_trace, TraceHeader(), samples)

        def run(config, source):
            buf = io.StringIO()
            return run_session(config, source, event_sink=buf).outcome, buf.getvalue()

        for block_bytes in (1, 64, sources._BLOCK_BYTES):
            with mock.patch.object(sources, "_BLOCK_BYTES", block_bytes):
                blocks, rows = read_trace_blocks(block_trace)[1], read_trace(block_trace)[1]
            assert [s.t_ns for s in rows] == [s.t_ns * scale for s in samples]
            assert block_bytes > 1 or len(blocks) == len(rows)
            for speed in (0.0, 1e6):
                config = SessionConfig(sleep_ns * scale, period_ns * scale, speed)
                assert run(config, blocks) == run(config, rows)
                assert run_session(config, blocks).outcome == run_session(config, rows).outcome
