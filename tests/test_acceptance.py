"""Acceptance suite: one test per criterion, at its stated tolerance.

Each test finishes by printing a single ``ACCEPTANCE <n> <name>: PASS``
line (visible with ``pytest -s`` or in captured output), so the suite
doubles as a checklist.
"""

import io
import math
import socket
import threading
import time
import wave

import numpy as np

from lightwake import (
    DEFAULT_ALARM_MELODY,
    NS_PER_S,
    RawSample,
    SessionConfig,
    SleepModelParams,
    TraceHeader,
    generate_trace,
    manhattan_delta,
    melody_to_wav,
    normalize,
    read_event_log,
    run_session,
)
from lightwake.detector import ALARM_FIRED, AlarmTrigger
from lightwake.engine import DELTA_COMPUTED
from lightwake.errors import DegenerateSample
from lightwake.motion import MAX_DELTA
from lightwake.sources import listen_live
from conftest import (
    PAPER_ALARM_DELTA,
    PAPER_ALARM_NS,
    PAPER_PERIOD_NS,
    PAPER_SLEEP_NS,
    PAPER_T_MAX,
    PAPER_T_MIN,
)
from reference import delta_sequence, offline_outcome, per_period_maxima
from test_engine import check_log_grammar

import pytest


def announce(number: int, name: str):
    print(f"\nACCEPTANCE {number} {name}: PASS")


def test_criterion_1_paper_fixture_reproduction(paper_case):
    outcome = paper_case.result.outcome
    thresholds = outcome.final_thresholds

    # The learned band and the firing delta match the reported experiment.
    assert abs(thresholds.t_min - PAPER_T_MIN) <= 1e-9
    assert abs(thresholds.t_max - PAPER_T_MAX) <= 1e-9
    assert outcome.trigger is AlarmTrigger.THRESHOLD_HIT
    assert outcome.trigger_delta is not None
    assert abs(outcome.trigger_delta - PAPER_ALARM_DELTA) <= 1e-9
    assert outcome.alarm_time_ns == PAPER_ALARM_NS

    # Brute-force oracle over the same trace agrees exactly.
    ref = offline_outcome(paper_case.samples, PAPER_SLEEP_NS, PAPER_PERIOD_NS)
    assert ref.trigger == outcome.trigger.value
    assert ref.alarm_time_ns == outcome.alarm_time_ns
    assert ref.trigger_delta == outcome.trigger_delta
    assert ref.t_min == thresholds.t_min
    assert ref.t_max == thresholds.t_max

    # Band extremes land in the reported hours: 5th period (hours 4-5) holds
    # the maximum, 6th period (hours 5-6) the minimum.
    assert abs(ref.learning_maxima[4] - PAPER_T_MAX) <= 1e-9
    assert abs(ref.learning_maxima[5] - PAPER_T_MIN) <= 1e-9

    # 1.016 is the *first* in-band final-period delta.
    t, values = delta_sequence(paper_case.samples, PAPER_SLEEP_NS)
    final_start = 7 * PAPER_PERIOD_NS
    earlier = [v for ts, v in zip(t.tolist(), values.tolist())
               if final_start <= ts < PAPER_ALARM_NS]
    assert all(not (thresholds.t_min <= v <= thresholds.t_max) for v in earlier)

    assert paper_case.elapsed_s < 10.0, f"8 h replay took {paper_case.elapsed_s:.2f}s"
    announce(1, "paper fixture reproduction")


def test_criterion_2_normalization_suite():
    rng = np.random.default_rng(1002)
    comps = rng.uniform(-5.0, 5.0, size=(10_000, 3))
    for i, (x, y, z) in enumerate(comps.tolist()):
        n = normalize(RawSample(i, x, y, z))
        assert abs(math.sqrt(sum(c * c for c in n)) - 1.0) <= 1e-9
        assert all(-1.0 <= c <= 1.0 for c in n)
        for k in (1e-3, 1.0, 1e3):
            scaled = normalize(RawSample(i, k * x, k * y, k * z))
            assert all(abs(c - b) <= 1e-9 for c, b in zip(scaled, n))
    for bad in (RawSample(0, 1e-12, 0.0, 0.0),
                RawSample(0, 3e-10, 3e-10, 3e-10),
                RawSample(0, 0.0, 0.0, 0.0)):
        with pytest.raises(DegenerateSample):
            normalize(bad)
    announce(2, "normalization suite (10,000 samples)")


def test_criterion_3_delta_bound_suite():
    rng = np.random.default_rng(1003)
    vecs = rng.normal(size=(20_000, 3))
    units = [normalize(RawSample(i, x, y, z))
             for i, (x, y, z) in enumerate(vecs.tolist())]
    for a, b in zip(units[::2], units[1::2]):
        assert 0.0 <= manhattan_delta(a, b) <= MAX_DELTA + 1e-9
    a = 1.0 / math.sqrt(3.0)
    extreme = manhattan_delta(
        normalize(RawSample(0, a, a, a)), normalize(RawSample(1, -a, -a, -a)))
    assert abs(extreme - MAX_DELTA) <= 1e-12
    announce(3, "delta bound suite (10,000 pairs)")


def _seeded_case(seed: int):
    """One of 1,000 varied sessions: rates, noise, and window geometry."""
    sleep_s = 240 + (seed % 7) * 17
    period_s = 40 + (seed % 3) * 7
    sleep_s = max(sleep_s, 2 * period_s)
    trace_s = max(30, sleep_s + (seed % 5 - 2) * 20)
    params = SleepModelParams(
        cycle_length_ns=90 * NS_PER_S * (1 + seed % 3),
        quiet_noise_sigma=(0.0, 0.003, 0.02)[seed % 3],
        burst_rate_light=(0.0, 6.0, 20.0)[seed % 3],
        burst_rate_deep=(0.0, 1.0, 5.0)[seed % 3],
        rng_seed=seed,
    )
    header = TraceHeader(sample_rate_hz=4.0, duration_ns=trace_s * NS_PER_S)
    return generate_trace(params, header), sleep_s * NS_PER_S, period_s * NS_PER_S


def test_criterion_4_oracle_equivalence_1000_traces():
    start = time.perf_counter()
    triggers = {"ThresholdHit": 0, "SessionEnd": 0}
    for seed in range(1000):
        samples, sleep_ns, period_ns = _seeded_case(seed)
        ref = offline_outcome(samples, sleep_ns, period_ns)
        outcome = run_session(SessionConfig(sleep_ns, period_ns), samples).outcome
        assert outcome.trigger.value == ref.trigger, f"seed {seed}"
        assert outcome.alarm_time_ns == ref.alarm_time_ns, f"seed {seed}"
        assert outcome.trigger_delta == ref.trigger_delta, f"seed {seed}"
        assert outcome.final_thresholds.t_min == ref.t_min, f"seed {seed}"
        assert outcome.final_thresholds.t_max == ref.t_max, f"seed {seed}"
        triggers[ref.trigger] += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"1000-trace equivalence took {elapsed:.1f}s"
    assert min(triggers.values()) > 100, f"one-sided coverage: {triggers}"
    announce(4, f"oracle equivalence on 1,000 traces ({elapsed:.1f}s, {triggers})")


def test_criterion_5_flowchart_semantics(paper_case):
    # Exactly-once alarm and ordered grammar over varied sessions.
    for seed in (0, 17, 33):
        samples, sleep_ns, period_ns = _seeded_case(seed)
        buf = io.StringIO()
        run_session(SessionConfig(sleep_ns, period_ns), samples, event_sink=buf)
        _, events = check_log_grammar(buf.getvalue())
        assert sum(e.kind == ALARM_FIRED for e in events) == 1

    # First-hit-in-band with frozen thresholds (brute scan on the fixture).
    _, events = check_log_grammar(paper_case.log_path.read_text(encoding="utf-8"))
    alarm = next(e for e in events if e.kind == ALARM_FIRED)
    ref = offline_outcome(paper_case.samples, PAPER_SLEEP_NS, PAPER_PERIOD_NS)
    assert alarm.t_ns == ref.alarm_time_ns
    assert alarm.data["value"] == ref.trigger_delta

    # SessionEnd fallback fires at exactly the sleep duration.
    quiet = [RawSample(i * 250_000_000, 0.0, 0.0, 1.0) for i in range(240)]
    lively = [RawSample(s.t_ns, s.ax + (0.4 if i % 16 == 0 else 0.0), s.ay, s.az)
              for i, s in enumerate(quiet)]
    sleep_ns, period_ns = 60 * NS_PER_S, 20 * NS_PER_S
    fallback = run_session(SessionConfig(sleep_ns, period_ns), lively).outcome
    if fallback.trigger is AlarmTrigger.SESSION_END:
        assert fallback.alarm_time_ns == sleep_ns
    empty = run_session(SessionConfig(sleep_ns, period_ns), []).outcome
    assert empty.trigger is AlarmTrigger.SESSION_END
    assert empty.alarm_time_ns == sleep_ns

    # Measurements stop at the alarm: not one sample is read past it.
    consumed = 0

    def counting():
        nonlocal consumed
        for sample in paper_case.samples:
            consumed += 1
            yield sample

    result = run_session(SessionConfig(PAPER_SLEEP_NS, PAPER_PERIOD_NS), counting())
    assert result.outcome.trigger is AlarmTrigger.THRESHOLD_HIT
    assert consumed == result.outcome.alarm_time_ns // 250_000_000 + 1
    announce(5, "flowchart semantics")


def test_criterion_6_speed_invariance_20_traces():
    for seed in range(20):
        params = SleepModelParams(rng_seed=seed)
        samples = generate_trace(params, TraceHeader(4.0, 120 * NS_PER_S))
        logs = []
        for speed in (0.0, 3600.0):
            buf = io.StringIO()
            run_session(SessionConfig(120 * NS_PER_S, 30 * NS_PER_S, speed),
                        samples, event_sink=buf)
            logs.append(buf.getvalue().encode("utf-8"))
        assert logs[0] == logs[1], f"seed {seed}"
    announce(6, "speed invariance on 20 traces")


def test_criterion_7_source_equivalence_over_tcp(paper_case):
    payload = b"".join(
        line.replace(",", " ").encode("ascii") + b"\n"
        for line in paper_case.trace_path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#") and not line.startswith("t_s")
    )
    source = listen_live(("127.0.0.1", 0), timeout=60)

    def feed():
        try:
            with socket.create_connection(source.address, timeout=30) as conn:
                conn.sendall(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # server hangs up the moment the alarm fires

    feeder = threading.Thread(target=feed)
    feeder.start()
    live_log = io.StringIO()
    try:
        live = run_session(SessionConfig(PAPER_SLEEP_NS, PAPER_PERIOD_NS), source,
                           event_sink=live_log)
    finally:
        feeder.join(timeout=30)
        source.close()

    assert live.outcome == paper_case.result.outcome
    _, live_events = check_log_grammar(live_log.getvalue())
    live_deltas = [(e.t_ns, e.data["value"]) for e in live_events if e.kind == DELTA_COMPUTED]
    _, logged = read_event_log(paper_case.log_path)
    file_deltas = [(e.t_ns, e.data["value"]) for e in logged if e.kind == DELTA_COMPUTED]
    assert live_deltas == file_deltas
    announce(7, "TCP source equivalence on the fixture trace")


def test_criterion_8_default_melody_wav(tmp_path):
    paths = [tmp_path / "a.wav", tmp_path / "b.wav"]
    for path in paths:
        melody_to_wav(DEFAULT_ALARM_MELODY, path)
    assert paths[0].read_bytes() == paths[1].read_bytes()
    with wave.open(str(paths[0]), "rb") as fh:
        assert fh.getnchannels() == 1
        assert fh.getsampwidth() == 2
        rate = fh.getframerate()
        duration = fh.getnframes() / rate
    assert abs(duration - DEFAULT_ALARM_MELODY.total_ms() / 1000.0) <= 1.0 / rate
    announce(8, "default alarm WAV")


def test_criterion_9_chart_export(paper_case, tmp_path):
    from lightwake import export_period_charts
    from lightwake.sources import seconds_to_ns

    out = tmp_path / "charts"
    written = export_period_charts(paper_case.log_path, out)
    assert sorted(p.name for p in written) == sorted(
        [f"period_{k}.csv" for k in range(8)] + ["summary.csv"])

    oracle_maxima = per_period_maxima(paper_case.samples, PAPER_SLEEP_NS,
                                      PAPER_PERIOD_NS)
    charted: dict[int, float] = {}
    for k in range(8):
        rows = (out / f"period_{k}.csv").read_text(encoding="utf-8").splitlines()[1:]
        for row in rows:
            _, value = row.split(",")
            value = float(value)
            charted[k] = max(charted.get(k, 0.0), value)
    for k in range(7):
        assert charted[k] == oracle_maxima[k], f"period {k}"

    summary = dict(
        row.split(",", 1)
        for row in (out / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
    )
    assert abs(float(summary["t_min"]) - PAPER_T_MIN) <= 1e-9
    assert abs(float(summary["t_max"]) - PAPER_T_MAX) <= 1e-9
    assert abs(float(summary["alarm_delta"]) - PAPER_ALARM_DELTA) <= 1e-9
    assert summary["alarm_trigger"] == "ThresholdHit"
    assert seconds_to_ns(summary["alarm_t_s"]) == PAPER_ALARM_NS
    announce(9, "chart export with paper values")
