"""Where the traced run wraps lightwake, and how spans become per-layer metrics.

The layers are the package modules ``sources``, ``motion``, ``detector``,
``engine``, ``sinks`` and ``cli``. Every wrapped function is named
``<module>.<function>`` after the module that defines it, whichever binding
the wrapper sits on. ``PER_LAYER`` lists every metric the traced run
reports, with its unit and better direction; ``BENCHMARK.json`` mirrors it.
A layer that a workload never runs reports 0.
"""

from __future__ import annotations

import statistics
from typing import Any, Callable, Iterable

from spans import Tracer

# name: (unit, better)
PER_LAYER: dict[str, tuple[str, str]] = {
    "sources.generate_trace.us_per_sample": ("us", "lower"),
    "sources.write_trace.us_per_sample": ("us", "lower"),
    "sources.read_trace.us_per_sample": ("us", "lower"),
    "sources.LiveSource.next.us_per_sample": ("us", "lower"),
    "motion.normalize.us_per_call": ("us", "lower"),
    "motion.manhattan_delta.us_per_call": ("us", "lower"),
    "motion.normalize.calls": ("count", "lower"),
    "motion.skipped": ("count", "lower"),
    "detector.ingest.us_per_call": ("us", "lower"),
    "detector.advance_to.us_per_call": ("us", "lower"),
    "detector.advance_to.calls": ("count", "lower"),
    "detector.advance_to.useful_ratio": ("ratio", "higher"),
    "engine.run_session.self_us_per_sample": ("us", "lower"),
    "engine.EventLog.emit.us_per_event": ("us", "lower"),
    "engine.SessionEvent.to_json.us_per_event": ("us", "lower"),
    "engine.sink_write.us_per_event": ("us", "lower"),
    "engine.events": ("count", "lower"),
    "engine.events_per_sample": ("ratio", "lower"),
    "engine.log_bytes": ("bytes", "lower"),
    "engine.retained_mb": ("MB", "lower"),
    "sinks.read_event_log.us_per_event": ("us", "lower"),
    "sinks.export_period_charts.self_s": ("s", "lower"),
    "sinks.melody_to_wav.ms": ("ms", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "reference.offline_outcome.us_per_sample": ("us", "lower"),
    "layer.sources.self_s": ("s", "lower"),
    "layer.motion.self_s": ("s", "lower"),
    "layer.detector.self_s": ("s", "lower"),
    "layer.engine.self_s": ("s", "lower"),
    "layer.sinks.self_s": ("s", "lower"),
    "layer.cli.self_s": ("s", "lower"),
    "trace.instrumentation_s": ("s", "lower"),
    "trace.unattributed_s": ("s", "lower"),
    "trace.wall_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}

LAYERS = ("sources", "motion", "detector", "engine", "sinks", "cli")


def counted(source: Iterable, box: list[int]):
    """Yield from source, counting samples handed out in box[0].

    Closing this generator closes the source, as run_session would have.
    """
    iterator = iter(source)
    try:
        for sample in iterator:
            box[0] += 1
            yield sample
    finally:
        closer = getattr(iterator, "close", None) or getattr(source, "close", None)
        if closer is not None:
            closer()


class _TracedSink:
    """File stand-in whose write and flush are spans named engine.sink_write."""

    __slots__ = ("write", "flush")

    def __init__(self, sink: Any, tracer: Tracer):
        def write(text: str) -> int:
            tracer.counters["engine.log_bytes"] += len(text)
            return sink.write(text)

        self.write = tracer.recorder("engine.sink_write", write)
        self.flush = tracer.recorder("engine.sink_write", sink.flush)


def install(tracer: Tracer) -> None:
    """Wrap every layer function at each binding lightwake or the benchmark calls."""
    from lightwake import cli, detector, engine, sinks, sources
    from lightwake.errors import DegenerateSample

    count = tracer.count

    def counter(key: str, size: Callable[[tuple, Any], int]) -> Callable[[tuple, Any], None]:
        return lambda args, result: count(key, size(args, result))

    tracer.wrap(cli, "main", "cli.main")
    for owner in (cli, sources):
        tracer.wrap(owner, "generate_trace", "sources.generate_trace",
                    on_result=counter("sources.generate_trace.samples", lambda a, r: len(r)))
        tracer.wrap(owner, "write_trace", "sources.write_trace",
                    on_result=counter("sources.write_trace.samples", lambda a, r: len(a[2])))
        tracer.wrap(owner, "read_trace", "sources.read_trace",
                    on_result=counter("sources.read_trace.samples", lambda a, r: len(r[1])))

    def stream_end(exc: BaseException) -> None:
        if isinstance(exc, StopIteration):
            count("sources.LiveSource.next.ends")

    tracer.wrap(sources.LiveSource, "__next__", "sources.LiveSource.next", on_error=stream_end)

    def skipped(exc: BaseException) -> None:
        if isinstance(exc, DegenerateSample):
            count("motion.skipped")

    tracer.wrap(engine, "normalize", "motion.normalize", on_error=skipped)
    tracer.wrap(engine, "manhattan_delta", "motion.manhattan_delta")

    def useful(args: tuple, advance: Any) -> None:
        if advance.closes or advance.final_entry_ns is not None:
            count("detector.advance_to.useful")

    tracer.wrap(detector.Detector, "advance_to", "detector.advance_to", on_result=useful)
    tracer.wrap(detector.Detector, "ingest", "detector.ingest")
    tracer.wrap(engine.EventLog, "emit", "engine.EventLog.emit")
    tracer.wrap(engine.SessionEvent, "to_json", "engine.SessionEvent.to_json")

    def traced_session(run_session: Callable) -> Callable:
        recorded = tracer.recorder("engine.run_session", run_session)

        def wrapper(config, source, **kwargs):
            if kwargs.get("event_sink") is not None:
                kwargs["event_sink"] = _TracedSink(kwargs["event_sink"], tracer)
            box = [0]
            try:
                return recorded(config, counted(source, box), **kwargs)
            finally:
                count("engine.run_session.samples", box[0])

        return wrapper

    for owner in (cli, engine):
        tracer.patch(owner, "run_session", traced_session)
    for owner in (cli, sinks):
        tracer.wrap(owner, "export_period_charts", "sinks.export_period_charts")
        tracer.wrap(owner, "melody_to_wav", "sinks.melody_to_wav")
    tracer.wrap(sinks, "read_event_log", "sinks.read_event_log",
                on_result=counter("sinks.read_event_log.events", lambda a, r: len(r[1])))


def per_layer_metrics(setup: Tracer, traced: Tracer, traced_walls: list[float],
                      untraced_wall: float, retained_mb: float,
                      oracle_us_per_sample: float) -> dict[str, float]:
    """Turn the spans of the traced set-up and traced iterations into PER_LAYER.

    Counts and layer totals are per traced iteration; times per call,
    sample or event are ratios of totals.
    """
    spans: dict[str, dict[str, float]] = {}
    for part in (setup.summary(), traced.summary()):
        for name, row in part.items():
            into = spans.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            for key, value in row.items():
                into[key] += value
    counters: dict[str, float] = {}
    for part in (setup.counters, traced.counters):
        for key, value in part.items():
            counters[key] = counters.get(key, 0.0) + value

    def span(name: str, key: str) -> float:
        return spans.get(name, {}).get(key, 0.0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    n_iter = len(traced_walls)
    samples = counters.get("engine.run_session.samples", 0.0)
    events = span("engine.EventLog.emit", "calls")
    live_samples = span("sources.LiveSource.next", "calls") - counters.get("sources.LiveSource.next.ends", 0.0)
    us = 1e6
    m = {
        "sources.generate_trace.us_per_sample":
            us * ratio(span("sources.generate_trace", "total_s"), counters.get("sources.generate_trace.samples", 0)),
        "sources.write_trace.us_per_sample":
            us * ratio(span("sources.write_trace", "total_s"), counters.get("sources.write_trace.samples", 0)),
        "sources.read_trace.us_per_sample":
            us * ratio(span("sources.read_trace", "total_s"), counters.get("sources.read_trace.samples", 0)),
        "sources.LiveSource.next.us_per_sample":
            us * ratio(span("sources.LiveSource.next", "self_s"), live_samples),
        "motion.normalize.us_per_call":
            us * ratio(span("motion.normalize", "total_s"), span("motion.normalize", "calls")),
        "motion.manhattan_delta.us_per_call":
            us * ratio(span("motion.manhattan_delta", "total_s"), span("motion.manhattan_delta", "calls")),
        "motion.normalize.calls": ratio(span("motion.normalize", "calls"), n_iter),
        "motion.skipped": ratio(counters.get("motion.skipped", 0.0), n_iter),
        "detector.ingest.us_per_call":
            us * ratio(span("detector.ingest", "self_s"), span("detector.ingest", "calls")),
        "detector.advance_to.us_per_call":
            us * ratio(span("detector.advance_to", "total_s"), span("detector.advance_to", "calls")),
        "detector.advance_to.calls": ratio(span("detector.advance_to", "calls"), n_iter),
        "detector.advance_to.useful_ratio":
            ratio(counters.get("detector.advance_to.useful", 0.0), span("detector.advance_to", "calls")),
        "engine.run_session.self_us_per_sample": us * ratio(span("engine.run_session", "self_s"), samples),
        "engine.EventLog.emit.us_per_event": us * ratio(span("engine.EventLog.emit", "self_s"), events),
        "engine.SessionEvent.to_json.us_per_event":
            us * ratio(span("engine.SessionEvent.to_json", "total_s"), span("engine.SessionEvent.to_json", "calls")),
        "engine.sink_write.us_per_event": us * ratio(span("engine.sink_write", "total_s"), events),
        "engine.events": ratio(events, n_iter),
        "engine.events_per_sample": ratio(events, samples),
        "engine.log_bytes": ratio(counters.get("engine.log_bytes", 0.0), n_iter),
        "engine.retained_mb": retained_mb,
        "sinks.read_event_log.us_per_event":
            us * ratio(span("sinks.read_event_log", "total_s"), counters.get("sinks.read_event_log.events", 0)),
        "sinks.export_period_charts.self_s":
            ratio(span("sinks.export_period_charts", "self_s"), span("sinks.export_period_charts", "calls")),
        "sinks.melody_to_wav.ms":
            1e3 * ratio(span("sinks.melody_to_wav", "total_s"), span("sinks.melody_to_wav", "calls")),
        "cli.main.self_s": ratio(span("cli.main", "self_s"), n_iter),
        "reference.offline_outcome.us_per_sample": oracle_us_per_sample,
    }
    # Layer self times, tracer cost and time outside every span add up to
    # the traced wall time; all of them per traced iteration.
    own = traced.summary()
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = ratio(
            sum(row["self_s"] for name, row in own.items() if name.split(".")[0] == layer), n_iter)
    m["trace.instrumentation_s"] = ratio(traced.compensation_s(), n_iter)
    m["trace.unattributed_s"] = ratio(sum(traced_walls) - traced.root_time_s(), n_iter)
    m["trace.wall_s"] = ratio(sum(traced_walls), n_iter)
    m["trace.overhead_ratio"] = ratio(statistics.median(traced_walls), untraced_wall)
    assert set(m) == set(PER_LAYER)
    return {name: float(value) for name, value in m.items()}
