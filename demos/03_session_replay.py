"""
Replaying a full session on the virtual clock
=============================================

An 8-hour session runs in well under a second at speed 0; all logged
timestamps are virtual, so the event log is identical at any speed. With
a sink, the events go to the log file only; reading it back gives them as
records again. The log then feeds the chart exporter.
"""

from pathlib import Path

from lightwake import (
    HOUR_NS,
    SessionConfig,
    SleepModelParams,
    TraceHeader,
    export_period_charts,
    generate_trace,
    read_event_log,
    run_session,
)

out = Path("demo_out")
out.mkdir(exist_ok=True)

samples = generate_trace(SleepModelParams(rng_seed=7),
                         TraceHeader(4.0, 8 * HOUR_NS))
config = SessionConfig(sleep_duration_ns=8 * HOUR_NS, period_length_ns=HOUR_NS,
                       speed=0.0)

log_path = out / "session.jsonl"
with log_path.open("w", encoding="utf-8", newline="\n") as sink:
    result = run_session(config, samples, event_sink=sink)

outcome = result.outcome
bands = outcome.final_thresholds
print(f"trigger      {outcome.trigger.value}")
print(f"alarm time   {outcome.alarm_time_ns / 3.6e12:.3f} h into the night")
print(f"band         [{bands.t_min:.4f}, {bands.t_max:.4f}]")
if outcome.trigger_delta is not None:
    print(f"firing delta {outcome.trigger_delta:.4f}")
_, events = read_event_log(log_path)
print(f"events       {len(events)} (log: {log_path})")

print("\nlast moments of the session:")
for t_ns, kind, fields in events[-6:]:
    print(f"  t={t_ns / 1e9:10.2f}s  {kind:18s} {fields}")

for path in export_period_charts(log_path, out / "charts"):
    print(f"wrote {path}")
