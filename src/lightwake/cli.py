"""Command-line entry point: generate traces, run sessions, export charts.

Exit codes: 0 success, 1 runtime error (missing/corrupt files, source
failures), 2 usage error (bad flags or flag values). A failed run writes
one ``lightwake: `` line to standard error; a successful one writes none.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext

from .engine import HOUR_NS, MINUTE_NS, NS_PER_S, SessionConfig, run_session
from .errors import ConfigInvalid, InvalidMelody, LightwakeError
from .sinks import DEFAULT_ALARM_MELODY, export_period_charts, melody_to_wav, parse_melody
from .sources import SleepModelParams, TraceHeader, listen_live, read_trace_blocks, write_generated_trace
# Unused here, but the benchmark's per-layer tracer wraps them on this module.
from .sources import generate_trace, read_trace, write_trace  # noqa: F401


def _fmt(value: float | None) -> str:
    return "-" if value is None else repr(value)


def finite_float(text: str) -> float:
    """argparse type for every float flag: a number that stays finite in ns."""
    value = float(text)
    # Hours are the largest unit a flag is given in.
    if not math.isfinite(value * HOUR_NS):
        raise argparse.ArgumentTypeError(f"{text!r} is not a finite number in range")
    return value


def host_port(text: str) -> tuple[str, int]:
    """argparse type for --listen: HOST:PORT with a port of 0..65535 in ASCII digits."""
    host, _, port = text.rpartition(":")
    if host and port.isascii() and port.isdigit() and int(port) <= 65535:
        return host, int(port)
    raise argparse.ArgumentTypeError(f"{text!r} is not HOST:PORT with a port of 0..65535")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lightwake",
        description="Accelerometer-based light-sleep alarm: deterministic "
                    "trace generation, session replay, and chart export.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a seeded accelerometer trace CSV")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    gen.add_argument("--hours", type=finite_float, default=8.0, help="trace length in hours (default 8)")
    gen.add_argument("--rate-hz", type=finite_float, default=4.0, help="sampling rate, 1..250 Hz (default 4)")
    gen.add_argument("--cycle-min", type=finite_float, default=90.0, help="sleep cycle length in minutes (default 90)")
    gen.add_argument("--out", required=True, help="output trace CSV path")
    gen.set_defaults(func=cmd_generate, parser=gen)

    run = sub.add_parser("run", help="run one sleep session over a trace or a live TCP feed")
    src = run.add_mutually_exclusive_group(required=True)
    src.add_argument("--trace", help="trace CSV to replay")
    src.add_argument("--listen", type=host_port, metavar="HOST:PORT", help="accept one client on the live line protocol")
    run.add_argument("--sleep-hours", type=finite_float, default=8.0, help="sleep duration in hours (default 8)")
    run.add_argument("--period-min", type=finite_float, default=60.0, help="period length in minutes (default 60)")
    run.add_argument("--speed", type=finite_float, default=0.0,
                     help="virtual-to-wall clock ratio; 1=real time, 0=as fast as possible (default 0)")
    run.add_argument("--log", help="write the JSONL event log here")
    run.add_argument("--alarm-wav", help="write the alarm melody WAV here when the alarm fires")
    run.add_argument("--melody", help="melody text file (freq_hz:duration_ms per line, 0 = rest)")
    run.set_defaults(func=cmd_run, parser=run)

    charts = sub.add_parser("charts", help="export per-period delta CSVs and a summary from an event log")
    charts.add_argument("--log", required=True, help="JSONL event log to read")
    charts.add_argument("--out-dir", required=True, help="directory for period_<k>.csv and summary.csv")
    charts.set_defaults(func=cmd_charts, parser=charts)
    return parser


def cmd_generate(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    if args.hours <= 0:
        parser.error(f"--hours must be positive, got {args.hours!r}")
    try:
        header = TraceHeader(sample_rate_hz=args.rate_hz,
                             duration_ns=int(round(args.hours * HOUR_NS)),
                             label=f"synthetic seed={args.seed}")
        params = SleepModelParams(cycle_length_ns=int(round(args.cycle_min * MINUTE_NS)),
                                  rng_seed=args.seed)
    except ConfigInvalid as exc:
        parser.error(str(exc))
    # The trace is written a chunk at a time, but its time and disk grow with it: it
    # stops at a day at 250 Hz (21.6 M samples, about 1.7 GB).
    if args.hours * args.rate_hz > 24 * 250:
        parser.error(f"--hours {args.hours!r} at --rate-hz {args.rate_hz!r} is more samples "
                     f"than a day at the sensor's 250 Hz ceiling")
    count = write_generated_trace(args.out, params, header)
    print(f"trace={args.out} samples={count} rate_hz={args.rate_hz!r} seed={args.seed}")
    return 0


def cmd_run(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    try:
        config = SessionConfig(sleep_duration_ns=int(round(args.sleep_hours * HOUR_NS)),
                               period_length_ns=int(round(args.period_min * MINUTE_NS)),
                               speed=args.speed)
    except ConfigInvalid as exc:
        parser.error(str(exc))

    melody = DEFAULT_ALARM_MELODY
    if args.melody:
        try:
            with open(args.melody, "r", encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as exc:
            raise InvalidMelody(f"{args.melody}: not UTF-8: {exc}") from None
        melody = parse_melody(text, name=os.path.basename(args.melody))

    if args.trace:
        # Read whole before the session, so a bad row after the alarm is reported too.
        _, source = read_trace_blocks(args.trace)
    else:
        source = listen_live(args.listen)

    try:
        with open(args.log, "w", encoding="utf-8", newline="\n") if args.log else nullcontext() as sink:
            result = run_session(config, source, event_sink=sink)
    finally:
        if args.listen:  # run_session closes it too, but a log that cannot be opened stops before it
            source.close()
    if args.alarm_wav:
        melody_to_wav(melody, args.alarm_wav)

    outcome = result.outcome
    thresholds = outcome.final_thresholds
    print(
        f"alarm={outcome.trigger.value}"
        f" t={outcome.alarm_time_ns / NS_PER_S!r}"
        f" delta={_fmt(outcome.trigger_delta)}"
        f" t_min={_fmt(thresholds.t_min)}"
        f" t_max={_fmt(thresholds.t_max)}"
    )
    return 0


def cmd_charts(parser: argparse.ArgumentParser, args: argparse.Namespace) -> int:
    written = export_period_charts(args.log, args.out_dir)
    print(f"charts={args.out_dir} files={len(written)}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args.parser, args)
    except OSError as exc:
        where = f"{exc.filename}: " if exc.filename else ""
        print(f"lightwake: {where}{exc.strerror or exc}", file=sys.stderr)
        return 1
    except LightwakeError as exc:
        print(f"lightwake: {exc}", file=sys.stderr)
        return 1
