import os
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import pytest

from lightwake import HOUR_NS, NS_PER_S, RawSample, SessionConfig, TraceHeader, run_session
from lightwake.engine import SessionResult
from lightwake.sources import read_trace, write_trace
from trace_builders import scripted_trace

# Learning-period maxima chosen so the 5th period (hours 4-5) carries the
# band maximum and the 6th (hours 5-6) the band minimum; everything else
# sits strictly inside (0.497, 1.662). The final period opens with two
# out-of-band deltas, then the in-band one that must fire, then another
# in-band value that must never be reached.
PAPER_LEARNING_MAXIMA = [0.9, 1.1, 0.8, 0.75, 1.662, 0.497, 1.2]
PAPER_FINAL_DELTAS = [0.2, 0.31, 1.016, 0.8]
PAPER_T_MIN = 0.497
PAPER_T_MAX = 1.662
PAPER_ALARM_DELTA = 1.016
PAPER_ALARM_NS = (7 * 3600 + 3 * 60) * NS_PER_S  # third final spike, 60 s apart
PAPER_SLEEP_NS = 8 * HOUR_NS
PAPER_PERIOD_NS = HOUR_NS


@dataclass
class PaperCase:
    header: TraceHeader
    samples: list[RawSample]  # as read back from the trace file
    trace_path: Path
    log_path: Path
    result: SessionResult
    elapsed_s: float


@pytest.fixture(scope="session")
def paper_case(tmp_path_factory) -> PaperCase:
    """The reconstructed experiment: build, persist, replay once, share."""
    workdir = tmp_path_factory.mktemp("paper_fixture")
    header, samples = scripted_trace(PAPER_LEARNING_MAXIMA, PAPER_FINAL_DELTAS)
    trace_path = workdir / "fixture.csv"
    write_trace(trace_path, header, samples)
    read_header, read_samples = read_trace(trace_path)
    assert read_samples == samples, "trace file round trip must be exact"

    log_path = workdir / "events.jsonl"
    config = SessionConfig(PAPER_SLEEP_NS, PAPER_PERIOD_NS, speed=0.0)
    start = time.perf_counter()
    with log_path.open("w", encoding="utf-8", newline="\n") as sink:
        result = run_session(config, read_samples, event_sink=sink)
    elapsed = time.perf_counter() - start
    return PaperCase(
        header=read_header,
        samples=read_samples,
        trace_path=trace_path,
        log_path=log_path,
        result=result,
        elapsed_s=elapsed,
    )


@dataclass
class CliNight:
    run_stdout: str
    log_path: Path


def child_env(**extra: str) -> dict[str, str]:
    """Environment for a child interpreter that imports lightwake from src/, uninstalled."""
    env = dict(os.environ, **extra)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def seed42_night(tmp_path_factory) -> CliNight:
    """The README's CLI example: generate seed 42, then run it with a log."""
    workdir = tmp_path_factory.mktemp("seed42_night")
    trace, log = workdir / "night.csv", workdir / "events.jsonl"

    def cli(*args):
        result = subprocess.run([sys.executable, "-m", "lightwake", *args],
                                capture_output=True, text=True, timeout=300, env=child_env())
        assert result.returncode == 0, result.stderr
        return result.stdout

    cli("generate", "--seed", "42", "--hours", "8", "--rate-hz", "4", "--out", str(trace))
    stdout = cli("run", "--trace", str(trace), "--sleep-hours", "8", "--period-min", "60",
                 "--speed", "0", "--log", str(log), "--alarm-wav", str(workdir / "alarm.wav"))
    return CliNight(run_stdout=stdout, log_path=log)
