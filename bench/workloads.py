"""The benchmark's workloads: night-chain, sweep and live-tcp.

Each workload builds its inputs from the seed in ``setup``, runs one timed
unit of work per ``iterate`` call and, after all timing is done, checks every
output against the independent oracle in ``tests/reference.py`` in
``check``. An operation is one CLI command (night-chain), one session
(sweep) or one stream (live-tcp); a mismatch or an exception fails it.

All three are single-process and single-threaded on the engine side;
live-tcp adds one sender process that writes over one loopback connection.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import select
import shutil
import subprocess
import sys
import time
import tracemalloc
import wave
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lightwake import cli, engine, sources
from lightwake.engine import HOUR_NS, MINUTE_NS, NS_PER_S, SessionConfig
from lightwake.sinks import DEFAULT_ALARM_MELODY
from lightwake.sources import SleepModelParams, TraceHeader, format_seconds, seconds_to_ns
from reference import delta_sequence, offline_outcome

from layers import counted

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"


_IMPORT_PROBE = """
import sys, time
sys.path[:0] = sys.argv[1:3]
from hostspeed import probe, scale
before = probe()
start = time.perf_counter()
import lightwake.cli
raw = time.perf_counter() - start
print(scale(raw, before, probe()))
"""


def fresh_import_s() -> float:
    """Time to import the whole package in a fresh interpreter, as each CLI command pays it.

    The child probes host speed around its own import, since it may run on
    another CPU than this process; the result is scaled to full speed.
    """
    done = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(SRC_DIR), str(BENCH_DIR)],
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


Span = tuple[float, float]  # (start, end) perf_counter readings


@dataclass
class Iteration:
    """One timed unit: the spans it timed and its operation results.

    The runner turns spans into times scaled to full host speed (see
    hostspeed.py) once measuring is over.
    """

    ops: list[str]                       # operation names, in order
    span: Span = (0.0, 0.0)              # the timed body
    sessions: list[Span] = field(default_factory=list)  # each run_session call
    parts: dict[str, Span] = field(default_factory=dict)  # named parts of the body
    errors: dict[int, str] = field(default_factory=dict)  # op index -> why it failed
    samples: int = 0                     # consumed by run_session; set by check()
    record: dict = field(default_factory=dict)  # outputs for check()


def outcome_key(outcome) -> tuple:
    t = outcome.final_thresholds
    return (outcome.trigger.value, outcome.alarm_time_ns, outcome.trigger_delta, t.t_min, t.t_max)


def reference_key(ref) -> tuple:
    return (ref.trigger, ref.alarm_time_ns, ref.trigger_delta, ref.t_min, ref.t_max)


def consumed_samples(samples: list, ref, sleep_ns: int) -> int:
    """Samples run_session must read for this outcome: up to the alarm, no further.

    On a hit the alarm sample is the last one read. Otherwise the stream is
    read to its end, or to the first sample at or past the session end.
    """
    times = np.fromiter((s.t_ns for s in samples), dtype=np.int64, count=len(samples))
    if ref.trigger == "ThresholdHit":
        return int(np.searchsorted(times, ref.alarm_time_ns, side="right"))
    inside = int(np.searchsorted(times, sleep_ns, side="left"))
    return min(inside + 1, len(samples))


def sha256(path: Path) -> str:
    """Digest of a file, or of a directory's file names and contents."""
    if path.is_file():
        return hashlib.sha256(path.read_bytes()).hexdigest()
    digest = hashlib.sha256()
    for child in sorted(path.iterdir()):
        digest.update(child.name.encode() + b"\0" + child.read_bytes() + b"\0")
    return digest.hexdigest()


def retained_events_mb(config: SessionConfig, samples: list) -> float:
    """Memory held by SessionResult.events after one session, by tracemalloc."""
    tracemalloc.start()
    try:
        result = engine.run_session(config, samples)
        held = tracemalloc.get_traced_memory()[0]
        result.events.clear()
        return (held - tracemalloc.get_traced_memory()[0]) / 2**20
    finally:
        tracemalloc.stop()


def oracle_us_per_sample(cases: list[tuple[list, int, int]]) -> float:
    start = time.perf_counter()
    for samples, sleep_ns, period_ns in cases:
        offline_outcome(samples, sleep_ns, period_ns)
    return 1e6 * (time.perf_counter() - start) / max(1, sum(len(c[0]) for c in cases))


class NightChain:
    """The offline CLI path, in process: generate -> run -> charts on one 8 h night.

    Nights use a 120-minute sleep cycle, so the final hour opens in light
    sleep and the alarm fires early in it on every seed: each night reads
    88-93 % of its samples. With the default 90-minute cycle a quarter of
    the seeds end without a hit and read 14 % more, which splits the
    timings into two groups by seed.
    """

    name = "night-chain"
    commands = ("generate", "run", "charts")
    outputs = {"generate": ("night.csv",), "run": ("events.jsonl", "alarm.wav"), "charts": ("charts/",)}
    cycle_min = 120

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        # tiny keeps every flag and file of the full chain on a 15-minute night.
        self.hours, self.period_min = ("8", "60") if size == "full" else ("0.25", "5")
        self.workdir = workdir
        self.trace = workdir / "night.csv"
        self.log = workdir / "events.jsonl"
        self.wav = workdir / "alarm.wav"
        self.charts = workdir / "charts"
        self.files = {"night.csv": self.trace, "events.jsonl": self.log, "alarm.wav": self.wav,
                      "charts/": self.charts}
        self.argv = {
            "generate": ["generate", "--seed", str(seed), "--hours", self.hours, "--rate-hz", "4",
                         "--cycle-min", str(self.cycle_min), "--out", str(self.trace)],
            "run": ["run", "--trace", str(self.trace), "--sleep-hours", self.hours,
                    "--period-min", self.period_min, "--log", str(self.log),
                    "--alarm-wav", str(self.wav)],
            "charts": ["charts", "--log", str(self.log), "--out-dir", str(self.charts)],
        }
        self._session: Span = (0.0, 0.0)
        self._original_run_session = cli.run_session
        cli.run_session = self._timed_session(self._original_run_session)

    def _timed_session(self, run_session):
        """Record the span of the run_session call inside `run`: two clock reads a session."""
        def session(*args, **kwargs):
            start = time.perf_counter()
            try:
                return run_session(*args, **kwargs)
            finally:
                self._session = (start, time.perf_counter())
        return session

    def setup(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)

    def iterate(self, small: bool = False) -> Iteration:
        it = Iteration(ops=list(self.commands))
        for i, command in enumerate(self.commands):
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    rc = cli.main(self.argv[command])
            except Exception as exc:  # noqa: BLE001 - a failed command is counted, not fatal
                rc = f"{type(exc).__name__}: {exc}"
            it.parts[f"cmd_{command}_s"] = (start, time.perf_counter())
            if command == "run":
                it.sessions.append(self._session)
            it.record[f"{command}_stdout"] = out.getvalue()
            if rc != 0:
                for j in range(i, len(self.commands)):
                    it.errors[j] = f"{command} exited with {rc!r}"
                break
            for name in self.outputs[command]:
                it.record.setdefault("hashes", {})[name] = sha256(self.files[name])
        spans = list(it.parts.values())
        it.span = (spans[0][0], spans[-1][1])
        return it

    def close(self) -> None:
        cli.run_session = self._original_run_session
        shutil.rmtree(self.workdir, ignore_errors=True)

    # -- correctness, after all timing ------------------------------------

    def _inputs(self):
        hours = float(self.hours)
        header = TraceHeader(sample_rate_hz=4.0, duration_ns=int(round(hours * HOUR_NS)),
                             label=f"synthetic seed={self.seed}")
        params = SleepModelParams(cycle_length_ns=self.cycle_min * MINUTE_NS, rng_seed=self.seed)
        samples = sources.generate_trace(params, header)
        sleep_ns = int(round(hours * HOUR_NS))
        period_ns = int(round(float(self.period_min) * MINUTE_NS))
        return samples, sleep_ns, period_ns

    def oracle_cases(self):
        return [self._inputs()]

    def retained_mb(self) -> float:
        samples, sleep_ns, period_ns = self._inputs()
        return retained_events_mb(SessionConfig(sleep_ns, period_ns), samples)

    def check(self, iterations: list[Iteration]) -> dict[str, str]:
        """Check the last complete chain against the oracle, the rest against it by hash.

        Returns the sha256 of each output of the last chain.
        """
        done = [it for it in iterations if not it.errors]
        if not done:
            return {}
        samples, sleep_ns, period_ns = self._inputs()
        ref = offline_outcome(samples, sleep_ns, period_ns)
        consumed = consumed_samples(samples, ref, sleep_ns)
        problems = {"generate": self._check_trace(samples),
                    "run": self._check_run(done[-1], samples, ref, sleep_ns),
                    "charts": self._check_charts(samples, ref, sleep_ns, period_ns)}
        final = done[-1].record["hashes"]
        for it in iterations:
            it.samples = consumed
            for i, command in enumerate(self.commands):
                if i in it.errors:
                    continue
                if problems[command]:
                    it.errors[i] = problems[command]
                elif any(it.record["hashes"][name] != final[name] for name in self.outputs[command]):
                    it.errors[i] = f"{command} output differs between iterations"
        return {f"sha256 {name}": digest for name, digest in final.items()}

    def _check_trace(self, samples) -> str:
        _, back = sources.read_trace(self.trace)
        return "" if back == samples else "trace round trip differs from the generated samples"

    def _check_run(self, it: Iteration, samples, ref, sleep_ns) -> str:
        fields = dict(tok.split("=", 1) for tok in it.record["run_stdout"].split())
        want = {"alarm": ref.trigger, "t": ref.alarm_time_ns / NS_PER_S, "delta": ref.trigger_delta,
                "t_min": ref.t_min, "t_max": ref.t_max}
        for key, value in want.items():
            got = fields.get(key)
            if isinstance(value, str):
                ok = got == value
            else:
                ok = got == "-" if value is None else got not in (None, "-") and float(got) == value
            if not ok:
                return f"run printed {key}={got!r}, oracle says {value!r}"
        t, values = self._logged_deltas(ref, sleep_ns, samples)
        logged = []
        with self.log.open("rb") as fh:
            for line in fh:
                if b"DeltaComputed" in line:
                    record = json.loads(line)
                    if record.get("kind") == "DeltaComputed":
                        logged.append((record["t_ns"], record["value"]))
        if logged != list(zip(t, values)):
            return f"log holds {len(logged)} DeltaComputed records, oracle expects {len(t)} others"
        with wave.open(str(self.wav), "rb") as fh:
            ok = fh.getnchannels() == 1 and fh.getsampwidth() == 2
            duration = fh.getnframes() / fh.getframerate()
        if not ok or abs(duration - DEFAULT_ALARM_MELODY.total_ms() / 1000.0) > 1.0 / 8000:
            return "alarm WAV is not the default melody as 16-bit mono"
        return ""

    @staticmethod
    def _logged_deltas(ref, sleep_ns, samples) -> tuple[list[int], list[float]]:
        """The oracle's deltas up to and including the alarm."""
        t, values = delta_sequence(samples, sleep_ns)
        keep = t <= ref.alarm_time_ns
        return t[keep].tolist(), values[keep].tolist()

    def _check_charts(self, samples, ref, sleep_ns, period_ns) -> str:
        rows = (self.charts / "summary.csv").read_text(encoding="utf-8").splitlines()[1:]
        summary = dict(row.split(",", 1) for row in rows)
        t, values = self._logged_deltas(ref, sleep_ns, samples)
        n_periods = math.ceil(sleep_ns / period_ns)
        maxima: dict[int, float] = {}
        for ts, value in zip(t, values):
            k = min(ts // period_ns, n_periods - 1)
            maxima[k] = max(maxima.get(k, value), value)

        def text(value) -> str:
            return "" if value is None else repr(value)

        want = {f"period_{k}_max": text(maxima.get(k)) for k in range(n_periods)}
        want.update(t_min=text(ref.t_min), t_max=text(ref.t_max), alarm_trigger=ref.trigger,
                    alarm_delta=text(ref.trigger_delta))
        for key, value in want.items():
            got = summary.get(key)
            same = got == value if not value or key == "alarm_trigger" else (
                got not in (None, "") and float(got) == float(value))
            if not same:
                return f"summary.csv {key}={got!r}, oracle says {value!r}"
        if seconds_to_ns(summary.get("alarm_t_s", "nan")) != ref.alarm_time_ns:
            return f"summary.csv alarm_t_s={summary.get('alarm_t_s')!r}, oracle says {ref.alarm_time_ns} ns"
        buckets: list[list[tuple[int, float]]] = [[] for _ in range(n_periods)]
        for ts, value in zip(t, values):
            k = min(ts // period_ns, n_periods - 1)
            buckets[k].append((ts - k * period_ns, value))
        for k, bucket in enumerate(buckets):
            rows = (self.charts / f"period_{k}.csv").read_text(encoding="utf-8").splitlines()[1:]
            charted = [(seconds_to_ns(t_s), float(value))
                       for t_s, value in (row.split(",") for row in rows)]
            if charted != bucket:
                return f"period_{k}.csv holds {len(charted)} rows that differ from the oracle's {len(bucket)}"
        return ""


def sweep_cases(seed: int, n: int) -> list[tuple[SleepModelParams, TraceHeader, int, int]]:
    """Short sessions shaped like acceptance criterion 4.

    Varied period geometry (sleep not a multiple of the period, traces
    shorter or longer than the session), noise and burst regimes from
    silent to restless, so both alarm triggers occur often.
    """
    rng = np.random.default_rng(seed)
    regimes = ((0.0, 0.0, 0.0), (0.003, 6.0, 1.0), (0.02, 20.0, 5.0))
    cases = []
    for _ in range(n):
        period_s = int(rng.integers(40, 55))
        sleep_s = max(int(rng.integers(240, 343)), 2 * period_s)
        trace_s = max(30, sleep_s + int(rng.integers(-40, 41)))
        noise, light, deep = regimes[int(rng.integers(3))]
        params = SleepModelParams(cycle_length_ns=90 * NS_PER_S * int(rng.integers(1, 4)),
                                  quiet_noise_sigma=noise, burst_rate_light=light,
                                  burst_rate_deep=deep, rng_seed=int(rng.integers(2**32)))
        header = TraceHeader(sample_rate_hz=4.0, duration_ns=trace_s * NS_PER_S)
        cases.append((params, header, sleep_s * NS_PER_S, period_s * NS_PER_S))
    return cases


class Sweep:
    """Many short in-memory sessions: run_session over pre-generated samples, no sink."""

    name = "sweep"

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        self.n_cases = 400 if size == "full" else 24
        # The traced unit is a slice of the pool, to bound the span count.
        self.n_traced = 80 if size == "full" else 8
        self.cases: list[tuple[list, int, int]] = []

    def setup(self) -> None:
        self.cases = []  # free the previous pool first, so two never coexist in memory
        self.cases = [(sources.generate_trace(params, header), sleep_ns, period_ns)
                      for params, header, sleep_ns, period_ns in sweep_cases(self.seed, self.n_cases)]

    def iterate(self, small: bool = False) -> Iteration:
        """One pass over the pool, or over its traced slice when small."""
        cases = self.cases[:self.n_traced] if small else self.cases
        it = Iteration(ops=["session"] * len(cases))
        outcomes = []
        now = time.perf_counter
        start = now()
        for i, (samples, sleep_ns, period_ns) in enumerate(cases):
            t0 = now()
            try:
                outcome = engine.run_session(SessionConfig(sleep_ns, period_ns), samples).outcome
            except Exception as exc:  # noqa: BLE001 - a failed session is counted, not fatal
                it.errors[i] = f"{type(exc).__name__}: {exc}"
                outcomes.append(None)
                continue
            it.sessions.append((t0, now()))
            outcomes.append(outcome_key(outcome))
        it.span = (start, now())
        it.record["outcomes"] = outcomes
        return it

    def close(self) -> None:
        pass

    def oracle_cases(self):
        return self.cases[:self.n_traced]

    def retained_mb(self) -> float:
        probe = self.cases[:20]
        return sum(retained_events_mb(SessionConfig(s, p), samples) for samples, s, p in probe) / len(probe)

    def check(self, iterations: list[Iteration]) -> dict[str, str]:
        refs = [offline_outcome(samples, s, p) for samples, s, p in self.cases]
        consumed = [consumed_samples(samples, ref, s) for (samples, s, _), ref in zip(self.cases, refs)]
        for it in iterations:
            it.samples = sum(consumed[:len(it.ops)])
            for i, got in enumerate(it.record["outcomes"]):
                if i not in it.errors and got != reference_key(refs[i]):
                    it.errors[i] = f"case {i}: engine {got}, oracle {reference_key(refs[i])}"
        hits = sum(ref.trigger == "ThresholdHit" for ref in refs)
        return {"coverage": {"ThresholdHit": hits, "SessionEnd": len(refs) - hits}}


class LiveTcp:
    """A separate sender streams a 250 Hz trace over loopback into listen_live -> run_session.

    A closed loop with one client: the sender writes as fast as TCP
    backpressure allows, one connection per stream.
    """

    name = "live-tcp"

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = seed
        sleep_ns = 10 * MINUTE_NS if size == "full" else 30 * NS_PER_S
        # One learning period and the final one: the band is then the single
        # learning maximum, which no later noise delta equals, so every
        # stream runs to the session end and the work does not depend on the
        # seed. The trace runs 5 % past the session end, and the receiver
        # must stop reading at the first sample past it.
        self.config = SessionConfig(sleep_ns, sleep_ns // 2)
        self.duration_ns = sleep_ns + sleep_ns // 20
        self.workdir = workdir
        self.wire = workdir / "wire.txt"
        self.sender: subprocess.Popen | None = None
        self.samples: list = []

    def setup(self) -> None:
        self._stop_sender()
        shutil.rmtree(self.workdir, ignore_errors=True)
        self.workdir.mkdir(parents=True)
        self.samples = []  # free the previous trace first, so two never coexist in memory
        self.samples = sources.generate_trace(SleepModelParams(rng_seed=self.seed),
                                              TraceHeader(250.0, self.duration_ns))
        payload = "".join(f"{format_seconds(s.t_ns)} {s.ax!r} {s.ay!r} {s.az!r}\n"
                          for s in self.samples)
        self.wire.write_bytes(payload.encode("ascii"))
        self.sender = subprocess.Popen([sys.executable, str(BENCH_DIR / "sender.py"), str(self.wire)],
                                       stdin=subprocess.PIPE, stdout=subprocess.PIPE, bufsize=0)
        if self._read_sender() != b"ready":
            raise RuntimeError("sender did not start")

    def _read_sender(self, timeout: float = 60.0) -> bytes:
        ready, _, _ = select.select([self.sender.stdout], [], [], timeout)
        if not ready:
            raise RuntimeError("sender did not answer")
        return self.sender.stdout.readline().strip()

    def iterate(self, small: bool = False) -> Iteration:
        it = Iteration(ops=["stream"])
        box = [0]
        source = None
        port_sent = False
        start = time.perf_counter()
        try:
            source = sources.listen_live(("127.0.0.1", 0), timeout=60)
            self.sender.stdin.write(f"{source.address[1]}\n".encode())
            port_sent = True
            outcome = engine.run_session(self.config, counted(source, box)).outcome
            it.record["outcome"] = outcome_key(outcome)
        except Exception as exc:  # noqa: BLE001 - a failed stream is counted, not fatal
            it.errors[0] = f"{type(exc).__name__}: {exc}"
        it.span = (start, time.perf_counter())
        it.sessions = [it.span]
        it.record["consumed"] = box[0]
        if source is not None:
            source.close()  # a session that failed early never closed it; the sender then stops
        if port_sent:
            try:
                it.record["sent"] = self._read_sender()
            except RuntimeError as exc:
                it.errors[0] = str(exc)
        return it

    def _stop_sender(self) -> None:
        if self.sender is None:
            return
        self.sender.stdin.close()
        try:
            self.sender.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.sender.kill()
            self.sender.wait()
        self.sender.stdout.close()
        self.sender = None

    def close(self) -> None:
        self._stop_sender()
        shutil.rmtree(self.workdir, ignore_errors=True)

    def oracle_cases(self):
        return [(self.samples, self.config.sleep_duration_ns, self.config.period_length_ns)]

    def retained_mb(self) -> float:
        return retained_events_mb(self.config, self.samples)

    def check(self, iterations: list[Iteration]) -> dict[str, str]:
        ref = offline_outcome(self.samples, self.config.sleep_duration_ns, self.config.period_length_ns)
        consumed = consumed_samples(self.samples, ref, self.config.sleep_duration_ns)
        for it in iterations:
            it.samples = consumed
            if 0 in it.errors:
                continue
            if it.record["outcome"] != reference_key(ref):
                it.errors[0] = f"engine {it.record['outcome']}, oracle {reference_key(ref)}"
            elif it.record["consumed"] != consumed:
                it.errors[0] = f"read {it.record['consumed']} samples, the alarm needs exactly {consumed}"
        return {}


WORKLOADS = {w.name: w for w in (NightChain, Sweep, LiveTcp)}
