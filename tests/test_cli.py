import argparse
import contextlib
import gc
import hashlib
import io
import socket
import struct
import subprocess
import sys
import threading
import time
import tracemalloc
import warnings
import wave
from pathlib import Path, PurePosixPath
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from conftest import child_env
from lightwake import (NS_PER_S, SessionConfig, SleepModelParams, TraceHeader, cli as lightwake_cli,
                       generate_trace, run_session, sources)
from lightwake.sources import MAX_LINE_BYTES, TRACE_HEADER_LINE, write_trace
from test_sinks import BAD_HEADER_LINES, BAD_RECORD_LINES, ENGINE_LOG, log_versions
from test_sources import PINNED_TRACES, sample_rows, wire_payloads
from trace_builders import scripted_trace


def cli(*args, timeout=120, env_extra=None):
    return subprocess.run(
        [sys.executable, "-m", "lightwake", *args],
        capture_output=True, text=True, encoding="utf-8", timeout=timeout, env=child_env(**(env_extra or {})),
    )


def main_in_process(*argv):
    """lightwake.cli.main(argv) with its output captured, as (exit code, stderr)."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = lightwake_cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return code, stderr.getvalue()


def parse_summary(line: str) -> dict:
    return dict(part.split("=", 1) for part in line.strip().split())


@pytest.fixture(scope="module")
def tiny_trace(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "tiny.csv"
    result = cli("generate", "--seed", "5", "--hours", "0.05", "--out", str(path))
    assert result.returncode == 0
    return path


class TestUsage:
    def test_help_everywhere(self):
        assert cli("--help").returncode == 0
        for sub in ("generate", "run", "charts"):
            result = cli(sub, "--help")
            assert result.returncode == 0
            assert sub in result.stdout

    def test_unknown_flag_exits_2(self):
        assert cli("run", "--bogus").returncode == 2
        assert cli("generate", "--frobnicate", "--out", "x").returncode == 2

    def test_missing_subcommand_exits_2(self):
        assert cli().returncode == 2

    def test_generate_rejects_bad_values(self, tmp_path):
        out = str(tmp_path / "t.csv")
        for flag, value in (("--hours", "0"), ("--rate-hz", "500"), ("--cycle-min", "-5"),
                            ("--hours", "inf"), ("--cycle-min", "inf"), ("--seed", "-1"),
                            ("--cycle-min", "1e-6")):
            result = cli("generate", flag, value, "--out", out)
            assert result.returncode == 2, (flag, value)
            assert "Traceback" not in result.stderr

    def test_config_errors_show_the_subcommand_usage(self, tiny_trace, tmp_path):
        for args in (("generate", "--seed", "-1", "--out", str(tmp_path / "t.csv")),
                     ("run", "--trace", str(tiny_trace), "--speed", "-1")):
            result = cli(*args)
            assert result.returncode == 2, args
            lines = result.stderr.splitlines()
            assert lines[0].startswith(f"usage: lightwake {args[0]} "), lines
            assert lines[-1].startswith(f"lightwake {args[0]}: error: "), lines

    def test_run_rejects_bad_session_shape(self, tiny_trace):
        for args in (("--sleep-hours", "0.5", "--period-min", "60"), ("--speed", "-1"),
                     ("--speed", "nan"), ("--sleep-hours", "inf"),
                     ("--sleep-hours", "1e300"), ("--period-min", "nan"),
                     ("--sleep-hours", "100000"), ("--speed", "1e-300")):
            result = cli("run", "--trace", str(tiny_trace), *args)
            assert result.returncode == 2, args
            assert "Traceback" not in result.stderr

    def test_run_rejects_bad_listen_address(self):
        for address in ("nonsense", "localhost", "localhost:notaport", "127.0.0.1:99999",
                        "127.0.0.1:-1"):
            result = cli("run", "--listen", address)
            assert result.returncode == 2, address
            assert "Traceback" not in result.stderr
            assert result.stderr.splitlines()[-1].startswith("lightwake run: error: argument --listen")

    @pytest.mark.parametrize("port", ["\u0663", "\uff18\uff10\uff18\uff10", "\u00b2"])
    def test_listen_port_takes_only_ascii_digits(self, port):
        """Arabic-Indic 3 and fullwidth 8080 are digits that int() reads; superscript 2 is a digit
        that int() refuses. Tested in process: a port they name would be bound and wait for a client."""
        with pytest.raises(argparse.ArgumentTypeError, match="is not HOST:PORT"):
            lightwake_cli.host_port(f"127.0.0.1:{port}")

    def test_run_requires_exactly_one_source(self, tiny_trace):
        assert cli("run").returncode == 2
        assert cli("run", "--trace", str(tiny_trace),
                   "--listen", "127.0.0.1:0").returncode == 2


class TestGenerate:
    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        ra = cli("generate", "--seed", "42", "--hours", "0.1", "--out", str(a))
        rb = cli("generate", "--seed", "42", "--hours", "0.1", "--out", str(b))
        assert ra.returncode == 0 and rb.returncode == 0
        assert a.read_bytes() == b.read_bytes()
        assert f"trace={a}" in ra.stdout

    def test_seed_changes_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli("generate", "--seed", "1", "--hours", "0.05", "--out", str(a))
        cli("generate", "--seed", "2", "--hours", "0.05", "--out", str(b))
        assert a.read_bytes() != b.read_bytes()

    @pytest.mark.parametrize("chunk_rows", [7, 1000, sources._CHUNK_ROWS])
    @pytest.mark.parametrize("seed, rate_hz, hours, cycle_min, sha256", PINNED_TRACES)
    def test_bytes_are_the_pinned_traces_in_any_chunk(self, tmp_path, chunk_rows, seed, rate_hz,
                                                       hours, cycle_min, sha256):
        path = tmp_path / "night.csv"
        with mock.patch.object(sources, "_CHUNK_ROWS", chunk_rows):
            code, stderr = main_in_process("generate", "--seed", str(seed), "--hours", repr(hours),
                                           "--rate-hz", repr(rate_hz), "--cycle-min", repr(cycle_min),
                                           "--out", str(path))
        assert (code, stderr) == (0, "")
        # The pins were taken with the label "seed=N"; the CLI writes "synthetic seed=N".
        text = path.read_bytes().replace(b"# label=synthetic seed=", b"# label=seed=", 1)
        assert hashlib.sha256(text).hexdigest() == sha256

    def test_memory_bounded_by_the_chunk(self, tmp_path):
        peaks = []
        for rate_hz in ("4", "16"):
            tracemalloc.start()
            try:
                code, _ = main_in_process("generate", "--hours", "1", "--rate-hz", rate_hz,
                                          "--out", str(tmp_path / "night.csv"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert code == 0
        assert peaks[1] < 1.5 * peaks[0], peaks


class TestRun:
    def test_trace_replay_holds_at_most_100_bytes_a_sample(self, tmp_path):
        """The tracemalloc peak of run --trace, no log, on an hour at 16 Hz."""
        trace = tmp_path / "night.csv"
        assert main_in_process("generate", "--seed", "3", "--hours", "1", "--rate-hz", "16",
                               "--out", str(trace))[0] == 0
        tracemalloc.start()
        try:
            code, err = main_in_process("run", "--trace", str(trace), "--sleep-hours", "1",
                                        "--period-min", "15")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak <= 100 * 16 * 3600, peak / (16 * 3600)

    def test_fixture_trace_summary_values(self, paper_case):
        result = cli("run", "--trace", str(paper_case.trace_path))
        assert result.returncode == 0
        summary = parse_summary(result.stdout)
        assert summary["alarm"] == "ThresholdHit"
        assert abs(float(summary["delta"]) - 1.016) <= 1e-9
        assert abs(float(summary["t_min"]) - 0.497) <= 1e-9
        assert abs(float(summary["t_max"]) - 1.662) <= 1e-9
        assert float(summary["t"]) == paper_case.result.outcome.alarm_time_ns / NS_PER_S

    def test_readme_example_line(self, seed42_night):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        line = seed42_night.run_stdout.strip()
        assert line == ("alarm=SessionEnd t=28800.0 delta=- "
                        "t_min=0.31794632537232165 t_max=0.4836735335938859")
        assert f"# -> {line}" in readme

    def test_summary_line_shape(self, tiny_trace):
        result = cli("run", "--trace", str(tiny_trace),
                     "--sleep-hours", "0.05", "--period-min", "1")
        assert result.returncode == 0
        summary = parse_summary(result.stdout)
        assert summary["alarm"] in ("ThresholdHit", "SessionEnd")
        assert set(summary) == {"alarm", "t", "delta", "t_min", "t_max"}
        assert float(summary["t"]) <= 0.05 * 3600

    def test_missing_trace_exits_1(self, tiny_trace, tmp_path):
        run = ("run", "--trace", str(tiny_trace), "--sleep-hours", "0.05", "--period-min", "1")
        for args, path in ((("run", "--trace", "/nonexistent/trace.csv"), "/nonexistent/trace.csv"),
                           (("generate", "--out", str(tmp_path)), str(tmp_path)),
                           ((*run, "--log", str(tmp_path)), str(tmp_path))):
            result = cli(*args)
            assert result.returncode == 1, args
            assert result.stderr.startswith(f"lightwake: {path}: "), result.stderr
            assert len(result.stderr.splitlines()) == 1, result.stderr

    def test_lone_cr_line_ends_trace_exits_1(self, tmp_path):
        """A lone \\r ends no line, so a trace whose every line ends in one is a single line: its
        comment or its header line is refused, quoting no more than the line's start."""
        header = TraceHeader(4.0, 80 * NS_PER_S, label="lone cr")
        lf, trace = tmp_path / "lf.csv", tmp_path / "cr.csv"
        write_trace(lf, header, generate_trace(SleepModelParams(rng_seed=4), header))
        lines = lf.read_bytes().split(b"\n")
        for skipped in (0, 2):  # from the rate_hz comment line, or from the header line
            trace.write_bytes(b"\r".join(lines[skipped:]))
            assert len(trace.read_bytes()) > 20_000 and b"\n" not in trace.read_bytes()
            result = cli("run", "--trace", str(trace), "--sleep-hours", "0.05", "--period-min", "1")
            assert result.returncode == 1, result.stdout
            assert result.stderr.startswith("lightwake: line 1: ") and result.stderr.endswith("\n")
            assert len(result.stderr.splitlines()) == 1 and len(result.stderr) < 200, result.stderr

    def test_non_utf8_trace_exits_1(self, tiny_trace, tmp_path):
        trace = tmp_path / "latin1.csv"
        trace.write_bytes(b"t_s,ax_g,ay_g,az_g\n0.0,0,0,1\n0.25,\xff,0,1\n")
        melody = tmp_path / "latin1.txt"
        melody.write_bytes(b"880:100\n\xff:50\n")
        shape = ("--sleep-hours", "0.05", "--period-min", "1")
        for args, path in ((("--trace", str(trace)), trace),
                           (("--trace", str(tiny_trace), "--melody", str(melody)), melody)):
            result = cli("run", *args, *shape)
            assert result.returncode == 1, args
            assert result.stderr.startswith(f"lightwake: {path}: not UTF-8"), result.stderr
            assert len(result.stderr.splitlines()) == 1, result.stderr

    def test_alarm_wav_and_custom_melody(self, tiny_trace, tmp_path):
        melody_file = tmp_path / "tune.txt"
        melody_file.write_text("880:100\n0:50\n440:100\n", encoding="utf-8")
        wav_path = tmp_path / "alarm.wav"
        result = cli("run", "--trace", str(tiny_trace),
                     "--sleep-hours", "0.05", "--period-min", "1",
                     "--alarm-wav", str(wav_path), "--melody", str(melody_file))
        assert result.returncode == 0
        with wave.open(str(wav_path), "rb") as fh:
            assert fh.getnframes() == round(0.250 * 16000)

    @pytest.mark.parametrize("text", ["440:0.01\n", "0:500\n", "0:100\n440:0.01\n"])
    def test_silent_melody_exits_1_before_the_session(self, tiny_trace, tmp_path, text):
        melody = tmp_path / "silent.txt"
        melody.write_text(text, encoding="utf-8")
        log, wav = tmp_path / "events.jsonl", tmp_path / "alarm.wav"
        code, err = main_in_process("run", "--trace", str(tiny_trace), "--sleep-hours", "0.05",
                                    "--period-min", "1", "--log", str(log), "--alarm-wav", str(wav),
                                    "--melody", str(melody))
        assert code == 1
        assert err.startswith("lightwake: melody 'silent.txt' sounds for no frame") and err.count("\n") == 1
        assert not log.exists() and not wav.exists()

    def test_degenerate_samples_leave_stderr_empty(self, tmp_path):
        trace = tmp_path / "zeros.csv"
        rows = "".join(f"{i / 4},0,0,{0 if i % 2 else 1}\n" for i in range(24))
        trace.write_text("t_s,ax_g,ay_g,az_g\n" + rows, encoding="utf-8")
        log = tmp_path / "zeros.jsonl"
        result = cli("run", "--trace", str(trace), "--sleep-hours", "0.05", "--period-min", "1",
                     "--log", str(log))
        assert result.returncode == 0
        assert result.stderr == ""
        assert log.read_text(encoding="utf-8").count('"kind":"SampleSkipped"') == 12


class TestEndToEnd:
    def test_generate_run_charts_smoke(self, tmp_path):
        trace = tmp_path / "night.csv"
        log = tmp_path / "events.jsonl"
        charts = tmp_path / "charts"
        assert cli("generate", "--seed", "7", "--hours", "0.2",
                   "--out", str(trace)).returncode == 0
        run = cli("run", "--trace", str(trace), "--sleep-hours", "0.2",
                  "--period-min", "3", "--log", str(log))
        assert run.returncode == 0
        lines = log.read_text(encoding="utf-8").splitlines()
        assert sum('"kind":"AlarmFired"' in line for line in lines) == 1
        result = cli("charts", "--log", str(log), "--out-dir", str(charts))
        assert result.returncode == 0
        assert (charts / "summary.csv").exists()
        assert (charts / "period_0.csv").exists()

    def test_charts_missing_log_exits_1(self, tmp_path, paper_case):
        missing = tmp_path / "absent.jsonl"
        result = cli("charts", "--log", str(missing), "--out-dir", str(tmp_path / "c"))
        assert result.returncode == 1
        assert "absent.jsonl" in result.stderr
        not_a_dir = tmp_path / "file"
        not_a_dir.write_text("", encoding="utf-8")
        result = cli("charts", "--log", str(paper_case.log_path), "--out-dir", str(not_a_dir))
        assert result.returncode == 1
        assert result.stderr.startswith(f"lightwake: {not_a_dir}: "), result.stderr
        assert len(result.stderr.splitlines()) == 1, result.stderr

    def test_charts_malformed_log_exits_1(self, tmp_path):
        header = b'{"v":1,"sleep_ns":240000000000,"period_ns":60000000000}\n'
        log = tmp_path / "bad.jsonl"
        for data in BAD_HEADER_LINES + [header + line for line in BAD_RECORD_LINES]:
            log.write_bytes(data)
            code, stderr = main_in_process("charts", "--log", str(log), "--out-dir", str(tmp_path / "c"))
            assert code == 1, data
            assert stderr.startswith(f"lightwake: {log}: "), stderr
            assert len(stderr.splitlines()) == 1, stderr

    def test_charts_reads_v1_and_v2_logs_alike(self, tmp_path):
        """charts writes the same files for the v1, v2 and v3 logs of one session."""
        names = ("v1", "v2", "v3")
        for name, data in zip(names, log_versions(ENGINE_LOG)):
            log = tmp_path / f"{name}.jsonl"
            log.write_bytes(data)
            assert main_in_process("charts", "--log", str(log), "--out-dir", str(tmp_path / name)) == (0, "")
        charts = [{path.name: path.read_bytes() for path in (tmp_path / name).iterdir()}
                  for name in names]
        assert len(charts[2]) == 5 and charts[0] == charts[1] == charts[2]

    def test_speed_invariance_through_cli(self, tmp_path):
        trace = tmp_path / "t.csv"
        cli("generate", "--seed", "3", "--hours", "0.05", "--out", str(trace))
        logs = []
        for speed, name in (("0", "a.jsonl"), ("3600", "b.jsonl")):
            log = tmp_path / name
            result = cli("run", "--trace", str(trace), "--sleep-hours", "0.05",
                         "--period-min", "1", "--speed", speed, "--log", str(log))
            assert result.returncode == 0
            logs.append(log.read_bytes())
        assert logs[0] == logs[1]


def free_port() -> int:
    with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


def send_trace_lines(port: int, trace_path, deadline_s: float = 30.0):
    payload = b"".join(
        line.replace(",", " ").encode("ascii") + b"\n"
        for line in trace_path.read_text(encoding="utf-8").splitlines()
        if line and not line.startswith("#") and not line.startswith("t_s")
    )
    deadline = time.monotonic() + deadline_s
    while True:
        try:
            conn = socket.create_connection(("127.0.0.1", port), timeout=2)
            break
        except OSError:
            if time.monotonic() > deadline:
                raise
            time.sleep(0.05)
    with conn:
        try:
            conn.sendall(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # server stops reading the moment the alarm fires


class TestListen:
    def test_listen_matches_file_replay(self, tmp_path):
        header, samples = scripted_trace([0.5, 0.9], [0.7], period_s=60)
        trace = tmp_path / "live.csv"
        write_trace(trace, header, samples)
        session = ("--sleep-hours", str(3 / 60.0), "--period-min", "1")

        file_run = cli("run", "--trace", str(trace), *session)
        assert file_run.returncode == 0

        port = free_port()
        proc = subprocess.Popen(
            [sys.executable, "-m", "lightwake", "run",
             "--listen", f"127.0.0.1:{port}", *session],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, encoding="utf-8", env=child_env(),
        )
        feeder = threading.Thread(target=send_trace_lines, args=(port, trace))
        feeder.start()
        try:
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            feeder.join(timeout=10)
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, stderr
        assert parse_summary(stdout) == parse_summary(file_run.stdout)

    def test_unopenable_log_closes_the_listener_and_a_bad_source_keeps_the_log(self, tmp_path):
        missing = tmp_path / "missing" / "events.jsonl"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, stderr = main_in_process("run", "--listen", "127.0.0.1:0", "--log", str(missing))
            gc.collect()
        assert code == 1
        assert stderr.startswith(f"lightwake: {missing}: ") and stderr.count("\n") == 1, stderr
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []
        # The source is opened before the log, so a bad one leaves an existing log as it was.
        log = tmp_path / "events.jsonl"
        log.write_text("kept\n", encoding="utf-8")
        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen(1)
            port = taken.getsockname()[1]
            for source in (("--trace", str(tmp_path / "absent.csv")), ("--listen", f"127.0.0.1:{port}")):
                assert main_in_process("run", *source, "--log", str(log))[0] == 1, source
        assert log.read_text(encoding="utf-8") == "kept\n"


def send_then_end(address, payload: bytes, reset: bool):
    """Connect, send payload, then close the connection, by a reset if reset."""
    with socket.create_connection(address, timeout=10) as conn:
        try:
            conn.sendall(payload)
        except OSError:  # the session dropped the client at a bad line, or stopped at its alarm
            pass
        if reset:  # no lingering: the close sends a reset
            conn.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))


class TestListenInProcess:
    @pytest.fixture(scope="class")
    def frozen_gc(self):
        """Every object alive so far moved out of the collector's reach for the class, so that
        a gc.collect() after each example, to free what a leak left in a cycle, scans only its own."""
        gc.collect()
        gc.freeze()
        yield
        gc.unfreeze()

    @settings(derandomize=True, database=None, deadline=None, max_examples=200)
    @given(payload=st.binary(max_size=200) | wire_payloads(), reset=st.integers(0, 9).map(lambda k: k < 3))
    @example(payload=b"0.0 0 0 1\n0.25 0 0 1", reset=False)
    @example(payload=b"0.0 0 0 1\n" + b"0" * (MAX_LINE_BYTES + 1) + b"\n0.5 0 0 1\n", reset=False)
    @example(payload=b"0.0 0 0 1\n0.25 0 0 1\n", reset=True)
    def test_any_wire_payload_exits_0_or_1_with_one_line(self, frozen_gc, payload, reset):
        """run --listen over a client that sends payload, random bytes or wire rows (some odd or
        over MAX_LINE_BYTES, the last maybe unterminated), then closes or resets: exit 0 or 1,
        at most one line on stderr, and no ResourceWarning."""
        clients = []

        def listen_live(address):
            source = sources.listen_live(address)
            clients.append(threading.Thread(target=send_then_end, args=(source.address, payload, reset)))
            clients[-1].start()
            return source

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with mock.patch.object(lightwake_cli, "listen_live", listen_live):
                # 3.6 s of sleep in 0.6 s periods; wire_payloads' rows are 0.25 s apart.
                code, err = main_in_process("run", "--listen", "127.0.0.1:0", "--sleep-hours", "0.001",
                                            "--period-min", "0.01")
            for client in clients:
                client.join(timeout=10)
            gc.collect()
        assert len(clients) == 1 and not clients[0].is_alive()
        if code == 0:
            assert err == "", (payload, reset, err)
        else:
            assert code == 1 and err.startswith("lightwake: ") and err.count("\n") == 1, (payload, reset, code, err)
        assert [w.message for w in caught if issubclass(w.category, ResourceWarning)] == []


# -- generated argv, in process -------------------------------------------------

_BAD_NUMBERS = ["nan", "inf", "-1", "1e308", "abc"]
# Path flags name entries of a scratch directory that holds a trace, a log, a
# melody and a directory "out"; every other name in it is missing at first.
_TRACE, _LOG, _MELODY, _DIR, _FILE, _ABSENT, _ABSENT_DIR = (PurePosixPath(name) for name in (
    "trace.csv", "events.jsonl", "tune.txt", "out", "out/file", "absent.csv", "absent/file"))


@st.composite
def cli_argv(draw):
    """argv for generate, run --trace or charts. Each flag gets a usable value
    four times in five, else a bad one: a bad number, a missing path, a
    directory, the wrong file or, for a required flag, no flag at all. None
    leaves the flag out. --listen is never drawn: it would wait for a client."""
    def numbers(*usable):
        return [*usable, None], _BAD_NUMBERS

    def read(usable, required=True):
        others = [path for path in (_TRACE, _LOG, _MELODY, _ABSENT, _DIR) if path != usable]
        return ([usable], others + [None]) if required else ([usable, None], others)

    write = [_FILE, None], [_ABSENT_DIR, _DIR]
    command = draw(st.sampled_from(["generate", "run", "charts"]))
    flags = {
        # --hours is always given: its 8 h default at 250 Hz is 7.2 M samples.
        "generate": [("--seed", numbers("0", "7")), ("--hours", (["0.001", "0.01"], _BAD_NUMBERS)),
                     ("--rate-hz", numbers("1", "4", "250")), ("--cycle-min", numbers("1", "90")),
                     ("--out", ([_FILE], [_ABSENT_DIR, _DIR, None]))],
        # A speed of 0 or far above real time: the trace spans 3 minutes.
        "run": [("--trace", read(_TRACE)), ("--sleep-hours", numbers("0.01", "0.05", "8")),
                ("--period-min", numbers("0.01", "1", "60")), ("--speed", numbers("0", "1e6")),
                ("--log", write), ("--alarm-wav", write), ("--melody", read(_MELODY, required=False))],
        "charts": [("--log", read(_LOG)), ("--out-dir", ([_DIR], [_FILE, _TRACE, None]))],
    }[command]
    argv = [command]
    for flag, (usable, bad) in flags:
        value = draw(st.sampled_from(bad if draw(st.integers(0, 4)) == 4 else usable))
        if value is not None:
            argv += [flag, value]
    return argv


# Melody note fields: ordinary numbers, or huge, tiny, negative and non-finite
# ones. Eight notes of at most 7,500.01 ms straddle the 60 s cap; every larger
# duration is one numpy refuses to allocate. So no drawn melody needs more
# than about 30 MB to synthesize, even without the cap.
_ODD_NOTE_NUMBERS = ["0", "-0.0", "-1", "-1e300", "nan", "-nan", "inf", "-inf", "5e-324",
                     "1e-300", "1e20", "1e300", "1e999"]


def _note_field(usable):
    """A usable number three times in four, else an odd one."""
    return st.integers(0, 3).flatmap(lambda k: usable.map(repr) if k else st.sampled_from(_ODD_NOTE_NUMBERS))


_NOTE_FREQS = _note_field(st.floats(0, 9000) | st.sampled_from([8000.0, 8000.5]))
_NOTE_DURATIONS = _note_field(st.floats(1, 7500) | st.just(7500.01))
MELODY_TEXTS = st.binary(max_size=40) | st.builds(
    lambda notes, tail: "".join(f"{freq}:{duration}\n" for freq, duration in notes).encode("ascii") + tail,
    st.lists(st.tuples(_NOTE_FREQS, _NOTE_DURATIONS), max_size=8), st.just(b"") | st.binary(max_size=8))
# Lines of an engine log, out of order or corrupt, after a v1, v2 or v3 header of its shape.
_LOG_LINES = ENGINE_LOG.splitlines(keepends=True)[1:] + BAD_RECORD_LINES
LOG_BODIES = st.binary(max_size=200) | st.builds(
    lambda lines, tail: b"".join(lines) + tail, st.lists(st.sampled_from(_LOG_LINES), max_size=8),
    st.binary(max_size=8))


@pytest.fixture(scope="module")
def cli_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("in_process")
    header, samples = scripted_trace([0.5, 0.9], [0.7], period_s=60)
    write_trace(root / _TRACE, header, samples)
    with (root / _LOG).open("w", encoding="utf-8", newline="\n") as sink:
        run_session(SessionConfig(3 * 60 * NS_PER_S, 60 * NS_PER_S), samples, event_sink=sink)
    (root / _MELODY).write_text("880:100\n0:50\n", encoding="utf-8")
    (root / _DIR).mkdir()
    return root


class TestInProcess:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(argv=cli_argv())
    # Asks for 360 M samples (8 GiB): refused before anything is allocated.
    @example(argv=["generate", "--hours", "1e5", "--rate-hz", "3", "--out", _FILE])
    def test_exit_codes_and_one_line_errors(self, cli_root, argv):
        argv = [str(cli_root / arg) if isinstance(arg, PurePosixPath) else arg for arg in argv]
        code, err = main_in_process(*argv)
        assert code in (0, 1, 2), (argv, code, err)
        if code == 0:
            assert err == "", (argv, err)
        elif code == 1:
            assert err.startswith("lightwake: ") and err.count("\n") == 1, (argv, err)
        else:
            assert " error: " in err.splitlines()[-1] and "Traceback" not in err, (argv, err)

    def test_unwritable_alarm_wav_writes_its_one_line_and_nothing_else(self, cli_root):
        """A directory, or a path in a missing one: the line, and no error from a half-built writer."""
        for wav in (_DIR, _ABSENT_DIR / "alarm.wav"):
            unraisable = []
            with mock.patch.object(sys, "unraisablehook", unraisable.append):
                code, err = main_in_process("run", "--trace", str(cli_root / _TRACE), "--sleep-hours", "0.05",
                                            "--period-min", "1", "--alarm-wav", str(cli_root / wav))
                gc.collect()
            assert code == 1 and err.startswith("lightwake: ") and err.count("\n") == 1, (wav, err)
            assert unraisable == [], (wav, [str(u.exc_value) for u in unraisable])

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(body=st.binary(max_size=200) | st.builds(
        lambda rows, tail: "".join(",".join(row) + "\n" for row in rows).encode("ascii") + tail,
        sample_rows(), st.binary(max_size=8)))
    def test_any_trace_body_exits_0_or_1_with_one_line(self, cli_root, body):
        trace = cli_root / "drawn.csv"
        trace.write_bytes(TRACE_HEADER_LINE.encode("ascii") + b"\n" + body)
        code, err = main_in_process("run", "--trace", str(trace), "--sleep-hours", "0.01", "--period-min", "0.05")
        if code == 0:
            assert err == "", (body, err)
        else:
            assert code == 1 and err.startswith("lightwake: ") and err.count("\n") == 1, (body, code, err)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(text=MELODY_TEXTS)
    @example(text=b"440:1e20\n")
    @example(text=b"1e300:100\n")
    def test_any_melody_exits_0_or_1_with_one_line(self, cli_root, text):
        melody = cli_root / "drawn.txt"
        melody.write_bytes(text)
        code, err = main_in_process("run", "--trace", str(cli_root / _TRACE), "--sleep-hours", "0.05",
                                    "--period-min", "1", "--melody", str(melody),
                                    "--alarm-wav", str(cli_root / "drawn.wav"))
        if code == 0:
            assert err == "", (text, err)
        else:
            assert code == 1 and err.startswith("lightwake: ") and err.count("\n") == 1, (text, code, err)

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(version=st.sampled_from([1, 2, 3]), body=LOG_BODIES)
    def test_any_log_body_exits_0_or_1_with_one_line(self, cli_root, version, body):
        log = cli_root / "drawn.jsonl"
        log.write_bytes(b'{"v":%d,"sleep_ns":240000000000,"period_ns":60000000000}\n' % version + body)
        code, err = main_in_process("charts", "--log", str(log), "--out-dir", str(cli_root / "drawn_charts"))
        if code == 0:
            assert err == "", (body, err)
        else:
            assert code == 1 and err.startswith("lightwake: ") and err.count("\n") == 1, (body, code, err)
