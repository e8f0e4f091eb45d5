import errno
import gc
import hashlib
import io
import itertools
import random
import re
import socket
import threading
import time
import tracemalloc
import warnings
from collections import deque
from decimal import ROUND_HALF_UP, Decimal, InvalidOperation, localcontext
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightwake import (
    HOUR_NS,
    LightwakeError,
    NS_PER_S,
    RawSample,
    SessionConfig,
    SleepModelParams,
    TraceHeader,
    generate_trace,
    run_session,
)
from lightwake.engine import MINUTE_NS
from lightwake.errors import BindError, ConfigInvalid, OrderViolation, ParseError
from lightwake.motion import raw_samples
from lightwake.sources import (
    MAX_LINE_BYTES,
    TRACE_HEADER_LINE,
    _rows,
    _sample_count,
    _samples,
    _wire_blocks,
    format_seconds,
    listen_live,
    read_trace,
    seconds_to_ns,
    stage_schedule,
    write_trace,
)
from reference import delta_sequence, per_period_maxima


def time_outcome(convert, token):
    """convert(token), or ValueError when it raises one."""
    try:
        return convert(token)
    except ValueError:
        return ValueError


def write_text(tmp_path, text, name="trace.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


WELL_FORMED = """\
# rate_hz=4.0
# label=bench test
t_s,ax_g,ay_g,az_g
0.000000000,0.01,0.02,0.99
0.250000000,0.0,0.0,1.0
0.500000000,-0.3,0.1,0.95
0.750000000,0.02,-0.01,1.01
"""


class TestTraceFiles:
    def test_well_formed_four_rows(self, tmp_path):
        header, samples = read_trace(write_text(tmp_path, WELL_FORMED))
        assert len(samples) == 4
        assert header.sample_rate_hz == 4.0
        assert header.label == "bench test"
        assert [s.t_ns for s in samples] == [0, 250_000_000, 500_000_000, 750_000_000]
        assert samples[0] == RawSample(0, 0.01, 0.02, 0.99)
        assert header.duration_ns == 750_000_000

    def test_malformed_field_reports_line(self, tmp_path):
        for token, message in (("abc", "bad acceleration field {!r}"),
                               ("nan", "non-finite acceleration field {!r}"),
                               ("-6.2", "acceleration {!r} exceeds +/-5 g")):
            for position in range(3):
                comps = ["0.01", "0.02", "0.99"]
                comps[position] = token
                bad = "t_s,ax_g,ay_g,az_g\n1.0," + ",".join(comps) + "\n"
                with pytest.raises(ParseError) as err:
                    read_trace(write_text(tmp_path, bad))
                # The message names the token without the last field's line end.
                assert str(err.value) == "line 2: " + message.format(token)
        # Of two bad fields, the first in row order names the error, whatever their kinds.
        for comps, message in (("6.2,abc,0.99", "acceleration '6.2' exceeds +/-5 g"),
                               ("0.01,nan,abc", "non-finite acceleration field 'nan'"),
                               ("abc,-6.2,nan", "bad acceleration field 'abc'")):
            with pytest.raises(ParseError) as err:
                read_trace(write_text(tmp_path, f"t_s,ax_g,ay_g,az_g\n1.0,{comps}\n"))
            assert str(err.value) == "line 2: " + message

    def test_non_monotone_timestamps(self, tmp_path):
        bad = "t_s,ax_g,ay_g,az_g\n2.0,0,0,1\n1.5,0,0,1\n"
        with pytest.raises(OrderViolation) as err:
            read_trace(write_text(tmp_path, bad))
        assert "line 3" in str(err.value)

    def test_out_of_range_component(self, tmp_path):
        bad = "t_s,ax_g,ay_g,az_g\n0.0,6.2,0,0\n"
        with pytest.raises(ParseError):
            read_trace(write_text(tmp_path, bad))

    def test_missing_header(self, tmp_path):
        with pytest.raises(ParseError):
            read_trace(write_text(tmp_path, "0.0,0,0,1\n"))

    def test_wrong_field_count(self, tmp_path):
        with pytest.raises(ParseError):
            read_trace(write_text(tmp_path, "t_s,ax_g,ay_g,az_g\n0.0,0,1\n"))

    def test_negative_or_non_finite_values(self, tmp_path):
        for body in ("-1.0,0,0,1", "0.0,nan,0,1", "1e999999999,0,0,1", "1e999990,0,0,1"):
            with pytest.raises(ParseError):
                read_trace(write_text(tmp_path, f"t_s,ax_g,ay_g,az_g\n{body}\n"))
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"t_s,ax_g,ay_g,az_g\n0.0,\xff,0,1\n")
        with pytest.raises(ParseError):
            read_trace(path)

    def test_bad_row_and_non_utf8_byte_report_the_earlier_line(self, tmp_path):
        """Both faults in one 64 KiB block: the one on the earlier line is the error."""
        rows = [f"{format_seconds(i * 250_000_000)},0.01,0.02,0.99\n" for i in range(2000)]
        rows[4] = "1.0,2\n"  # line 6, after the header line
        data = bytearray((TRACE_HEADER_LINE + "\n" + "".join(rows)).encode("ascii"))
        data[20_000] = 0xFF
        path = tmp_path / "two_faults.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            read_trace(path)
        assert str(err.value) == "line 6: expected 4 fields (t_s ax ay az), got 2"
        data[80] = 0xFF  # on line 4
        path.write_bytes(data)
        with pytest.raises(ParseError) as err:
            read_trace(path)
        assert str(err.value) == f"{path}: not UTF-8 text on line 4"
        path.write_bytes(b"# label=\xff\n" + data)
        with pytest.raises(ParseError) as err:
            read_trace(path)
        assert str(err.value) == f"{path}: not UTF-8 text on line 1"

    def test_byte_order_mark_is_read_like_no_mark(self, tmp_path):
        """A trace saved with a UTF-8 byte-order mark, as spreadsheet tools save CSV, reads as without it."""
        # First a comment line, then the header line, then a bad row on line 8.
        for text in (WELL_FORMED, WELL_FORMED.split("\n", 2)[2], WELL_FORMED + "1.0,0,junk,1\n"):
            plain = outcome(lambda: read_trace(write_text(tmp_path, text)))
            marked = outcome(lambda: read_trace(write_text(tmp_path, "\ufeff" + text)))
            assert (marked[0], str(marked[1])) == (plain[0], str(plain[1]))
        assert str(plain[1]) == "line 8: bad acceleration field 'junk'"

    def test_bad_rate_metadata(self, tmp_path):
        with pytest.raises(ParseError):
            read_trace(write_text(tmp_path, "# rate_hz=900\nt_s,ax_g,ay_g,az_g\n"))

    def test_rounding_half_up(self):
        assert seconds_to_ns("0.2500000005") == 250_000_001
        assert seconds_to_ns("0.2500000004") == 250_000_000
        assert seconds_to_ns("1e-9") == 1
        # Exact decimal arithmetic, immune to float double rounding.
        assert seconds_to_ns("0.1234567895") == 123_456_790
        assert seconds_to_ns("999999999999.9999999995") == 10**21
        # A zero is 0 s, whatever its exponent.
        for token in ("0e12", "0e20", "0.0e15"):
            assert seconds_to_ns(token) == 0
        # Forms outside the 9-decimal one int() reads keep their Decimal reading and
        # messages, also when they carry 9 decimals.
        for token, ns in (("٣.5", 3_500_000_000), ("1_0.5", 10_500_000_000),
                          (" 1.5", 1_500_000_000), ("+1.5", 1_500_000_000),
                          ("1.", 1_000_000_000), (".5", 500_000_000),
                          ("1.5e3", 1_500_000_000_000), ("٣.500000000", 3_500_000_000),
                          ("1_0.500000000", 10_500_000_000), (" 1.500000000", 1_500_000_000),
                          ("+1.500000000", 1_500_000_000), (".500000000", 500_000_000),
                          ("1.500000000e3", 1_500_000_000_000), ("1.5000000e1", 15_000_000_000),
                          ("1.0000_0000", 1_000_000_000), ("1.00000000 ", 1_000_000_000)):
            assert seconds_to_ns(token) == ns
        for token, message in (("1.²", "not a decimal number: '1.²'"),
                               ("1.²00000000", "not a decimal number: '1.²00000000'"),
                               ("1e1.000000000", "not a decimal number: '1e1.000000000'"),
                               ("1000000000000.0", "time value '1000000000000.0' out of range"),
                               ("1000000000000.000000000",
                                "time value '1000000000000.000000000' out of range")):
            with pytest.raises(ValueError) as err:
                seconds_to_ns(token)
            assert str(err.value) == message
        # A leading '+' never changes the result, also past Decimal's 28 digits,
        # where rounding the scaled value to 28 digits first would round twice.
        for token in ("1.000000000", "1.0000000004999999999999999999999",
                      "123456789012.9999999995000000000000001"):
            assert seconds_to_ns(token) == seconds_to_ns("+" + token)
        assert seconds_to_ns("1.0000000004999999999999999999999") == 1_000_000_000

    @settings(derandomize=True, database=None, deadline=None, max_examples=500)
    @given(sign=st.sampled_from(["", "+"]), whole=st.text("0123456789", max_size=13),
           frac=st.text("0123456789", min_size=9, max_size=9) | st.text("0123456789", max_size=40)
           # Just under half a nanosecond, past Decimal's 28 digits.
           | st.from_regex(r"[0-9]{9}49{18,28}[0-9]{0,2}", fullmatch=True))
    def test_plain_times_match_decimal_half_up(self, sign, whole, frac):
        def decimal_half_up(token):
            try:
                value = Decimal(token)
            except InvalidOperation as exc:
                raise ValueError(f"not a decimal number: {token!r}") from exc
            if value >= 10**12:
                raise ValueError(f"time value {token!r} out of range")
            # 60 digits hold any drawn token exactly, so the one rounding is the half-up one.
            with localcontext() as context:
                context.prec = 60
                return int((value * 10**9).to_integral_value(ROUND_HALF_UP))

        for token in (f"{sign}{whole}.{frac}", sign + whole):
            assert time_outcome(seconds_to_ns, token) == time_outcome(decimal_half_up, token)

    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(31)
        samples = [
            RawSample(i * 250_000_000 + int(rng.integers(0, 1000)), *comps)
            for i, comps in enumerate(rng.uniform(-4.9, 4.9, size=(200, 3)).tolist())
        ]
        # Past 2**23 s a float division no longer holds nine exact decimals.
        samples.append(RawSample(100_000_000_123_456_789, 0.0, 0.0, 1.0))
        header = TraceHeader(sample_rate_hz=4.0, duration_ns=samples[-1].t_ns, label="rt")
        path = tmp_path / "rt.csv"
        write_trace(path, header, samples)
        read_header, read_samples = read_trace(path)
        assert read_samples == samples
        assert read_header.label == "rt"
        path2 = tmp_path / "rt2.csv"
        write_trace(path2, read_header, read_samples)
        assert path.read_bytes() == path2.read_bytes()

    def test_every_accepted_label_reads_back_as_written(self, tmp_path):
        path = tmp_path / "label.csv"
        for label in ("", "rt", "  leading spaces", "key=value=x", "a\u2028b", "a\x0cb", "\tx y"):
            write_trace(path, TraceHeader(4.0, 0, label), [RawSample(0, 0.0, 0.0, 1.0)])
            assert read_trace(path)[0].label == label


# Nights whose write_trace bytes are pinned, with the label "seed=<seed>".
PINNED_TRACES = [
    (5, 16.0, 1.0, 120.0, "0f1a4c0fbe479c50f0ee7b1e6369fd6734cde5dfc5d8d40e83334c5fd7b2edf4"),
    (9, 250.0, 0.05, 70.0, "3f3aa7781efd3be627ba2eb5e08b5183ed110042a415f83df0f8738b65df6064"),
    (3, 1.0, 0.0001, 90.0, "8ddfc61bb4d7e37f9eec5601a2d18616a86d6f91d2cff6e9cc1e3e83af9732e9"),
]


class TestGenerator:
    def test_seeded_determinism(self, tmp_path):
        params = SleepModelParams(rng_seed=42)
        header = TraceHeader(4.0, 600 * NS_PER_S)
        a = generate_trace(params, header)
        b = generate_trace(params, header)
        assert a == b
        pa, pb = tmp_path / "a.csv", tmp_path / "b.csv"
        write_trace(pa, header, a)
        write_trace(pb, header, b)
        assert pa.read_bytes() == pb.read_bytes()

    @pytest.mark.parametrize("seed, rate_hz, hours, cycle_min, sha256", PINNED_TRACES)
    def test_trace_bytes_are_pinned(self, tmp_path, seed, rate_hz, hours, cycle_min, sha256):
        header = TraceHeader(rate_hz, int(round(hours * HOUR_NS)), label=f"seed={seed}")
        params = SleepModelParams(cycle_length_ns=int(round(cycle_min * MINUTE_NS)), rng_seed=seed)
        path = tmp_path / "night.csv"
        write_trace(path, header, generate_trace(params, header))
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    def test_different_seeds_differ(self):
        header = TraceHeader(4.0, 60 * NS_PER_S)
        assert generate_trace(SleepModelParams(rng_seed=1), header) != \
               generate_trace(SleepModelParams(rng_seed=2), header)

    def test_quiescent_case(self):
        params = SleepModelParams(quiet_noise_sigma=0.0, burst_rate_light=0.0,
                                  burst_rate_deep=0.0, rng_seed=5)
        samples = generate_trace(params, TraceHeader(4.0, 120 * NS_PER_S))
        assert all((s.ax, s.ay, s.az) == (0.0, 0.0, 1.0) for s in samples)
        _, values = delta_sequence(samples, 120 * NS_PER_S)
        assert (values == 0.0).all()

    def test_samples_satisfy_invariants(self):
        # Noise this loud reaches the sensor's range, so the generator's clip is exercised.
        samples = generate_trace(SleepModelParams(rng_seed=9, quiet_noise_sigma=2.0),
                                 TraceHeader(4.0, 300 * NS_PER_S))
        components = [c for s in samples for c in (s.ax, s.ay, s.az)]
        assert all(abs(c) <= 5.0 for c in components)
        assert any(abs(c) == 5.0 for c in components)
        assert all(b.t_ns > a.t_ns for a, b in zip(samples, samples[1:]))
        assert samples[0].t_ns == 0

    def test_sample_count_and_grid(self):
        samples = generate_trace(SleepModelParams(rng_seed=0), TraceHeader(4.0, 600 * NS_PER_S))
        assert len(samples) == 2400
        assert samples[-1].t_ns == 599_750_000_000

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(rate=st.one_of(st.sampled_from([1.0, 3.0, 4.0, 7.0, 100 / 3, 250.0]), st.floats(1.0, 250.0)),
           row=st.integers(0, 800), offset=st.sampled_from([-1, 0, 1, None]))
    def test_sample_count_is_the_grid_times_below_the_duration(self, rate, row, offset):
        """Against enumeration of the grid, for durations at a grid time, 1 ns either side of one,
        and between two."""
        ns_per_sample = NS_PER_S / rate
        grid = [int(i * ns_per_sample + 0.5) for i in range(row + 2)]
        duration_ns = max(0, grid[row] + offset if offset is not None else (grid[row] + grid[row + 1]) // 2)
        assert _sample_count(TraceHeader(rate, duration_ns)) == sum(t < duration_ns for t in grid)

    def test_eight_hour_defaults_track_light_sleep(self):
        # Verified by brute-force per-period scan: every hour moves, and the
        # hours richer in light sleep move more on average.
        params = SleepModelParams(rng_seed=0)
        samples = generate_trace(params, TraceHeader(4.0, 8 * HOUR_NS))
        maxima = per_period_maxima(samples, 8 * HOUR_NS, HOUR_NS)
        assert all(maxima[h] > 0.0 for h in range(8))
        occupancy = [0] * 8
        for start, end, stage in stage_schedule(params, 8 * HOUR_NS):
            if stage != "light":
                continue
            for h in range(8):
                lo, hi = h * HOUR_NS, (h + 1) * HOUR_NS
                occupancy[h] += max(0, min(end, hi) - max(start, lo))
        median = sorted(occupancy)[4]
        high = [maxima[h] for h in range(8) if occupancy[h] >= median]
        low = [maxima[h] for h in range(8) if occupancy[h] < median]
        assert sum(high) / len(high) > sum(low) / len(low)

    def test_stage_schedule_partitions_the_night(self):
        params = SleepModelParams(rng_seed=0)
        duration = int(3.5 * params.cycle_length_ns)
        segments = stage_schedule(params, duration)
        assert segments[0][0] == 0
        assert segments[-1][1] == duration
        for (s0, e0, _), (s1, e1, _) in zip(segments, segments[1:]):
            assert e0 == s1
            assert e1 > s1
        assert [s[2] for s in segments[:3]] == ["deep", "light", "rem"]

    @pytest.mark.parametrize("bad", [
        dict(burst_rate_light=-1.0),
        dict(burst_rate_deep=2.0, burst_rate_light=1.0),
        dict(quiet_noise_sigma=-0.1),
        dict(cycle_length_ns=0),
        dict(rng_seed=-1),
        dict(quiet_noise_sigma=float("nan")),
        dict(burst_rate_deep=float("nan")),
        dict(cycle_length_ns=60 * NS_PER_S - 1),
    ])
    def test_invalid_params(self, bad):
        with pytest.raises(ConfigInvalid):
            SleepModelParams(**bad)

    def test_invalid_rate(self, tmp_path):
        for rate in (0.5, 250.5, float("nan")):
            with pytest.raises(ConfigInvalid):
                TraceHeader(rate, 60 * NS_PER_S)
        with pytest.raises(ConfigInvalid):
            TraceHeader(4.0, -1)
        # A line break would split the trace's label line, trailing whitespace is not read back,
        # and a lone surrogate cannot be written as UTF-8: the header is refused before any file.
        path = tmp_path / "refused.csv"
        for label in ("x\ny", "x\ry", "x\r\n", "tab\t", "space ", " ", "x\u2028", "a\ud800"):
            with pytest.raises(ConfigInvalid):
                write_trace(path, TraceHeader(4.0, 0, label), [RawSample(0, 0.0, 0.0, 1.0)])
            assert not path.exists(), label


def run_client(address, payload: bytes):
    with socket.create_connection(address, timeout=10) as conn:
        conn.sendall(payload)


def collect_live(payload: bytes, timeout: float = 10.0):
    source = listen_live(("127.0.0.1", 0), timeout=timeout)
    client = threading.Thread(target=run_client, args=(source.address, payload))
    client.start()
    try:
        return list(source)
    finally:
        client.join(timeout=10)
        source.close()


def serve_live(payload: bytes, read):
    """read(source) over a LiveSource whose one client sends payload, and what the client then read.

    The client ends its stream, then reads once: b"" is EOF, and a reset means the
    source closed with rows unread. The client is joined before the source
    is closed, so a source that keeps the connection open fails the read.
    """
    source = listen_live(("127.0.0.1", 0), timeout=10)
    received = []

    def client():
        with socket.create_connection(source.address, timeout=10) as conn:
            try:
                conn.sendall(payload)
                conn.shutdown(socket.SHUT_WR)  # the stream ends here
                received.append(conn.recv(1))
            except OSError as exc:  # a timeout, with no errno, is not a close
                if exc.errno not in (errno.ECONNRESET, errno.EPIPE, errno.ENOTCONN):
                    raise
                received.append("reset")

    thread = threading.Thread(target=client)
    thread.start()
    try:
        return read(source), received
    finally:
        thread.join(timeout=10)
        source.close()


def wire_lines(samples) -> list[str]:
    """The samples as the bench sender's canonical wire rows."""
    return [f"{format_seconds(s.t_ns)} {s.ax!r} {s.ay!r} {s.az!r}\n" for s in samples]


class TestLiveSource:
    def test_direct_parse(self):
        samples = collect_live(b"0.000 0.01 0.02 0.99\n\n0.25 0.0 0.0 1.0\n")
        assert samples == [
            RawSample(0, 0.01, 0.02, 0.99),
            RawSample(250_000_000, 0.0, 0.0, 1.0),
        ]

    def test_final_partial_line_still_parsed(self):
        for payload in (b"0.0 0 0 1\n0.25 0 0 1", b"0.0 0 0 1\n0.25 0 0 1\n \t "):
            samples = collect_live(payload)
            assert len(samples) == 2

    def test_out_of_range_is_protocol_error(self):
        with pytest.raises(ParseError):
            collect_live(b"0.5 6.2 0 0\n")

    def test_malformed_line_is_protocol_error(self):
        with pytest.raises(ParseError):
            collect_live(b"0.5 1.0 junk\n")

    def test_non_monotone_is_order_error(self):
        with pytest.raises(OrderViolation) as err:
            collect_live(b"0.5 0 0 1\n0.25 0 0 1\n")
        assert "line 2" in str(err.value)

    def test_error_closes_connection(self):
        for payload, message in (
            (b"0.0 0 0 1\nnot a sample\n", "line 2"),
            # No newline ever: the source must neither wait for one nor buffer on.
            (b"0" * (MAX_LINE_BYTES + 1), f"line 1: longer than {MAX_LINE_BYTES} bytes"),
        ):
            source = listen_live(("127.0.0.1", 0), timeout=10)
            received = []

            def client():
                with socket.create_connection(source.address, timeout=10) as conn:
                    conn.sendall(payload)
                    # A closed peer surfaces as EOF on the next read.
                    conn.settimeout(10)
                    received.append(conn.recv(1))

            thread = threading.Thread(target=client)
            thread.start()
            start = time.monotonic()
            try:
                with pytest.raises(ParseError) as err:
                    list(source)
                assert time.monotonic() - start < 5.0  # well before the 10 s timeout
            finally:
                thread.join(timeout=10)
                source.close()
            assert message in str(err.value)
            assert received == [b""]

    def test_bind_error_on_taken_port(self):
        blocker = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        try:
            with pytest.raises(BindError):
                listen_live(blocker.getsockname()[:2])
        finally:
            blocker.close()

    def test_bind_error_on_port_out_of_range(self):
        for port in (65536, -1):
            with pytest.raises(BindError):
                listen_live(("127.0.0.1", port))

    def test_final_unterminated_line_of_max_line_bytes_passes(self):
        rows = wire_lines(generate_trace(SleepModelParams(rng_seed=6), TraceHeader(250.0, 4 * NS_PER_S)))
        for width, want in ((MAX_LINE_BYTES, (1000, None, None)),
                            (MAX_LINE_BYTES + 1, (999, ParseError, f"line 1000: longer than {MAX_LINE_BYTES} bytes"))):
            payload = ("".join(rows[:-1]) + rows[-1][:-1].ljust(width)).encode("ascii")
            (got, *error), received = serve_live(payload, drain)
            assert (len(got), *error) == want
            assert (got, *error) == drain(_samples(readline_rows(payload), None))
            assert received == [b""]

    def test_for_next_and_close_read_one_stream(self):
        """for and next read one sample stream, alone or interleaved, across wire Blocks; close ends
        it, mid-Block too, and closes the connection; closing before reading, or twice, is harmless."""
        samples = generate_trace(SleepModelParams(rng_seed=9), TraceHeader(250.0, 12 * NS_PER_S))
        payload = "".join(wire_lines(samples)).encode("ascii")
        assert len(samples) == 3000 and len(payload) > 3 * (1 << 16)

        def by_next(source):
            got = [next(source) for _ in samples]
            with pytest.raises(StopIteration):
                next(source)
            return got

        def interleaved(source):
            got = [next(source), next(source)]
            for sample in source:
                got.append(sample)
                if len(got) == 1500:
                    break
            got += [next(source) for _ in range(700)]
            return got + list(source)

        def closed_mid_block(source):
            got = [next(source) for _ in range(10)]
            source.close()
            source.close()
            got += list(source)
            with pytest.raises(StopIteration):
                next(source)
            return got

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            for read in (list, by_next, interleaved):
                assert serve_live(payload, read) == (samples, [b""]), read
            got, received = serve_live(payload, closed_mid_block)
            assert got == samples[:10]
            assert received in ([b""], ["reset"])
            unread = listen_live(("127.0.0.1", 0))
            unread.close()
            unread.close()
            assert list(unread) == []
            del unread
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


# -- one row grammar for both sources ------------------------------------------

_ODD_TOKENS = st.sampled_from(["5.5", "-6", "nan", "-inf", "1e400", "1e999999999", "-1",
                               "0x1", "1_0", "+.5", "abc", "#"])
_PAD = st.sampled_from(["", "", " ", "  ", "\t"])
# Built once: a fresh strategy object is validated at each draw.
_COMPONENT = st.floats(-5.0, 5.0).map(repr)
_TIME_STEP = st.sampled_from([1, 1, 2, 5, 0, -1])
_N_COMPONENTS = st.sampled_from([3] * 14 + [2, 4])


@st.composite
def sample_rows(draw, max_rows=8):
    """Up to max_rows rows as token lists (an empty list is a blank row), padded on both sides.

    Most rows are valid, so that whole streams parse; some repeat or step
    back in time, and a few carry an odd token or a wrong field count. In
    half the examples the times are format_seconds' and nothing is padded,
    so that the readers' canonical block path engages.
    """
    def rarely(usual):
        return draw(_ODD_TOKENS if draw(st.integers(0, 24)) == 0 else usual)

    canonical = draw(st.booleans())
    pad = st.just("") if canonical else _PAD
    rows = []
    t = draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, max_rows))):
        if draw(st.integers(0, 9)) == 0:
            rows.append([])
            continue
        t += draw(_TIME_STEP if draw(st.booleans()) else st.just(1))
        tokens = [rarely(st.just(format_seconds(t * 250_000_000) if canonical else str(t / 4)))]
        n_comps = draw(_N_COMPONENTS)
        tokens += [rarely(_COMPONENT) for _ in range(n_comps)]
        rows.append([draw(pad) + tok + draw(pad) for tok in tokens])
    return rows


def outcome(read):
    try:
        return read(), None
    except LightwakeError as exc:
        return None, exc


def error_line(exc) -> int:
    return int(re.match(r"line (\d+): ", str(exc)).group(1))


@pytest.fixture(scope="module")
def scratch_trace(tmp_path_factory):
    return tmp_path_factory.mktemp("rows") / "rows.csv"


class TestOneRowGrammar:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(rows=sample_rows())
    def test_trace_and_wire_agree(self, scratch_trace, rows):
        scratch_trace.write_text(
            "".join([TRACE_HEADER_LINE + "\n"] + [",".join(r) + "\n" for r in rows]),
            encoding="utf-8")
        from_trace, trace_err = outcome(lambda: read_trace(scratch_trace)[1])
        wire = "".join(" ".join(r) + "\n" for r in rows).encode("ascii")
        from_wire, wire_err = outcome(lambda: collect_live(wire))
        assert from_trace == from_wire
        assert type(trace_err) is type(wire_err)
        if wire_err is not None:
            # The trace's header line comes before its rows.
            assert error_line(trace_err) == error_line(wire_err) + 1
            # Both name the token as read, without padding or line end.
            assert str(trace_err).split(": ", 1)[1] == str(wire_err).split(": ", 1)[1]

    @pytest.mark.parametrize("rows, error, message", [
        (["0,0,1"], ParseError, "expected 4 fields (t_s ax ay az), got 3"),
        (["abc,0,0,1"], ParseError, "bad time field 'abc': not a decimal number: 'abc'"),
        (["1e12,0,0,1"], ParseError, "bad time field '1e12': time value '1e12' out of range"),
        (["inf,0,0,1"], ParseError, "bad time field 'inf': non-finite time value: 'inf'"),
        (["-1.0,0,0,1"], ParseError, "negative timestamp '-1.0'"),
        (["2.0,0,0,1", "1.5,0,0,1"], OrderViolation,
         "timestamp 1500000000 ns does not increase past 2000000000 ns"),
        # A field error comes before the order error on the same row.
        (["2.0,0,0,1", "1.5,abc,0,1"], ParseError, "bad acceleration field 'abc'"),
    ])
    def test_row_errors_pin_their_type_and_text(self, tmp_path, rows, error, message):
        """The last row is the bad one, in a trace (after its header line) and on the wire."""
        trace = write_text(tmp_path, "".join(f"{row}\n" for row in [TRACE_HEADER_LINE, *rows]))
        with pytest.raises(LightwakeError) as err:
            read_trace(trace)
        assert (err.type, str(err.value)) == (error, f"line {len(rows) + 1}: {message}")
        wire = "".join(row.replace(",", " ") + "\n" for row in rows)
        with pytest.raises(LightwakeError) as err:
            list(_rows([wire], None, 1, MAX_LINE_BYTES))
        assert (err.type, str(err.value)) == (error, f"line {len(rows)}: {message}")

    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(body=st.binary(max_size=200))
    def test_any_bytes_give_samples_or_a_lightwake_error(self, scratch_trace, body):
        scratch_trace.write_bytes(TRACE_HEADER_LINE.encode() + b"\n" + body)
        outcome(lambda: read_trace(scratch_trace))


# -- block decoding ---------------------------------------------------------------

# Times in other forms than format_seconds' (8 or 10 decimals, shortest), and
# components out of range, infinite, NaN or not numbers at all.
_ODD_TIMES = [lambda t: f"{t / 4:.8f}", lambda t: f"{t / 4:.10f}", lambda t: str(t / 4)]
_ODD_COMPONENTS = st.sampled_from(["5.5", "-6.0", "5.000000000000001", "1e400", "-1e400", "nan", "1-2", "e"])
_SHORT_COMPONENTS = ["0.0", "-0.0", "5.0", "-5.0", "1.0", "-1.5", "0.25", "1e-05", "5e-324", "-5e-324"]


def _component(rnd):
    """A float in [-5, 5] as repr writes it: mostly of 16 or 17 significant digits, else of a
    short form, -0.0 among them, or of an exponent form from e-05 down to 5e-324."""
    form = rnd.randrange(8)
    if form == 0:
        return rnd.choice(_SHORT_COMPONENTS)
    if form == 1:
        return repr(rnd.uniform(-5.0, 5.0) * 10.0 ** -rnd.randint(5, 323))
    return repr(rnd.uniform(-5.0, 5.0))


@st.composite
def wire_payloads(draw):
    """Wire bytes of mostly canonical rows (format_seconds times, repr floats).

    Some rows are odd: a time in another form, an odd component, a \\r\\n
    ending, a line padded to around MAX_LINE_BYTES, a blank line, or a
    sample_rows row. The final line may lack its newline.
    """
    lines = []
    rnd = draw(st.randoms(use_true_random=True))  # the components: a draw for each costs more than a test
    t = draw(st.integers(0, 2))
    for _ in range(draw(st.integers(0, 12))):
        t += draw(st.sampled_from([1, 1, 1, 1, 2, 0, -1]))
        time_token = format_seconds(t * 250_000_000)
        comps = [_component(rnd) for _ in range(3)]
        kind = draw(st.integers(0, 24))
        if kind == 0:
            time_token = draw(st.sampled_from(_ODD_TIMES))(t)
        elif kind == 1:
            comps[draw(st.integers(0, 2))] = draw(_ODD_COMPONENTS)
        line = " ".join([time_token, *comps])
        if kind == 2:
            line += "\r"
        elif kind == 3:
            # With its newline, MAX_LINE_BYTES - 1 to + 2 bytes long, or far longer.
            line = line.ljust(MAX_LINE_BYTES + draw(st.sampled_from([-2, -1, 0, 1, 2000])))
        elif kind == 4:
            line = draw(_PAD)
        elif kind == 5:
            rows = draw(sample_rows(max_rows=1))
            line = " ".join(rows[0]) if rows else ""
        lines.append(line.encode("ascii") + b"\n")
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1][:-1]
    return b"".join(lines)


class ChunkedConnection:
    """A connection whose recv returns the payload in chunks of the sizes, cycled, then EOF."""

    def __init__(self, payload: bytes, sizes: list[int]):
        self.payload, self.sizes = payload, itertools.cycle(sizes)

    def recv(self, bufsize: int) -> bytes:
        size = min(next(self.sizes), bufsize)
        chunk, self.payload = self.payload[:size], self.payload[size:]
        return chunk


def readline_rows(payload: bytes):
    """The wire's numbered lines as readline(MAX_LINE_BYTES + 1) reads them, refusing longer ones."""
    wire = io.BytesIO(payload)
    for lineno, line in enumerate(iter(lambda: wire.readline(MAX_LINE_BYTES + 1), b""), start=1):
        if len(line) > MAX_LINE_BYTES:
            raise ParseError(f"line {lineno}: longer than {MAX_LINE_BYTES} bytes")
        yield lineno, line.decode("ascii", "replace")


def drain(samples):
    """The samples an iterator yields before it ends or raises, and the error's type and text."""
    got = []
    try:
        for sample in samples:
            got.append(sample)
    except LightwakeError as exc:
        return got, type(exc), str(exc)
    return got, None, None


@st.composite
def canonical_samples(draw):
    """Time-ordered samples with any finite components in range, as the sensor gives them.

    Their times are below 1e12 s, so format_seconds writes 1..12 whole digits;
    the components include -0.0, +/-5.0 and a 24-character repr.
    """
    component = st.floats(-5.0, 5.0) | st.sampled_from([-0.0, 5.0, -5.0, -2.2250738585072014e-308])
    t_ns = draw(st.integers(0, 10**21 - 10**14))
    samples = []
    for step in draw(st.lists(st.integers(1, 10**12), max_size=40)):
        samples.append(RawSample(t_ns, draw(component), draw(component), draw(component)))
        t_ns += step
    return samples


def flat(blocks):
    """The samples of _rows' Blocks, one per row, as LiveSource yields them."""
    for t_ns, xyz in blocks:
        yield from raw_samples(t_ns, *xyz.tolist())


def refuse_rows(lines, sep, prev_t=-1):
    """A stand-in for sources._samples that fails on any row that is not blank."""
    for lineno, line in lines:
        assert not line.strip(), f"line {lineno} left the bulk path: {line!r}"
    yield from ()
    return prev_t


class TestBlockDecoding:
    @settings(derandomize=True, database=None, deadline=None, max_examples=300)
    @given(samples=canonical_samples(),
           sizes=st.lists(st.integers(1, 4000), min_size=1, max_size=4))
    def test_trace_and_bench_wire_rows_all_decode_in_bulk(self, scratch_trace, samples, sizes):
        write_trace(scratch_trace, TraceHeader(), samples)
        # The lines the bench's live-tcp sender streams.
        wire = "".join(f"{format_seconds(s.t_ns)} {s.ax!r} {s.ay!r} {s.az!r}\n" for s in samples)
        with mock.patch("lightwake.sources._samples", refuse_rows):
            from_trace = read_trace(scratch_trace)[1]
            from_wire = list(flat(_rows(_wire_blocks(ChunkedConnection(wire.encode("ascii"), sizes)), None, 1)))
        # repr tells -0.0 from 0.0.
        assert list(map(repr, from_trace)) == list(map(repr, from_wire)) == list(map(repr, samples))

    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(payload=wire_payloads(),
           sizes=st.lists(st.one_of(st.integers(1, 16), st.integers(1, 4000)), min_size=1, max_size=6))
    def test_wire_blocks_decode_like_the_row_reader(self, payload, sizes):
        blocks = _wire_blocks(ChunkedConnection(payload, sizes))
        assert drain(flat(_rows(blocks, None, 1, MAX_LINE_BYTES))) == drain(_samples(readline_rows(payload), None))

    @pytest.mark.parametrize("width", [MAX_LINE_BYTES + 76, MAX_LINE_BYTES + 1, MAX_LINE_BYTES])
    def test_long_line_inside_a_full_wire_block(self, width):
        """A line of width bytes with its newline, amid 2,000 canonical rows over a real socket:
        refused past MAX_LINE_BYTES after every earlier row, and the client dropped."""
        lines = wire_lines(generate_trace(SleepModelParams(rng_seed=5), TraceHeader(250.0, 8 * NS_PER_S)))
        lines[1000] = lines[1000][:-1].ljust(width - 1) + "\n"
        payload = "".join(lines).encode("ascii")
        assert len(lines) == 2000 and len(payload) > 2 * (1 << 16) and len(lines[1000]) == width
        want = drain(_samples(readline_rows(payload), None))
        start = time.monotonic()
        got, received = serve_live(payload, drain)
        assert time.monotonic() - start < 5.0  # well before the 10 s timeout
        assert got == want
        if width > MAX_LINE_BYTES:
            assert (len(want[0]), want[1:]) == (1000, (ParseError, f"line 1001: longer than {MAX_LINE_BYTES} bytes"))
            # Closed with the rows after the long line unread: the client reads EOF or a reset.
            assert received in ([b""], ["reset"])
        else:
            assert (len(want[0]), want[1]) == (2000, None)
            assert received == [b""]

    def test_trace_blocks_decode_like_the_row_reader(self, tmp_path):
        """A fault on, just before or just after the first row of each of read_trace's blocks."""
        path = tmp_path / "night.csv"
        write_trace(path, TraceHeader(16.0), generate_trace(SleepModelParams(rng_seed=2),
                                                            TraceHeader(16.0, 5 * 60 * NS_PER_S)))
        with path.open(encoding="utf-8") as fh:
            head = [fh.readline(), fh.readline()]
            blocks = list(iter(lambda: fh.readlines(1 << 16), []))
        rows = [row for block in blocks for row in block]
        edges = list(itertools.accumulate(map(len, blocks)))[:-1]
        assert len(edges) >= 3

        def replace_field(row, index, token):
            fields = row.split(",")
            fields[index] = token
            return ",".join(fields)

        faults = {
            "time steps back": lambda i: replace_field(rows[i], 0, rows[i - 1].split(",")[0]),
            "8-decimal time": lambda i: replace_field(rows[i], 0, rows[i].split(",")[0][:-1]),
            "out of range": lambda i: replace_field(rows[i], 1, "5.5"),
        }
        for i in (i + offset for i in edges for offset in (-1, 0, 1)):
            for name, fault in faults.items():
                lines = rows[:i] + [fault(i)] + rows[i + 1:]
                path.write_text("".join(head + lines), encoding="utf-8")
                got, err = outcome(lambda: read_trace(path)[1])
                want, want_type, want_text = drain(_samples(enumerate(lines, len(head) + 1), ","))
                if want_type is None:
                    assert err is None and got == want, (name, i)
                else:
                    assert (type(err), str(err)) == (want_type, want_text), (name, i)

    def test_night_over_tcp_in_random_pieces_logs_like_trace_replay(self, tmp_path):
        header = TraceHeader(16.0, HOUR_NS // 2)
        trace = tmp_path / "night.csv"
        write_trace(trace, header, generate_trace(SleepModelParams(rng_seed=12), header))
        config = SessionConfig(header.duration_ns, header.duration_ns // 6)
        replay = io.StringIO()
        run_session(config, read_trace(trace)[1], event_sink=replay)

        rows = trace.read_text(encoding="utf-8").splitlines(keepends=True)[2:]
        payload = "".join(rows).replace(",", " ").encode("ascii")
        rng = random.Random(12)
        pieces = []
        while payload:
            size = rng.choice((1, 3, 64, 1500, 9000, 70000))
            pieces.append(payload[:size])
            payload = payload[size:]

        def client(address):
            with socket.create_connection(address, timeout=10) as conn:
                try:
                    for piece in pieces:
                        conn.sendall(piece)
                except (BrokenPipeError, ConnectionResetError):
                    pass  # the session stops reading at its alarm

        source = listen_live(("127.0.0.1", 0), timeout=10)
        thread = threading.Thread(target=client, args=(source.address,))
        thread.start()
        wire = io.StringIO()
        try:
            run_session(config, source, event_sink=wire)
        finally:
            source.close()
            thread.join(timeout=10)
        assert not thread.is_alive()
        assert wire.getvalue() == replay.getvalue()

    def test_wire_memory_is_bounded_by_the_block_not_the_stream(self):
        samples = generate_trace(SleepModelParams(rng_seed=4), TraceHeader(250.0, 4 * 60 * NS_PER_S))

        def peak_bytes(n_rows):
            payload = "".join(f"{format_seconds(s.t_ns)} {s.ax!r} {s.ay!r} {s.az!r}\n"
                              for s in samples[:n_rows]).encode("ascii")
            source = listen_live(("127.0.0.1", 0), timeout=10)
            client = threading.Thread(target=run_client, args=(source.address, payload))
            tracemalloc.start()
            try:
                client.start()
                deque(source, maxlen=0)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
                client.join(timeout=10)
                source.close()

        assert len(samples) == 60_000
        peak_bytes(1_000)  # the first stream pays the one-time costs
        small, large = peak_bytes(15_000), peak_bytes(60_000)
        assert large < 1.5 * small, (small, large)
