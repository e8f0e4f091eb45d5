"""Golden event logs: byte-exact sha256 pins of whole sessions.

The event log is the audit trail of the alarm state machine, so any change
to which records are written, their order, timestamps or field order shows
up here as a changed digest. The pins were taken while the engine still
translated the detector's return values into records; the detector writing
its own records must leave every byte as it was.
"""

import hashlib
import io

import pytest

from lightwake import NS_PER_S, RawSample, SessionConfig, run_session
from test_engine import quiescent_samples
from trace_builders import scripted_trace

P = 60 * NS_PER_S


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def degenerate_sample_skipped():
    _, samples = scripted_trace([0.5, 0.9], [0.3, 0.7], period_s=60)
    samples[7] = RawSample(samples[7].t_ns, 0.0, 0.0, 0.0)
    return samples, 3 * P


def empty_learning_period():
    _, samples = scripted_trace([0.5, 0.9, 0.6], [1.5], period_s=60)
    return [s for s in samples if not P <= s.t_ns < 2 * P], 4 * P


def short_final_period():
    _, samples = scripted_trace([0.4, 0.8], [1.2], period_s=60)
    return samples, 5 * P // 2


def exhausted_mid_learning():
    return [s for s in quiescent_samples(4 * 60 * 4) if s.t_ns < 90 * NS_PER_S], 4 * P


def zero_width_band():
    return quiescent_samples(3 * 60 * 4), 3 * P


SMALL_CASES = {
    degenerate_sample_skipped: "45a383c23ef4cd3cb17c49f95d5e4f717f13ce558ddb2c7c50c61ae5f6213ed9",
    empty_learning_period: "b843db5f2215d855ad4fa347df7ff3d70d600ce5d49510338da41acfc9ff7aea",
    short_final_period: "97145b4ac0d14d33521be31a9e77d965e2a6688931710d7a215d762d7ccb2a08",
    exhausted_mid_learning: "12eb2794364f68f89f31c130812de4391c48ff38b2467d50ceec3703250f1463",
    zero_width_band: "e5c74bba5e4ddfea648d53fb1d4014c05afd10c75bdca2eeb48b3d7e88439773",
}


@pytest.mark.parametrize("build", list(SMALL_CASES), ids=lambda build: build.__name__)
def test_small_stream_logs(build):
    samples, sleep_ns = build()
    buf = io.StringIO()
    run_session(SessionConfig(sleep_ns, P), samples, event_sink=buf)
    assert sha256(buf.getvalue().encode("utf-8")) == SMALL_CASES[build]


def test_paper_fixture_log(paper_case):
    data = paper_case.log_path.read_bytes()
    assert len(data) == 10_829_479
    assert sha256(data) == "7d6a7d6fb478844a2455b62bd23c3cb7c05f4b8ce1b612c2b74ebf078596419f"


def test_cli_seed_42_night_log(seed42_night):
    data = seed42_night.log_path.read_bytes()
    assert sha256(data) == "639b0c79cbd8774a239d67bacb79bd7fd8d9ae9aa9ef61c5f2992b81629379dd"
