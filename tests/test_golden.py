"""Golden event logs: byte-exact sha256 pins of whole sessions.

The event log is the audit trail of the alarm state machine, so any change
to which records are written, their order, timestamps or field order shows
up here as a changed digest. Each case holds three pins: one of the log as
written (v3), and one each of its v2 and v1 encodings, taken while those
were the written formats. The v1 pins were taken while the engine still
translated the detector's return values into records, so a v2 log differs
from those logs only by its version and the SampleAccepted lines it no
longer writes. A v3 log differs from the v2 one only by its version, the
band records it writes once per boundary instead of at each move, and the
StageClassified records it no longer writes: as_v2_log rebuilds the v2 log
from it, so the old pins still check every record the v3 log left out.
The chart files of two logs are pinned too, by name and bytes, so a change
to the chart rows or the summary fails here by name.
"""

import hashlib
import io

import pytest

from lightwake import NS_PER_S, RawSample, SessionConfig, export_period_charts, run_session
from test_engine import quiescent_samples
from test_sinks import log_versions
from trace_builders import scripted_trace

P = 60 * NS_PER_S


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def charts_sha256(log_path, out_dir) -> str:
    """The digest of the charts of a log: each file's name and bytes, in name order,
    as the benchmark takes a directory's."""
    export_period_charts(log_path, out_dir)
    return sha256(b"".join(path.name.encode() + b"\0" + path.read_bytes() + b"\0"
                           for path in sorted(out_dir.iterdir())))


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


SMALL_CASES = {  # (v1 pin, v2 pin, v3 pin)
    degenerate_sample_skipped: ("45a383c23ef4cd3cb17c49f95d5e4f717f13ce558ddb2c7c50c61ae5f6213ed9",
                                "91017410784d6c9255bf3da15699ae35058c83e10501c9fd774a419849bb33ca",
                                "c9c3c8f856389fd8238cc2e13ee87a204de75783287d0949e8b12208612d9360"),
    empty_learning_period: ("b843db5f2215d855ad4fa347df7ff3d70d600ce5d49510338da41acfc9ff7aea",
                            "52b935610bb9dc7e0027da6fd6d2781b1bfad3b00905e24be3bc00045d2c2836",
                            "8721783eb6859c2f06b512be323275dec399ee958a27994e172463665be2b13f"),
    short_final_period: ("97145b4ac0d14d33521be31a9e77d965e2a6688931710d7a215d762d7ccb2a08",
                         "c5f9a7069a328a2dc0f42fb68b18652bab7487744cd13b2ddd9a424b94c7b279",
                         "ea9927769b78304d21fbd40e3e0af7ef1c668eb1993101d79c5a1a3c5fffa1a6"),
    exhausted_mid_learning: ("12eb2794364f68f89f31c130812de4391c48ff38b2467d50ceec3703250f1463",
                             "9682cc6b5540d4af6774972c04c01320daa508a36f39f359ea4dd64cb133b3d2",
                             "da3f1ae17081c14b506010590b05906d9e9ce440d2d66f8278b1269b9153f147"),
    zero_width_band: ("e5c74bba5e4ddfea648d53fb1d4014c05afd10c75bdca2eeb48b3d7e88439773",
                      "3f070e2491dc81a5abd9f23e5902eef22cbb58d1c0626a4633dc7ba98408171d",
                      "a96f8472d1b5bf5ad4598ec16b7c48033c3a45b5dba0b3ca29fc2aae103cf2ff"),
}


@pytest.mark.parametrize("build", list(SMALL_CASES), ids=lambda build: build.__name__)
def test_small_stream_logs(build):
    samples, sleep_ns = build()
    buf = io.StringIO()
    run_session(SessionConfig(sleep_ns, P), samples, event_sink=buf)
    assert tuple(map(sha256, log_versions(buf.getvalue().encode("utf-8")))) == SMALL_CASES[build]


def test_paper_fixture_log(paper_case):
    v1, v2, v3 = log_versions(paper_case.log_path.read_bytes())
    assert (len(v1), len(v2), len(v3)) == (10_829_479, 6_000_958, 5_946_732)
    assert sha256(v1) == "7d6a7d6fb478844a2455b62bd23c3cb7c05f4b8ce1b612c2b74ebf078596419f"
    assert sha256(v2) == "d02c4e2f82c338db936a8dd6d74e1e41b1cceac7f3c68b900098352ec69010f1"
    assert sha256(v3) == "9430c8ec9d6af9fd6d057494d02e1d7e8f961e5dc2889d701816387dc8df9172"


def test_cli_seed_42_night_log(seed42_night):
    assert tuple(map(sha256, log_versions(seed42_night.log_path.read_bytes()))) == (
        "639b0c79cbd8774a239d67bacb79bd7fd8d9ae9aa9ef61c5f2992b81629379dd",
        "130879f933286a5c7989a4cdbd7bc52c51304cba7d16a34e435fb3cf093c9440",
        "2fb6e77095c04fb9944529e2213219562f6e66fe5b7e47afa914b49e71e7e005")


def test_paper_fixture_charts(paper_case, tmp_path):
    assert charts_sha256(paper_case.log_path, tmp_path / "charts") == (
        "35a582f3573e1cc7a78d1c68d913e62ad6d40f082ef2367c0b5e14cc1a4f47f4")


def test_cli_seed_42_night_charts(seed42_night, tmp_path):
    assert charts_sha256(seed42_night.log_path, tmp_path / "charts") == (
        "04c3a90e03c849fe416d8ac7a0d74fe34afdd50da50fda159bd5e525c107f911")
