#!/usr/bin/env python3
"""Quick self-check of the benchmark, kept apart from the test suite.

    python3 bench/selfcheck.py

Runs every workload at tiny size on a second seed, untraced and traced, and
asserts that the result line holds exactly the metrics ``BENCHMARK.json``
names, each a finite number, that every operation passed (fail ratio 0),
that the sweep covers both alarm triggers, and that ``predictions.json``
cites only known metrics. No timing is asserted, so noise cannot fail it.
Takes about a minute.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEED = 2
DETAILS_ONLY = {"cmd_generate_s", "cmd_run_s", "cmd_charts_s"}


def run(workload: str, trace: int) -> tuple[dict, dict]:
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, f"{workload} trace={trace} exited {done.returncode}: {done.stderr[-2000:]}"
    lines = done.stdout.strip().splitlines()
    details = json.loads(lines[-2].removeprefix("details "))
    return json.loads(lines[-1]), details


def main() -> int:
    sys.path.insert(0, str(BENCH_DIR))
    from layers import PER_LAYER
    from run import END_TO_END

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert declared == table, f"BENCHMARK.json {key} differs from the code's table"
    known = set(END_TO_END) | DETAILS_ONLY
    workloads = [w["name"] for w in spec["workloads"]]
    for entry in json.loads((BENCH_DIR / "predictions.json").read_text())["predictions"]:
        assert entry["layer"] in PER_LAYER, entry["layer"]
        for target in entry.get("moves", []) + entry.get("unchanged", []):
            workload, metric = target.split(" ")[0].split(":")
            assert workload in workloads and (metric == "*" or metric in known), target

    for workload in workloads:
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            result, details = run(workload, trace)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
            assert result["attempted"] >= 1 and result["failed"] == 0 and result["correct"], \
                (workload, trace, details["errors"])
            assert details["fail_ratio"] == 0
            assert set(result["metrics"]) == set(names), set(result["metrics"]) ^ set(names)
            for name, metric in result["metrics"].items():
                assert metric["unit"] == names[name][0], name
                assert isinstance(metric["value"], (int, float)) and math.isfinite(metric["value"]), name
            if workload == "night-chain" and trace == 0:
                assert DETAILS_ONLY <= set(details), "night-chain details lack command times"
                assert {"sha256 events.jsonl", "sha256 alarm.wav", "sha256 charts/"} <= set(details), \
                    "output hashes missing"
            if workload == "sweep":
                share = min(details["coverage"].values()) / sum(details["coverage"].values())
                assert share > 0.10, f"sweep covers one trigger only {share:.0%} of the time"
            print(f"ok {workload} trace={trace}: {result['attempted']} operations, "
                  f"{len(result['metrics'])} metrics")
    return 0


if __name__ == "__main__":
    sys.exit(main())
