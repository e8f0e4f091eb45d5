#!/usr/bin/env python3
"""Benchmark of the lightwake pipeline, one workload per run.

Run from the repository root; the package is imported from ``src/`` and the
oracle from ``tests/reference.py``, so nothing needs installing:

    python3 bench/run.py --workload night-chain --seed 1 --seconds 20 --trace 0

Workloads (see ``workloads.py``):

- ``night-chain``: ``lightwake generate`` (8 h at 4 Hz), ``run`` with an event
  log and alarm WAV, then ``charts``, in process through ``lightwake.cli.main``.
- ``sweep``: 400 short in-memory sessions per pass, no sink.
- ``live-tcp``: a sender process streams 10 min of 250 Hz samples over one
  loopback connection into ``listen_live`` -> ``run_session``.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median of three set-ups, each the import of lightwake in a
  fresh interpreter plus the workload's input preparation;
- ``wall_s``: median time of one iteration (a chain, a pass over the sweep's
  sessions, a stream);
- ``samples_per_s``: samples read by ``run_session`` per second of it;
- ``session_p50_ms``: median ``run_session`` call;
- ``peak_rss_mb``: ``ru_maxrss`` of this process, which the caller starts
  fresh for each run, when measuring ends.

Times are scaled to full host speed by a probe that a timer signal runs
every 0.1 s (``hostspeed.py``), because a shared host's speed drifts by up to
2x within seconds; raw times are in the details. ``--trace 1`` is a separate
run that wraps each layer's public functions (``layers.py``) and reports
per-layer metrics, unscaled. Every output is checked against the oracle
after timing ends.

Standard output: one ``name value unit`` line per metric, a ``details`` JSON
line (environment, steal ticks, sample and session counts, the fail ratio,
p95 session time, night-chain's per-command times and output hashes), and
last one JSON object with the keys ``correct``, ``attempted``, ``failed``
and ``metrics``. The same record is written to ``bench/results/``. Exits 2
without a result when the checkout lacks ``src/lightwake`` or the oracle.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

from hostspeed import Sampler

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SETUP_REPEATS = 3
MIN_ITERATIONS = 3

# name: (unit, better). BENCHMARK.json mirrors this.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "samples_per_s": ("1/s", "higher"),
    "session_p50_ms": ("ms", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


def steal_ticks() -> int | None:
    """Steal ticks of all CPUs from /proc/stat (read only), or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            return int(fh.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return None


def git_commit() -> str:
    """The checked-out commit, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy
    return {
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "machine": platform.machine(),
        "seed": seed,
    }


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def timed_loop(workload, seconds: float, small: bool, min_iterations: int) -> list:
    """Iterate for `seconds`, and at least min_iterations times unless that takes twice as long.

    After the minimum, an iteration starts only if one of average length
    still ends within `seconds`.
    """
    iterations = []
    start = time.perf_counter()
    while True:
        n, elapsed = len(iterations), time.perf_counter() - start
        if n and (n >= min_iterations or elapsed >= 2 * seconds) and elapsed * (n + 1) / n > seconds:
            break
        before = steal_ticks()
        it = workload.iterate(small)
        after = steal_ticks()
        it.record["steal_ticks"] = None if before is None or after is None else after - before
        iterations.append(it)
    return iterations


def timed(iterations: list) -> list:
    """The iterations to take times from: those without failures, or all if none."""
    return [it for it in iterations if not it.errors] or iterations


def end_to_end(workload, seconds: float) -> tuple[dict, list, dict]:
    from workloads import fresh_import_s

    setup_spans, import_s = [], []
    with Sampler() as sampler:
        for _ in range(SETUP_REPEATS):
            import_s.append(fresh_import_s())
            start = time.perf_counter()
            workload.setup()
            setup_spans.append((start, time.perf_counter()))
        gc.collect()
        gc.freeze()  # keep the benchmark's own inputs out of the program's collections
        iterations = timed_loop(workload, seconds, small=False, min_iterations=MIN_ITERATIONS)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        gc.unfreeze()
    hashes = workload.check(iterations)
    ok = timed(iterations)
    setups = [child + sampler.scaled(*span)[1] for child, span in zip(import_s, setup_spans)]
    walls = [sampler.scaled(*it.span) for it in ok]
    sessions = [sampler.scaled(*span)[1] for it in ok for span in it.sessions]
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(scaled for _, scaled in walls),
        "samples_per_s": statistics.median(it.samples / wall[1] for it, wall in zip(ok, walls)),
        "session_p50_ms": 1e3 * percentile(sessions, 50),
        "peak_rss_mb": peak_rss_mb,
    }
    # p95 has ten or more sessions beyond it only on sweep; elsewhere it is
    # about the slowest of a few sessions, too unsteady for a bound.
    extra = {"session_p95_ms": 1e3 * percentile(sessions, 95), "sessions": len(sessions),
             "setup_s_each": setups, "wall_s_each": [scaled for _, scaled in walls],
             "raw_wall_s_each": [raw for raw, _ in walls], "probes": len(sampler.durations),
             "probe_s_median": statistics.median(sampler.durations),
             "samples_per_iteration": [it.samples for it in ok]}
    for key in ok[0].parts:
        extra[key] = statistics.median(sampler.scaled(*it.parts[key])[1] for it in ok)
    hashes.update(extra)
    return metrics, iterations, hashes


def per_layer(workload, seconds: float, spans_path: Path) -> tuple[dict, list, dict]:
    """Traced run; spans time the program raw, so nothing here is scaled by host speed."""
    import layers
    from spans import Tracer
    from workloads import oracle_us_per_sample

    calibration = Tracer()
    calibration.calibrate()

    def tracer() -> Tracer:
        t = Tracer()
        t.inner_ns, t.outer_ns = calibration.inner_ns, calibration.outer_ns
        return t

    setup = tracer()
    layers.install(setup)
    try:
        workload.setup()
    finally:
        setup.restore()
    gc.collect()
    gc.freeze()
    untraced = timed_loop(workload, seconds / 2, small=True, min_iterations=2)
    traced_spans = tracer()
    layers.install(traced_spans)
    try:
        traced = timed_loop(workload, seconds / 2, small=True, min_iterations=1)
    finally:
        traced_spans.restore()
    gc.unfreeze()
    retained = workload.retained_mb()
    oracle_us = oracle_us_per_sample(workload.oracle_cases())
    details = workload.check(untraced + traced)
    base, ok = timed(untraced), timed(traced)
    metrics = layers.per_layer_metrics(
        setup, traced_spans, [it.span[1] - it.span[0] for it in ok],
        statistics.median(it.span[1] - it.span[0] for it in base), retained, oracle_us)
    traced_spans.save(spans_path)
    details.update(spans=len(traced_spans.start), spans_file=str(spans_path.relative_to(ROOT)),
                   tracer_inner_ns=calibration.inner_ns, tracer_outer_ns=calibration.outer_ns,
                   wall_s_each=[it.span[1] - it.span[0] for it in untraced + traced])
    return metrics, untraced + traced, details


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["night-chain", "sweep", "live-tcp"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0,
                        help="0: end-to-end metrics; 1: traced run with per-layer metrics")
    parser.add_argument("--size", choices=["full", "tiny"], default="full",
                        help="tiny shrinks every input, for the self-check")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lightwake" / "__init__.py").is_file() or \
            not (ROOT / "tests" / "reference.py").is_file():
        print(f"bench: {ROOT} holds no src/lightwake package or tests/reference.py oracle",
              file=sys.stderr)
        return 2
    sys.path[1:1] = [str(ROOT / "src"), str(ROOT / "tests")]
    import lightwake
    if Path(lightwake.__file__).resolve().parent != ROOT / "src" / "lightwake":
        print(f"bench: imported lightwake from {lightwake.__file__}, not this checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    steal_before = steal_ticks()
    workload = WORKLOADS[args.workload](args.seed, args.size, BENCH_DIR / "work" / args.workload)
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            # One span file per workload, overwritten by each traced run.
            metrics, iterations, details = per_layer(workload, args.seconds,
                                                     results / f"{args.workload}.spans.npz")
            import layers
            units = {name: unit for name, (unit, _) in layers.PER_LAYER.items()}
        else:
            metrics, iterations, details = end_to_end(workload, args.seconds)
            units = {name: unit for name, (unit, _) in END_TO_END.items()}
    finally:
        workload.close()
    steal_after = steal_ticks()

    errors = [f"{it.ops[i]}: {why}" for it in iterations for i, why in sorted(it.errors.items())]
    attempted = sum(len(it.ops) for it in iterations)
    failed = len(errors)
    details.update(
        workload=args.workload, trace=args.trace, size=args.size, seconds=args.seconds,
        iterations=len(iterations), fail_ratio=failed / attempted, errors=errors[:10],
        steal_ticks={"before": steal_before, "after": steal_after,
                     "per_iteration": [it.record["steal_ticks"] for it in iterations]},
        env=environment(args.seed),
    )
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    (results / f"{stem}.json").write_text(json.dumps({**result, "details": details}, indent=1) + "\n")
    for name in units:
        print(f"{name} {metrics[name]!r} {units[name]}")
    print("details " + json.dumps(details))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
