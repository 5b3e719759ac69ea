"""Wall-clock scaling of the worker pool on the fig09 covert plan.

Runs the same :func:`fig09_covert.trial_plan` serially and on a cold
pool (``executor="pool"``, fresh workers each time) at 2 and 4 workers,
verifies the finalized artifacts are byte-identical across worker
counts, and records the measured timings in ``BENCH_parallel.json`` at
the repo root (override the path with ``BENCH_PARALLEL_PATH``).

The ≥ 2.5× speedup target at 4 workers is asserted only on machines
with at least 4 CPUs — on fewer cores the trials time-slice a single
core and worker startup is pure overhead, so the test instead bounds
that overhead.  Either way the measured numbers and the CPU count land
in the JSON record, so the artifact states exactly what was (and was
not) demonstrated.

A second lane times pool reuse: after one untimed warm-up run, repeated
small runs against a warm 2-worker pool must be at least
``POOL_REUSE_RATIO_FLOOR`` times faster in aggregate than the same runs
on a cold pool (``shutdown_pools()`` before each, so every run pays
worker startup and plan construction).  That gate holds at any CPU
count — amortizing startup is precisely what a persistent pool buys on
a starved machine.
"""

import json
import os
import pickle
import time
from pathlib import Path

from repro.experiments import fig09_covert
from repro.experiments.pool import shutdown_pools
from repro.experiments.runner import run_experiment

FIG09_CONFIG = {"payload_bits": 192, "runs": 2}
WORKER_COUNTS = (1, 2, 4)
TARGET_SPEEDUP_AT_4 = 2.5
#: The pool-reuse lane: a deliberately tiny plan, so per-run compute is
#: negligible and the measured ratio isolates startup amortization.
POOL_CONFIG = {"payload_bits": 48, "runs": 1}
POOL_REPEATS = 3
POOL_REUSE_RATIO_FLOOR = 3.0
#: Single-core fallback bound: pooling may cost worker startup and
#: result-ring overhead, but never more than this multiple of the serial
#: wall-clock plus a fixed interpreter-startup allowance.
OVERHEAD_FACTOR = 2.5
OVERHEAD_ALLOWANCE_S = 10.0
#: Hard ceiling on wall_clock(4 workers) / wall_clock(serial) when the
#: machine has a single CPU — the pure price of starting four cold pool
#: workers that then time-slice one core.  Regressions (e.g. heavier
#: worker imports or per-shard re-initialization) push it up long before
#: they would trip the allowance-padded limit above.
POOL_OVERHEAD_RATIO_LIMIT = 8.0

BENCH_PATH = Path(
    os.environ.get(
        "BENCH_PARALLEL_PATH",
        Path(__file__).resolve().parent.parent / "BENCH_parallel.json",
    )
)


# Scaling benchmarks time the real host: injectable clocks would defeat
# the measurement, hence the DET002 suppressions below.
def _timed_run(config: dict, workers: int) -> tuple[float, bytes]:
    plan = fig09_covert.trial_plan(**config)
    source = fig09_covert.plan_source(**config) if workers > 1 else None
    start = time.perf_counter()  # repro-lint: ignore[DET002]
    outcome = run_experiment(
        plan, workers=workers, executor="pool", plan_source=source
    )
    elapsed = time.perf_counter() - start  # repro-lint: ignore[DET002]
    assert outcome.status == "completed", outcome.status
    return elapsed, pickle.dumps(outcome.result, protocol=4)


def _cold_run(config: dict, workers: int) -> tuple[float, bytes]:
    """A run that pays worker startup and plan construction."""
    shutdown_pools()
    try:
        return _timed_run(config, workers)
    finally:
        shutdown_pools()


def _pool_reuse_lane() -> dict:
    """Repeated small runs: a warm pool vs a cold pool each time."""
    serial = run_experiment(fig09_covert.trial_plan(**POOL_CONFIG))
    serial_artifact = pickle.dumps(serial.result, protocol=4)
    shutdown_pools()
    try:
        _timed_run(POOL_CONFIG, 2)  # untimed warm-up: spawn workers, build plan
        warm_total = 0.0
        for _ in range(POOL_REPEATS):
            elapsed, artifact = _timed_run(POOL_CONFIG, 2)
            assert artifact == serial_artifact, (
                "warm-pool artifact diverges from serial"
            )
            warm_total += elapsed
    finally:
        shutdown_pools()
    cold_total = 0.0
    for _ in range(POOL_REPEATS):
        elapsed, artifact = _cold_run(POOL_CONFIG, 2)
        assert artifact == serial_artifact, (
            "cold-pool artifact diverges from serial"
        )
        cold_total += elapsed
    return {
        "config": POOL_CONFIG,
        "repeats": POOL_REPEATS,
        "warm_total_s": round(warm_total, 3),
        "cold_total_s": round(cold_total, 3),
        "artifacts_identical_to_serial": True,
    }


def test_bench_parallel_scaling():
    cpus = os.cpu_count() or 1
    timings: dict[int, float] = {}
    artifacts: dict[int, bytes] = {}
    for workers in WORKER_COUNTS:
        timings[workers], artifacts[workers] = _cold_run(FIG09_CONFIG, workers)

    for workers in WORKER_COUNTS[1:]:
        assert artifacts[workers] == artifacts[1], (
            f"artifact at {workers} workers diverges from serial"
        )

    reuse = _pool_reuse_lane()
    pool_reuse_ratio = reuse["cold_total_s"] / max(reuse["warm_total_s"], 1e-9)

    speedup = {w: timings[1] / timings[w] for w in WORKER_COUNTS}
    pool_overhead_ratio = timings[4] / timings[1]
    record = {
        "experiment": "fig09_covert",
        "executor": "pool",
        "config": FIG09_CONFIG,
        "cpu_count": cpus,
        "wall_clock_s": {str(w): round(timings[w], 3) for w in WORKER_COUNTS},
        "speedup_vs_serial": {
            str(w): round(speedup[w], 3) for w in WORKER_COUNTS
        },
        "target_speedup_at_4_workers": TARGET_SPEEDUP_AT_4,
        "target_enforced": cpus >= 4,
        "pool_overhead_ratio": round(pool_overhead_ratio, 3),
        "pool_overhead_ratio_limit": POOL_OVERHEAD_RATIO_LIMIT,
        "pool_overhead_enforced": cpus == 1,
        "artifacts_identical_across_worker_counts": True,
        "pool_reuse": reuse,
        "pool_reuse_ratio": round(pool_reuse_ratio, 3),
        "pool_reuse_ratio_floor": POOL_REUSE_RATIO_FLOOR,
    }
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"\npool scaling on {cpus} CPU(s): " + ", ".join(
        f"{w}w={timings[w]:.2f}s ({speedup[w]:.2f}x)" for w in WORKER_COUNTS
    ))

    if cpus >= 4:
        assert speedup[4] >= TARGET_SPEEDUP_AT_4, (
            f"expected >= {TARGET_SPEEDUP_AT_4}x at 4 workers on {cpus} "
            f"CPUs, measured {speedup[4]:.2f}x"
        )
    else:
        limit = OVERHEAD_FACTOR * timings[1] + OVERHEAD_ALLOWANCE_S
        assert timings[4] <= limit, (
            f"pool overhead out of bounds on {cpus} CPU(s): "
            f"{timings[4]:.2f}s at 4 workers vs limit {limit:.2f}s"
        )
        if cpus == 1:
            assert pool_overhead_ratio <= POOL_OVERHEAD_RATIO_LIMIT, (
                f"pool overhead ratio {pool_overhead_ratio:.2f}x exceeds "
                f"the {POOL_OVERHEAD_RATIO_LIMIT}x single-CPU ceiling"
            )

    # Pool-reuse gate: holds at any CPU count — a warm pool skips the
    # worker start + plan rebuild a cold pool pays per run.
    assert pool_reuse_ratio >= POOL_REUSE_RATIO_FLOOR, (
        f"pool reuse ratio {pool_reuse_ratio:.2f}x below the "
        f"{POOL_REUSE_RATIO_FLOOR}x floor "
        f"(warm {reuse['warm_total_s']}s vs cold {reuse['cold_total_s']}s "
        f"over {POOL_REPEATS} repeated runs)"
    )
