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

A second lane times pool reuse with a deliberately tiny plan, in three
arms of ``POOL_REPEATS`` runs each: serial, a warm 2-worker pool (after
one untimed warm-up run), and a cold pool (``shutdown_pools()`` before
each run, so every run pays worker startup and plan construction).  It
asserts what reuse must protect, at any CPU count:

* the warm pool's total is no more than ``WARM_TO_SERIAL_LIMIT`` times
  the serial total — a persistent pool that re-paid startup on every
  run would be slower than serial on this plan;
* each cold run is within ``COLD_START_ALLOWANCE_S`` of the median
  serial run — the absolute price of starting workers stays bounded.
"""

import json
import os
import pickle
import statistics
import time
from pathlib import Path

from repro.experiments import fig09_covert
from repro.experiments.pool import shutdown_pools
from repro.experiments.runner import run_experiment

FIG09_CONFIG = {"payload_bits": 192, "runs": 2}
WORKER_COUNTS = (1, 2, 4)
TARGET_SPEEDUP_AT_4 = 2.5
#: The pool-reuse lane: a deliberately tiny plan, so per-run compute is
#: small and worker startup dominates a cold run.
POOL_CONFIG = {"payload_bits": 48, "runs": 1}
POOL_REPEATS = 3
#: Warm pool total / serial total over the repeats.  Measured 0.62-0.88
#: on a 2-CPU host; a pool that restarts its workers before every run
#: measured 1.69 there.
WARM_TO_SERIAL_LIMIT = 1.0
#: Cold run minus median serial run, in seconds.  Measured 0.26-0.59 s
#: on a 2-CPU host.  The committed BENCH_parallel.json predates lazy
#: experiment imports and has cold runs of about 2.6 s each.
COLD_START_ALLOWANCE_S = 1.5
#: Single-core fallback bound: pooling may cost worker startup and
#: result-transport overhead, but never more than this multiple of the
#: serial wall-clock plus a fixed interpreter-startup allowance.
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
    """Repeated small runs: serial, on a warm pool, on a cold pool."""
    serial = run_experiment(fig09_covert.trial_plan(**POOL_CONFIG))
    serial_artifact = pickle.dumps(serial.result, protocol=4)
    serial_runs = [_timed_run(POOL_CONFIG, 1)[0] for _ in range(POOL_REPEATS)]
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
    cold_runs = []
    for _ in range(POOL_REPEATS):
        elapsed, artifact = _cold_run(POOL_CONFIG, 2)
        assert artifact == serial_artifact, (
            "cold-pool artifact diverges from serial"
        )
        cold_runs.append(elapsed)
    return {
        "config": POOL_CONFIG,
        "repeats": POOL_REPEATS,
        "serial_runs_s": [round(t, 3) for t in serial_runs],
        "serial_median_s": round(statistics.median(serial_runs), 3),
        "warm_total_s": round(warm_total, 3),
        "cold_runs_s": [round(t, 3) for t in cold_runs],
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
    serial_total = sum(reuse["serial_runs_s"])
    warm_to_serial = reuse["warm_total_s"] / max(serial_total, 1e-9)
    cold_excess = [t - reuse["serial_median_s"] for t in reuse["cold_runs_s"]]

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
        "warm_to_serial": round(warm_to_serial, 3),
        "warm_to_serial_limit": WARM_TO_SERIAL_LIMIT,
        "cold_excess_s": [round(t, 3) for t in cold_excess],
        "cold_start_allowance_s": COLD_START_ALLOWANCE_S,
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

    # Pool-reuse gates: hold at any CPU count.  A warm pool skips the
    # worker start + plan rebuild a cold pool pays per run, and that
    # start-up itself stays bounded.
    assert warm_to_serial <= WARM_TO_SERIAL_LIMIT, (
        f"warm pool took {reuse['warm_total_s']}s over {POOL_REPEATS} runs, "
        f"{warm_to_serial:.2f}x the serial {serial_total:.3f}s "
        f"(limit {WARM_TO_SERIAL_LIMIT}x)"
    )
    assert max(cold_excess) <= COLD_START_ALLOWANCE_S, (
        f"cold pool runs {reuse['cold_runs_s']}s exceed the median serial "
        f"run {reuse['serial_median_s']}s by more than "
        f"{COLD_START_ALLOWANCE_S}s"
    )
