"""Sustained-load benchmark for the always-on session service.

Drives 10⁵ sessions through one `AttackService` run on a provisioned
fleet (32 lanes at a 20k-cycle mean inter-arrival sits just under
capacity) and records the result in ``BENCH_service.json`` at the repo
root (override the path with ``BENCH_SERVICE_PATH``).  Excluded from
tier-1 (marker ``slow``); run with::

    PYTHONPATH=src python -m pytest benchmarks/test_bench_service.py \
        -o addopts="" -m slow -q

Gates:

* **exactness at scale** — the conservation law holds to the session
  (`balances()`), every offer completes, the runtime checker's final
  audit passes, and zero faults go unacknowledged.  Exact accounting
  over 10⁵ concurrent lifecycles is the tentpole claim; "all but a
  few" is a fail;
* **latency** — p99 session latency stays under
  :data:`P99_CEILING_CYCLES` of virtual device time.  A provisioned
  service whose tail latency blows past its deadline budget is
  overcommitted in disguise;
* **throughput** — the simulation sustains at least
  :data:`THROUGHPUT_FLOOR` sessions per wall-clock second.  The floor
  is ~3× below the observed ~370/s so only a superlinear scheduling
  or bookkeeping regression (not host jitter) can trip it.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.service.app import AttackService
from repro.service.config import ServiceConfig, TenantPolicy
from repro.service.loadgen import LoadConfig, build_schedule

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parent.parent
BENCH_PATH = Path(
    os.environ.get("BENCH_SERVICE_PATH", REPO_ROOT / "BENCH_service.json")
)

SESSIONS = 100_000
P99_CEILING_CYCLES = 5_000_000
THROUGHPUT_FLOOR = 120.0  # sessions per wall second

CONFIG = dict(
    seed=2026,
    lanes=32,
    tenant_policy=TenantPolicy(
        device_cycle_quota=10**11, max_in_flight=512
    ),
)
LOAD = dict(
    sessions=SESSIONS,
    tenants=32,
    seed=7,
    mean_interarrival_cycles=20_000.0,
)


def test_sustained_load_is_exact_and_fast():
    service = AttackService(ServiceConfig(**CONFIG))
    schedule = build_schedule(LoadConfig(**LOAD))

    start = time.perf_counter()  # repro-lint: ignore[DET002]
    report = service.run(schedule)
    wall_s = time.perf_counter() - start  # repro-lint: ignore[DET002]

    acct = report.accounting
    throughput = SESSIONS / wall_s

    # Exactness: the books balance to the session at 10^5 scale.  The
    # final audit (and with it every lifecycle/lane/budget invariant)
    # already ran inside run(); reaching here means zero violations.
    assert acct.balances(), acct.to_json()
    assert acct.offered == SESSIONS
    assert acct.completed == SESSIONS, acct.to_json()
    assert report.status == "completed"
    assert report.unacknowledged_faults == {}

    # Latency and throughput gates.
    p50 = report.latency_cycles["p50"]
    p99 = report.latency_cycles["p99"]
    assert 0 < p50 <= p99
    assert p99 <= P99_CEILING_CYCLES, f"p99 {p99:.0f}cyc over ceiling"
    assert throughput >= THROUGHPUT_FLOOR, (
        f"{throughput:.0f} sessions/s under the {THROUGHPUT_FLOOR}/s floor"
    )

    payload = {
        "sessions": SESSIONS,
        "config": {
            "lanes": CONFIG["lanes"],
            "tenants": LOAD["tenants"],
            "mean_interarrival_cycles": LOAD["mean_interarrival_cycles"],
        },
        "accounting": acct.to_json(),
        "latency_cycles": dict(report.latency_cycles),
        "virtual_cycles": report.virtual_cycles,
        "lane_stats": report.lane_stats,
        "mode_transitions": len(report.mode_transitions),
        "wall_seconds": round(wall_s, 2),
        "sessions_per_second": round(throughput, 1),
        "gates": {
            "p99_ceiling_cycles": P99_CEILING_CYCLES,
            "throughput_floor_per_s": THROUGHPUT_FLOOR,
        },
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
    print(
        f"\n{SESSIONS} sessions in {wall_s:.1f}s wall"
        f" ({throughput:.0f}/s), p50={p50:.0f}cyc p99={p99:.0f}cyc"
        f" -> {BENCH_PATH}"
    )
