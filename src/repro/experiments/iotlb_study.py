"""Extension study: reverse-engineering the IOTLB behind the DevTLB.

The paper warms the IOTLB before measuring (Section IV-B) but never
characterizes it.  The same unprivileged toolkit can: probe with a
working set of K distinct completion pages cycled round-robin.  Every
probe misses the single-slot DevTLB (K >= 2 guarantees that), so its
latency is dominated by what happens at the translation agent — an IOTLB
hit (fast) or a full page walk (slow).  Sweeping K exposes the IOTLB
capacity as a latency knee: below capacity, steady-state probes pay only
the ATS round trip; above it, the round-robin pattern defeats LRU
entirely and every probe pays a walk.

This demonstrates the model end-to-end (the knee lands at the configured
64 sets x 8 ways) and documents a practical recipe for the real device.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.primitives import Prober
from repro.experiments.runner import (
    ExperimentPlan,
    TrialSpec,
    require_all,
)
from repro.virt.system import AttackTopology, CloudSystem

#: Working-set sizes swept (pages).
DEFAULT_WORKING_SETS = (32, 64, 128, 256, 384, 512, 640, 768, 1024)


@dataclass(frozen=True)
class WorkingSetPoint:
    """Steady-state miss-probe latency for one working-set size."""

    pages: int
    mean_latency_cycles: float


@dataclass(frozen=True)
class IotlbStudyResult:
    """The sweep plus the inferred capacity."""

    points: tuple[WorkingSetPoint, ...]
    configured_capacity: int

    @property
    def inferred_capacity(self) -> int | None:
        """Last working-set size before the latency knee."""
        latencies = [p.mean_latency_cycles for p in self.points]
        baseline = latencies[0]
        for previous, point in zip(self.points, self.points[1:]):
            if point.mean_latency_cycles > baseline + 200:
                return previous.pages
        return None

    @property
    def knee_matches_configuration(self) -> bool:
        """The inferred capacity brackets the true one within the sweep."""
        inferred = self.inferred_capacity
        if inferred is None:
            return False
        larger = [p.pages for p in self.points if p.pages > inferred]
        upper = min(larger) if larger else inferred
        return inferred <= self.configured_capacity <= upper


def trial_plan(
    working_sets: tuple[int, ...] = DEFAULT_WORKING_SETS,
    passes: int = 3,
    seed: int = 77,
) -> ExperimentPlan:
    """The sweep as a single checkpointable trial.

    Unlike the per-point figures, this study deliberately shares one
    system across working-set sizes (allocation state is part of what it
    probes), so the natural atomic unit is the whole sweep — a crash
    loses at most one sweep, not a day of dataset collection.
    """
    trials = (
        TrialSpec(key="sweep", fn=lambda: _sweep(working_sets, passes, seed)),
    )

    def finalize(results: dict) -> IotlbStudyResult:
        (result,) = require_all(results, ["sweep"], "iotlb")
        return result

    return ExperimentPlan(
        name="iotlb",
        seed=seed,
        config=dict(working_sets=working_sets, passes=passes, seed=seed),
        trials=trials,
        finalize=finalize,
        min_successes=1,
    )


def _sweep(
    working_sets: tuple[int, ...],
    passes: int,
    seed: int,
) -> IotlbStudyResult:
    system = CloudSystem(seed=seed)
    system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
    attacker = system.vms["attacker-vm"].process("attacker")
    prober = Prober(attacker, wq_id=0)
    iotlb = system.device.agent.iotlb
    capacity = iotlb.sets * iotlb.ways

    points = []
    for pages in working_sets:
        addresses = [prober.fresh_comp() for _ in range(pages)]
        latencies: list[int] = []
        for pass_index in range(passes):
            for address in addresses:
                latency = prober.probe_noop(address).latency_cycles
                if pass_index == passes - 1:
                    latencies.append(latency)
        points.append(
            WorkingSetPoint(
                pages=pages, mean_latency_cycles=float(np.mean(latencies))
            )
        )
    return IotlbStudyResult(points=tuple(points), configured_capacity=capacity)


def report(result: IotlbStudyResult) -> str:
    """The sweep as a table."""
    rows = [
        [p.pages, f"{p.mean_latency_cycles:.0f}"] for p in result.points
    ]
    table = format_table(["working set (pages)", "probe latency (cyc)"], rows)
    return (
        "IOTLB capacity study (extension)\n"
        + table
        + f"\ninferred capacity: {result.inferred_capacity} pages "
        f"(configured: {result.configured_capacity}); "
        f"knee brackets configuration: {result.knee_matches_configuration}"
    )
