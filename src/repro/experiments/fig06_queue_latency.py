"""Fig. 6 — submission vs. completion latency and the DMWr threshold.

Sweeps memcpy transfer sizes (2^8 .. 2^27 by default) measuring:

* **submission latency** — the enqcmd round trip, which must stay flat
  (~700 cycles) regardless of size or queue state;
* **completion latency** — grows linearly with size once the transfer is
  bandwidth-bound;
* **DMWr contention** — re-running the submissions asynchronously with a
  minimal inter-submission interval, the smallest size at which
  ``EFLAGS.ZF`` ever fires.  The paper observes 2^25 bytes.

The async loop's per-iteration software cost (descriptor modification +
submission + flag check) is a parameter; the paper's observed 2^25-byte
threshold pins it at ~30k cycles (~15 us) on our timing model (see
EXPERIMENTS.md for the calibration argument).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import format_table
from repro.dsa.descriptor import make_memcpy
from repro.experiments.runner import (
    ExperimentPlan,
    TrialSpec,
    require_all,
)
from repro.virt.system import AttackTopology, CloudSystem


@dataclass(frozen=True)
class SizePoint:
    """Measurements for one transfer size."""

    size_bytes: int
    submission_cycles: float
    completion_cycles: float
    async_contention: bool


@dataclass(frozen=True)
class Fig6Result:
    """The full sweep."""

    points: tuple[SizePoint, ...]

    @property
    def submission_is_flat(self) -> bool:
        """Max/min submission latency within 1.5x across the sweep."""
        values = [p.submission_cycles for p in self.points]
        return max(values) / min(values) < 1.5

    @property
    def contention_threshold(self) -> int | None:
        """Smallest size showing async ZF contention (paper: 2^25)."""
        for point in self.points:
            if point.async_contention:
                return point.size_bytes
        return None

    @property
    def completion_is_monotone(self) -> bool:
        """Completion latency grows with size."""
        values = [p.completion_cycles for p in self.points]
        return all(b >= a for a, b in zip(values, values[1:]))


def _measure_sync(system: CloudSystem, size: int, repeats: int) -> tuple[float, float]:
    victim = system.vms["victim-vm"].process("victim")
    portal = victim.portal(0)
    src = victim.buffer(max(size, 4096))
    dst = victim.buffer(max(size, 4096))
    comp = victim.comp_record()
    submissions = []
    completions = []
    for _ in range(repeats):
        descriptor = make_memcpy(victim.pasid, src, dst, size, comp)
        before = system.clock.now
        portal.enqcmd(descriptor)
        submissions.append(system.clock.now - before)
        ticket = portal.last_ticket
        start = system.clock.rdtsc()
        portal.wait(ticket)
        completions.append(system.clock.rdtsc() - start)
    return float(np.mean(submissions)), float(np.mean(completions))


def _measure_async_contention(
    size: int, wq_size: int, burst: int, iteration_cycles: int, seed: int
) -> bool:
    """Async resubmission with minimal interval; True if any ZF fires."""
    system = CloudSystem(seed=seed)
    system.setup_topology(
        AttackTopology.E0_SHARED_WQ_SHARED_ENGINE, wq_size=wq_size
    )
    victim = system.vms["victim-vm"].process("victim")
    portal = victim.portal(0)
    src = victim.buffer(max(size, 4096))
    dst = victim.buffer(max(size, 4096))
    comp = victim.comp_record()
    descriptor = make_memcpy(victim.pasid, src, dst, size, comp)
    saw_zf = False
    for _ in range(burst):
        # "Reusing prior descriptors with minimal modification": the
        # iteration cost beyond the enqcmd itself.
        system.clock.advance(iteration_cycles)
        saw_zf |= portal.enqcmd(descriptor)
    return saw_zf


def _measure_size(
    exponent: int, repeats: int, wq_size: int, iteration_cycles: int, seed: int
) -> SizePoint:
    size = 1 << exponent
    system = CloudSystem(seed=seed)
    system.setup_topology(
        AttackTopology.E0_SHARED_WQ_SHARED_ENGINE, wq_size=wq_size
    )
    submission, completion = _measure_sync(system, size, repeats)
    contention = _measure_async_contention(
        size, wq_size, burst=wq_size + 2, iteration_cycles=iteration_cycles,
        seed=seed,
    )
    return SizePoint(
        size_bytes=size,
        submission_cycles=submission,
        completion_cycles=completion,
        async_contention=contention,
    )


def trial_plan(
    min_exp: int = 8,
    max_exp: int = 27,
    repeats: int = 20,
    wq_size: int = 128,
    iteration_cycles: int = 30_000,
    seed: int = 6,
) -> ExperimentPlan:
    """One checkpointable trial per transfer size 2^min_exp .. 2^max_exp
    (fresh system each).

    The DMWr-threshold claim needs the *whole* size axis, so every size
    is required in ``finalize``.
    """
    exponents = list(range(min_exp, max_exp + 1))
    keys = [f"size/2^{exponent}" for exponent in exponents]
    trials = tuple(
        TrialSpec(
            key=key,
            fn=lambda exponent=exponent: _measure_size(
                exponent, repeats, wq_size, iteration_cycles, seed
            ),
        )
        for key, exponent in zip(keys, exponents)
    )

    def finalize(results: dict) -> Fig6Result:
        return Fig6Result(points=tuple(require_all(results, keys, "fig06")))

    return ExperimentPlan(
        name="fig06",
        seed=seed,
        config=dict(
            min_exp=min_exp,
            max_exp=max_exp,
            repeats=repeats,
            wq_size=wq_size,
            iteration_cycles=iteration_cycles,
            seed=seed,
        ),
        trials=trials,
        finalize=finalize,
        min_successes=len(trials),
    )


def report(result: Fig6Result) -> str:
    """The figure as a table."""
    rows = [
        [
            f"2^{int(np.log2(p.size_bytes))}",
            f"{p.submission_cycles:.0f}",
            f"{p.completion_cycles:.0f}",
            "ZF" if p.async_contention else "-",
        ]
        for p in result.points
    ]
    table = format_table(
        ["size", "submission (cyc)", "completion (cyc)", "async contention"], rows
    )
    threshold = result.contention_threshold
    threshold_text = (
        f"2^{int(np.log2(threshold))}" if threshold else "none observed"
    )
    return (
        "Fig. 6 — memcpy submission/completion latency\n"
        + table
        + f"\nsubmission flat: {result.submission_is_flat}; "
        f"completion monotone: {result.completion_is_monotone}; "
        f"contention threshold: {threshold_text} (paper: 2^25)"
    )
