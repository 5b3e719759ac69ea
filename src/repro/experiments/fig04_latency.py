"""Fig. 4 — DevTLB hit/miss latency distributions across environments.

For each of the four environments (Local, Local+Noise, Cloud,
Cloud+Noise): prime a completion page, measure hit latencies by
re-probing, and miss latencies by evicting with a second page first.
The paper's claims to reproduce:

* hits cluster near ~500 cycles, misses exceed ~1000;
* noise shifts the distributions (≈ +89 cycles for Cloud+Noise) but a
  fixed threshold in the 600-900 band separates the classes everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.calibration import calibrate_threshold
from repro.core.primitives import Prober
from repro.experiments.runner import (
    ExperimentPlan,
    TrialSpec,
    require_all,
)
from repro.hw.noise import Environment
from repro.virt.system import AttackTopology, CloudSystem


@dataclass(frozen=True)
class EnvironmentLatencies:
    """One environment's measured distributions."""

    environment: Environment
    hit_latencies: np.ndarray
    miss_latencies: np.ndarray
    threshold: int

    @property
    def hit_mean(self) -> float:
        """Mean DevTLB-hit probe latency."""
        return float(self.hit_latencies.mean())

    @property
    def miss_mean(self) -> float:
        """Mean DevTLB-miss probe latency."""
        return float(self.miss_latencies.mean())

    @property
    def band_threshold_works(self) -> bool:
        """Does a fixed 600-900 band threshold separate the classes?"""
        for threshold in (600, 750, 900):
            hit_ok = (self.hit_latencies < threshold).mean() > 0.97
            miss_ok = (self.miss_latencies >= threshold).mean() > 0.97
            if hit_ok and miss_ok:
                return True
        return False


@dataclass(frozen=True)
class Fig4Result:
    """All four environments."""

    environments: tuple[EnvironmentLatencies, ...]

    def for_environment(self, environment: Environment) -> EnvironmentLatencies:
        """Select one environment's row."""
        for row in self.environments:
            if row.environment is environment:
                return row
        raise KeyError(environment)

    @property
    def cloud_noise_shift(self) -> float:
        """Mean hit-latency shift of Cloud+Noise relative to Local."""
        return (
            self.for_environment(Environment.CLOUD_NOISE).hit_mean
            - self.for_environment(Environment.LOCAL).hit_mean
        )


def _measure_environment(environment: Environment, samples: int, seed: int):
    system = CloudSystem(seed=seed, environment=environment)
    system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
    prober = Prober(system.vms["attacker-vm"].process("attacker"), wq_id=0)
    calibration = calibrate_threshold(prober, samples=samples)
    return EnvironmentLatencies(
        environment=environment,
        hit_latencies=calibration.hit_latencies,
        miss_latencies=calibration.miss_latencies,
        threshold=calibration.threshold,
    )


def trial_plan(samples: int = 300, seed: int = 4) -> ExperimentPlan:
    """One checkpointable trial per environment.

    The figure compares distributions *across* all four environments, so
    every trial is required: a missing environment raises rather than
    rendering a silently thinner figure.
    """
    keys = [f"env/{environment.value}" for environment in Environment]
    trials = tuple(
        TrialSpec(
            key=key,
            fn=lambda environment=environment: _measure_environment(
                environment, samples, seed
            ),
        )
        for key, environment in zip(keys, Environment)
    )

    def finalize(results: dict) -> Fig4Result:
        return Fig4Result(
            environments=tuple(require_all(results, keys, "fig04"))
        )

    return ExperimentPlan(
        name="fig04",
        seed=seed,
        config=dict(samples=samples, seed=seed),
        trials=trials,
        finalize=finalize,
        min_successes=len(trials),
    )


def report(result: Fig4Result) -> str:
    """The figure as a table of distribution summaries."""
    rows = []
    for row in result.environments:
        rows.append(
            [
                row.environment.value,
                f"{row.hit_mean:.0f}",
                f"{row.miss_mean:.0f}",
                f"{row.threshold}",
                "yes" if row.band_threshold_works else "NO",
            ]
        )
    table = format_table(
        ["environment", "hit mean (cyc)", "miss mean (cyc)", "calibrated thr", "600-900 band works"],
        rows,
    )
    return (
        "Fig. 4 — DevTLB hit/miss latency by environment\n"
        + table
        + f"\nCloud+Noise shift vs Local: {result.cloud_noise_shift:+.0f} cycles "
        f"(paper: ~+89)"
    )
