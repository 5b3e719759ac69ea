"""Fig. 14 — software-mitigation overhead.

Wraps :func:`repro.mitigation.overhead.mitigation_overhead_sweep`: the
``dsa-perf-micros``-style native loop and the DTO loop across transfer
sizes, quiet vs. scrubbed.  The paper reports up to 15.7 % (native) and
17.9 % (DTO) degradation at 256 B, fading as transfers grow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.reporting import format_table
from repro.experiments.runner import (
    ExperimentPlan,
    TrialSpec,
    require_all,
)
from repro.mitigation.overhead import OverheadRow, mitigation_overhead_sweep

#: The paper's sweep: 256 B up to 64 KiB.
DEFAULT_SIZES = (256, 1024, 4096, 16384, 65536)


@dataclass(frozen=True)
class Fig14Result:
    """The sweep's rows."""

    rows: tuple[OverheadRow, ...]

    def max_overhead(self, path: str) -> float:
        """Worst-case degradation for one path."""
        values = [r.overhead_percent for r in self.rows if r.path == path]
        if not values:
            raise KeyError(path)
        return max(values)

    @property
    def overhead_shrinks_with_size(self) -> bool:
        """Smallest size suffers the most on both paths."""
        for path in ("dsa", "dto"):
            series = sorted(
                (r for r in self.rows if r.path == path), key=lambda r: r.size_bytes
            )
            if series[0].overhead_percent < series[-1].overhead_percent:
                return False
        return True


def trial_plan(
    sizes: tuple[int, ...] = DEFAULT_SIZES,
    iterations: int = 150,
    scrub_period_us: float = 4.6,
    seed: int = 99,
) -> ExperimentPlan:
    """One checkpointable trial per transfer size.

    The sweep builds a fresh identically-seeded system per (size, path)
    cell, so per-size trials measure exactly what the monolithic sweep
    did.  All sizes are required — the figure's claim is the trend.
    """
    keys = [f"size/{size}" for size in sizes]
    trials = tuple(
        TrialSpec(
            key=key,
            fn=lambda size=size: mitigation_overhead_sweep(
                [size],
                iterations=iterations,
                scrub_period_us=scrub_period_us,
                seed=seed,
            ),
        )
        for key, size in zip(keys, sizes)
    )

    def finalize(results: dict) -> Fig14Result:
        per_size = require_all(results, keys, "fig14")
        return Fig14Result(
            rows=tuple(row for rows in per_size for row in rows)
        )

    return ExperimentPlan(
        name="fig14",
        seed=seed,
        config=dict(
            sizes=sizes,
            iterations=iterations,
            scrub_period_us=scrub_period_us,
            seed=seed,
        ),
        trials=trials,
        finalize=finalize,
        min_successes=len(trials),
    )


def report(result: Fig14Result) -> str:
    """The figure as a table."""
    rows = [
        [
            r.size_bytes,
            r.path,
            f"{r.baseline_gbps:.3f}",
            f"{r.mitigated_gbps:.3f}",
            f"{r.overhead_percent:.1f}%",
        ]
        for r in result.rows
    ]
    table = format_table(
        ["size (B)", "path", "baseline (GB/s)", "mitigated (GB/s)", "overhead"], rows
    )
    return (
        "Fig. 14 — DevTLB-scrubbing mitigation overhead\n"
        + table
        + f"\nmax overhead: dsa {result.max_overhead('dsa'):.1f}% "
        f"(paper: 15.7%), dto {result.max_overhead('dto'):.1f}% (paper: 17.9%); "
        f"shrinks with size: {result.overhead_shrinks_with_size}"
    )
