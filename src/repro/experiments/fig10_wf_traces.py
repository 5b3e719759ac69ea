"""Fig. 10 — DevTLB miss traces of example website visits.

Collects the miss-count-per-slot traces for three example sites across
250 slots, the paper's visual argument that sites have distinguishable
temporal signatures.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import format_series
from repro.experiments.runner import (
    ExperimentPlan,
    TrialSpec,
    require_all,
)
from repro.experiments.wf_common import WfSamplerSettings, collect_website_trace
from repro.workloads.websites import WebsiteProfile

#: The example sites plotted (the paper shows three).
EXAMPLE_SITES = ("google.com", "youtube.com", "wikipedia.org")


@dataclass(frozen=True)
class Fig10Result:
    """Traces keyed by site name."""

    traces: dict[str, np.ndarray]
    slots: int

    @property
    def signatures_differ(self) -> bool:
        """Normalized slot histograms differ pairwise by a clear margin."""
        normalized = {}
        for name, trace in self.traces.items():
            total = max(trace.sum(), 1)
            normalized[name] = trace / total
        names = list(normalized)
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                if np.abs(normalized[a] - normalized[b]).sum() < 0.25:
                    return False
        return True

    @property
    def traces_have_activity(self) -> bool:
        """Every trace captured victim activity."""
        return all(trace.sum() > 0 for trace in self.traces.values())


def trial_plan(
    sites: tuple[str, ...] = EXAMPLE_SITES,
    settings: WfSamplerSettings | None = None,
    seed: int = 10,
) -> ExperimentPlan:
    """One checkpointable trial per example site (all required — the
    figure argues sites are *pairwise* distinguishable)."""
    settings = settings or WfSamplerSettings()
    keys = [f"site/{name}" for name in sites]
    trials = tuple(
        TrialSpec(
            key=key,
            fn=lambda name=name, index=index: collect_website_trace(
                WebsiteProfile.from_name(name), seed + index, settings
            ),
        )
        for index, (key, name) in enumerate(zip(keys, sites))
    )

    def finalize(results: dict) -> Fig10Result:
        traces = require_all(results, keys, "fig10")
        return Fig10Result(
            traces=dict(zip(sites, traces)), slots=settings.slots
        )

    return ExperimentPlan(
        name="fig10",
        seed=seed,
        config=dict(sites=sites, settings=settings, seed=seed),
        trials=trials,
        finalize=finalize,
        min_successes=len(trials),
    )


def report(result: Fig10Result) -> str:
    """The figure as per-site slot series (downsampled for readability)."""
    lines = [f"Fig. 10 — DevTLB misses across {result.slots} slots"]
    for name, trace in result.traces.items():
        step = max(len(trace) // 25, 1)
        xs = list(range(0, len(trace), step))
        ys = [int(trace[i]) for i in xs]
        lines.append(format_series(xs, ys, name))
    lines.append(f"signatures distinguishable: {result.signatures_differ}")
    return "\n".join(lines)
