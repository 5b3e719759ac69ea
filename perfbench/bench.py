"""Measurement: repeat a workload's unit, check it, and derive metrics.

A run first times set-up in fresh interpreters, then repeats the unit
of work until the time budget is spent.  Every host time is scaled to
the reference host by the host speed sampled while it ran (``host.py``),
and a run reports the median over its units.
End-to-end metrics come from untraced units.  A traced run spends half
its budget untraced and half traced, so it also gives the tracing
overhead and proves that the wrappers change no simulated result.
"""

from __future__ import annotations

import gc
import hashlib
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any

from host import SpeedSampler, fingerprint
from spans import SpanTracer, instrument
from workloads import WORKLOADS, UnitResult

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Fresh-interpreter set-ups per run; ``setup_s`` is their median.
SETUP_RUNS = 3

#: End-to-end metrics, printed by every untraced run.
END_TO_END: dict[str, str] = {
    "wall_s": "s",
    "setup_s": "s",
    "sim_descriptors_per_s": "1/s",
    "peak_rss_mb": "MB",
    "completed_frac": "ratio",
}

#: Workload-specific results: in the record of every run, and among
#: the per-layer metrics (zero where a workload has none).
WORKLOAD_RESULTS: dict[str, str] = {
    "sessions_per_s": "1/s",
    "failed_frac": "ratio",
    "devtlb_true_kbps": "kbps",
    "devtlb_ber_pct": "%",
    "llm_accuracy_pct": "%",
    "session_p99_mcycles": "Mcycles",
}

LAYERS = (
    "hw", "ats", "dsa", "virt", "core", "covert", "workloads", "ml",
    "experiments", "service",
)

_SPAN_METRICS: dict[str, tuple[str, ...]] = {
    "hw.noise.sample": ("calls", "self_s"),
    "hw.pcie.transaction": ("calls", "self_s"),
    "hw.clock.advance": ("calls",),
    "hw.pagetable.translate": ("calls", "self_s"),
    "ats.devtlb.access": ("calls", "self_s"),
    "ats.translate": ("calls", "self_s"),
    "dsa.portal.enqcmd": ("calls", "self_s"),
    "dsa.submit": ("calls", "self_s"),
    "dsa.advance_to": ("calls", "self_s"),
    "dsa.engine.execute": ("calls", "self_s"),
    "virt.system_init": ("calls", "self_s"),
    "virt.timeline.run_until": ("calls", "self_s"),
    "core.probe": ("calls", "self_s"),
    "core.calibrate": ("calls", "self_s"),
    "core.sampler.collect_trace": ("calls", "self_s"),
    "covert.channel": ("calls", "self_s"),
    "workloads.dto": ("calls", "self_s"),
    "ml.fit": ("calls", "self_s"),
    "ml.forward": ("calls", "self_s"),
    "ml.backward": ("self_s",),
    "ml.predict": ("self_s",),
    "ml.baseline": ("self_s",),
    "service.run": ("self_s",),
    "service.admit": ("calls", "self_s"),
    "service.lane.run_round": ("calls", "self_s"),
}

_SERVICE_COUNTERS = (
    "service.reject_frac", "service.shed_frac", "service.queue_high_water",
    "service.backpressure_events", "service.mode_transitions",
    "service.rounds_served", "service.recalibrations",
)


def _per_layer_units() -> dict[str, str]:
    units: dict[str, str] = {}
    for span, kinds in _SPAN_METRICS.items():
        for kind in kinds:
            units[f"{span}.{kind}"] = "count" if kind == "calls" else "s"
    units.update({
        "ats.devtlb.hit_frac": "ratio",
        "ats.iotlb.hit_frac": "ratio",
        "dsa.submit.retry_frac": "ratio",
        "dsa.advance_to.per_descriptor": "calls/desc",
        "dsa.descriptors": "count",
        "dsa.host_us_per_descriptor": "us",
        "experiments.trials": "count",
        "experiments.runner_overhead_s": "s",
        "experiments.finalize_s": "s",
    })
    units.update(
        {name: "ratio" if name.endswith("_frac") else "count"
         for name in _SERVICE_COUNTERS}
    )
    units.update({"setup.import_s": "s", "setup.build_s": "s"})
    units.update({f"{layer}.self_share": "ratio" for layer in LAYERS})
    units["bench.trace_overhead_frac"] = "ratio"
    units.update(WORKLOAD_RESULTS)
    return units


#: Per-layer metrics, printed by every traced run.
PER_LAYER: dict[str, str] = _per_layer_units()


@dataclass
class Sample:
    """One repeat of the unit of work."""

    unit: UnitResult
    counters: dict[str, int]
    digest: str
    tracer: SpanTracer | None
    #: Host speed sampled while the unit ran.
    speed: SpeedSampler

    @property
    def scale(self) -> float:
        """Factor from this unit's host seconds to reference-host seconds."""
        return self.speed.scale

    @property
    def wall_s(self) -> float:
        """The unit's wall time on the reference host."""
        return self.unit.wall_s * self.scale


@dataclass
class Run:
    """Everything one invocation measured."""

    workload: str
    seed: int
    setups: list[dict[str, float]]
    untraced: list[Sample]
    traced: list[Sample] = field(default_factory=list)
    breaches: list[str] = field(default_factory=list)

    @property
    def calibration_per_s(self) -> float:
        """Host speed: calibration loops per second, median over the units."""
        median = statistics.median(
            s.speed.calibration_s for s in self.untraced + self.traced
        )
        return 1 / median


# ----------------------------------------------------------------------
# Model counters and the simulation digest
# ----------------------------------------------------------------------
def model_counters(systems: list[Any]) -> dict[str, int]:
    """Device, DevTLB and IOTLB counters summed over *systems*."""
    totals: dict[str, int] = {"systems": len(systems), "clock.cycles": 0}
    for system in systems:
        device = system.device
        for prefix, stats in (
            ("device", device.stats),
            ("devtlb", device.devtlb.stats),
            ("iotlb", device.agent.iotlb.stats),
        ):
            for key, value in vars(stats).items():
                totals[f"{prefix}.{key}"] = totals.get(f"{prefix}.{key}", 0) + value
        totals["clock.cycles"] += system.clock.now
    return totals


def sim_digest(fields: Any, counters: dict[str, int]) -> str:
    """Hash of a unit's result fields and its summed model counters."""
    blob = json.dumps({"fields": fields, "counters": counters}, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


# ----------------------------------------------------------------------
# Running
# ----------------------------------------------------------------------
def setup_probe(workload: str, seed: int, tiny: bool) -> dict[str, float]:
    """Set-up as a user pays it, in this (fresh) interpreter.

    Imports the workload's entry modules, then builds its inputs and one
    E1 CloudSystem.  Both times are in reference-host seconds.
    """
    import importlib

    spec = WORKLOADS[workload]
    with SpeedSampler() as speed:
        start = perf_counter()
        for module in spec.entry_modules:
            importlib.import_module(module)
        import_s = perf_counter() - start
        from repro.virt.system import AttackTopology, CloudSystem

        start = perf_counter()
        spec.prepare(seed, tiny)
        CloudSystem(seed=seed).setup_topology(
            AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE
        )
        build_s = perf_counter() - start
    return {"import_s": import_s * speed.scale, "build_s": build_s * speed.scale}


def _fresh_setup(workload: str, seed: int, tiny: bool) -> dict[str, float]:
    command = [
        sys.executable, str(HERE / "run.py"), "--setup-probe",
        "--workload", workload, "--seed", str(seed),
    ] + (["--tiny"] if tiny else [])
    done = subprocess.run(
        command, capture_output=True, text=True, timeout=120, cwd=ROOT
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _repeat(
    run: Run, inputs: Any, budget_s: float, traced: bool
) -> list[Sample]:
    workload = WORKLOADS[run.workload]
    samples: list[Sample] = []
    start = perf_counter()
    # Start another unit only if it is expected to end nearer the budget
    # than stopping now would, so a run overshoots by at most half a unit.
    while not samples or (
        perf_counter() - start + samples[-1].unit.wall_s / 2 < budget_s
    ):
        # The previous unit's garbage is collected here, not inside the
        # next unit's timing.
        gc.collect()
        tracer = SpanTracer() if traced else None
        with instrument(tracer, run.breaches) as (systems, missing):
            with SpeedSampler() as speed:
                unit = workload.run(inputs, tracer)
        counters = model_counters(systems)
        del systems
        digest = sim_digest(unit.fields, counters)
        # Only the digest is kept: a run's memory must not grow with the
        # number of units that fit in it.
        unit.fields = None
        samples.append(Sample(unit, counters, digest, tracer, speed))
        run.breaches.extend(unit.breaches)
        run.breaches.extend(f"span target not found: {t}" for t in missing)
    return samples


def measure(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    tiny: bool = False,
    setup_runs: int = SETUP_RUNS,
) -> Run:
    """Time set-up, repeat the unit for *seconds*, and check the results."""
    run = Run(
        workload=workload,
        seed=seed,
        setups=[_fresh_setup(workload, seed, tiny) for _ in range(setup_runs)],
        untraced=[],
    )
    inputs = WORKLOADS[workload].prepare(seed, tiny)
    budget = seconds / 2 if trace else seconds
    run.untraced = _repeat(run, inputs, budget, traced=False)
    if trace:
        run.traced = _repeat(run, inputs, budget, traced=True)
    digests = {s.digest for s in run.untraced + run.traced}
    if len(digests) > 1:
        run.breaches.append(f"sim_digest differs between repeats: {sorted(digests)}")
    run.breaches = list(dict.fromkeys(run.breaches))
    return run


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median_sample(samples: list[Sample]) -> Sample:
    """The unit with the median reference-host wall time."""
    wall = statistics.median_low(s.wall_s for s in samples)
    return next(s for s in samples if s.wall_s == wall)


def _wall_s(samples: list[Sample]) -> float:
    return statistics.median(s.wall_s for s in samples)


def end_to_end(run: Run) -> dict[str, float]:
    units = [s.unit for s in run.untraced]
    wall_s = _wall_s(run.untraced)
    return {
        "wall_s": wall_s,
        "setup_s": statistics.median([s["import_s"] + s["build_s"] for s in run.setups]),
        "sim_descriptors_per_s": run.untraced[0].counters.get("device.descriptors_completed", 0)
        / wall_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "completed_frac": _ratio(
            sum(u.completed for u in units), sum(u.attempted for u in units)
        ),
    }


def workload_results(run: Run) -> dict[str, float]:
    unit = run.untraced[0].unit
    results = dict.fromkeys(WORKLOAD_RESULTS, 0.0)
    results.update(unit.fidelity)
    if unit.service:
        results["sessions_per_s"] = unit.attempted / _wall_s(run.untraced)
    all_units = [s.unit for s in run.untraced + run.traced]
    results["failed_frac"] = _ratio(
        sum(u.unserved for u in all_units) + len(run.breaches),
        sum(u.attempted for u in all_units),
    )
    return results


def _layer_sample(sample: Sample) -> dict[str, float]:
    """Per-layer metrics of one traced unit, times in reference-host seconds."""
    tracer = sample.tracer
    assert tracer is not None
    counters, unit, scale = sample.counters, sample.unit, sample.scale
    descriptors = counters.get("device.descriptors_completed", 0)
    m: dict[str, float] = {}
    for span, kinds in _SPAN_METRICS.items():
        for kind in kinds:
            m[f"{span}.{kind}"] = (
                tracer.calls(span) if kind == "calls" else tracer.self_s(span) * scale
            )
    m["ats.devtlb.hit_frac"] = _ratio(
        counters.get("devtlb.hits", 0), counters.get("devtlb.alloc_requests", 0)
    )
    iotlb_hits = counters.get("iotlb.hits", 0)
    m["ats.iotlb.hit_frac"] = _ratio(
        iotlb_hits, iotlb_hits + counters.get("iotlb.misses", 0)
    )
    retried = counters.get("device.submissions_retried", 0)
    m["dsa.submit.retry_frac"] = _ratio(
        retried, retried + counters.get("device.submissions_accepted", 0)
    )
    m["dsa.descriptors"] = descriptors
    m["dsa.advance_to.per_descriptor"] = _ratio(
        tracer.calls("dsa.advance_to"), descriptors
    )
    replay_s = sum(tracer.layer_self_s(layer) for layer in ("dsa", "ats", "hw"))
    m["dsa.host_us_per_descriptor"] = _ratio(replay_s * scale * 1e6, descriptors)
    m["experiments.trials"] = tracer.calls("experiments.trial")
    m["experiments.finalize_s"] = tracer.total_s("experiments.finalize") * scale
    m["experiments.runner_overhead_s"] = scale * (
        tracer.total_s("experiments.run")
        - tracer.total_s("experiments.trial")
        - tracer.total_s("experiments.finalize")
    )
    for name in _SERVICE_COUNTERS:
        m[name] = unit.service.get(name, 0)
    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(tracer.layer_self_s(layer), unit.wall_s)
    return m


def per_layer(run: Run) -> dict[str, float]:
    metrics = _layer_sample(_median_sample(run.traced))
    metrics["setup.import_s"] = statistics.median([s["import_s"] for s in run.setups])
    metrics["setup.build_s"] = statistics.median([s["build_s"] for s in run.setups])
    metrics["bench.trace_overhead_frac"] = (
        _wall_s(run.traced) / _wall_s(run.untraced) - 1
    )
    metrics.update(workload_results(run))
    return {name: metrics[name] for name in PER_LAYER}


def _as_metrics(values: dict[str, float], units: dict[str, str]) -> dict[str, Any]:
    return {name: {"value": values[name], "unit": units[name]} for name in units}


def report(run: Run, seconds: float, trace: bool) -> tuple[dict, dict]:
    """``(record, result)``: the full record and the one-line result."""
    e2e = end_to_end(run)
    results = workload_results(run)
    samples = run.untraced + run.traced
    record = {
        "workload": run.workload,
        "seed": run.seed,
        "seconds": seconds,
        "trace": trace,
        "host": {**fingerprint(ROOT), "calibration_per_s": run.calibration_per_s},
        "sim_digest": run.untraced[0].digest,
        "repeats": {"untraced": len(run.untraced), "traced": len(run.traced)},
        "host_wall_s": {
            "untraced": [s.unit.wall_s for s in run.untraced],
            "traced": [s.unit.wall_s for s in run.traced],
        },
        "calibration_s": {
            "untraced": [s.speed.calibration_s for s in run.untraced],
            "traced": [s.speed.calibration_s for s in run.traced],
        },
        "setups": run.setups,
        "counters": run.untraced[0].counters,
        "end_to_end": _as_metrics(e2e, END_TO_END),
        "workload_results": _as_metrics(results, WORKLOAD_RESULTS),
        "breaches": run.breaches,
    }
    if trace:
        layer = per_layer(run)
        record["per_layer"] = _as_metrics(layer, PER_LAYER)
        metrics = record["per_layer"]
    else:
        metrics = record["end_to_end"]
    result = {
        "correct": not run.breaches,
        "attempted": sum(s.unit.attempted for s in samples),
        "failed": sum(s.unit.failed for s in samples) + len(run.breaches),
        "metrics": metrics,
    }
    return record, result
