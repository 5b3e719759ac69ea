"""Shared trace-collection pipeline for the fingerprinting attacks.

One trace = one fresh two-VM system: the victim VM replays a workload
(website visit / SSH session / LLM inference) through its DSA-accelerated
path while the attacker VM runs the ``DSA_DevTLB`` sampler on the shared
engine.  Everything interleaves on the shared timeline, so the traces are
measured, not synthesized.

Collection is expressed as independent per-visit trials
(:func:`website_visit_trials`) so the crash-safe runner can checkpoint a
dataset sweep visit-by-visit; :func:`assemble_website_dataset` rebuilds
the ``(x, y)`` arrays from whichever trials succeeded, and
:func:`dataset_from_run_dir` lifts a (possibly partial) checkpointed run
directory into a :class:`~repro.analysis.datasets.TraceDataset`.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.analysis.datasets import TraceDataset
from repro.core.devtlb_attack import DsaDevTlbAttack
from repro.core.sampling import DevTlbSampler, SamplerConfig
from repro.errors import ConfigurationError, InsufficientTrialsError
from repro.experiments.checkpoint import CheckpointJournal, RunManifest
from repro.experiments.runner import (
    ExperimentPlan,
    PlanHandle,
    TrialSpec,
    execute_plan,
)
from repro.hw.noise import Environment
from repro.virt.system import AttackTopology, CloudSystem
from repro.workloads.vpp import VppVictim
from repro.workloads.websites import WebsiteProfile, top_sites


@dataclass(frozen=True)
class WfSamplerSettings:
    """Trace geometry for website fingerprinting.

    The paper samples every 10 us and aggregates 400 samples per slot
    (4 ms slots, 250 slots = 1 s).  The reproduction's default keeps the
    same slot duration and trace length but samples every 50 us (80 per
    slot), which cuts simulation cost 5x without changing the slot-count
    feature the classifier consumes.  Pass ``paper_scale=True`` helpers
    where the full geometry is wanted.
    """

    sample_period_us: float = 50.0
    samples_per_slot: int = 80
    slots: int = 250

    def sampler_config(self) -> SamplerConfig:
        """As a :class:`SamplerConfig`."""
        return SamplerConfig(
            sample_period_us=self.sample_period_us,
            samples_per_slot=self.samples_per_slot,
            slots=self.slots,
        )


PAPER_SCALE = WfSamplerSettings(sample_period_us=10.0, samples_per_slot=400, slots=250)


def collect_website_trace(
    profile: WebsiteProfile,
    seed: int,
    settings: WfSamplerSettings | None = None,
    calibration_samples: int = 30,
    environment: Environment = Environment.LOCAL,
) -> np.ndarray:
    """Collect one DevTLB miss-count trace of one website visit."""
    settings = settings or WfSamplerSettings()
    system = CloudSystem(seed=seed, environment=environment)
    handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)

    attack = DsaDevTlbAttack(handles.attacker, wq_id=handles.attacker_wq)
    attack.calibrate(samples=calibration_samples)

    victim = VppVictim(handles.victim, wq_id=handles.victim_wq)
    packets = profile.generate_visit(system.rng)
    victim.schedule_trace(system.timeline, packets, system.clock.now)

    sampler = DevTlbSampler(attack, system.timeline, settings.sampler_config())
    return sampler.collect_trace()


def visit_trial_key(site: str, visit: int) -> str:
    """Stable checkpoint key of one website visit."""
    return f"site/{site}/visit/{visit}"


def website_visit_trials(
    profiles: list[WebsiteProfile],
    visits_per_site: int,
    settings: WfSamplerSettings | None = None,
    seed: int = 1000,
    environment: Environment = Environment.LOCAL,
    key_prefix: str = "",
) -> list[TrialSpec]:
    """One independent, deterministic trial per (site, visit).

    The trial seed depends only on the site's index and the visit number
    — never on execution order — so a resumed sweep collects exactly the
    traces an uninterrupted one would have.
    """
    settings = settings or WfSamplerSettings()
    specs: list[TrialSpec] = []
    for label, profile in enumerate(profiles):
        for visit in range(visits_per_site):
            specs.append(
                TrialSpec(
                    key=key_prefix + visit_trial_key(profile.name, visit),
                    fn=lambda profile=profile, label=label, visit=visit: (
                        collect_website_trace(
                            profile,
                            seed + label * 10_000 + visit,
                            settings,
                            environment=environment,
                        )
                    ),
                )
            )
    return specs


def assemble_website_dataset(
    profiles: list[WebsiteProfile],
    visits_per_site: int,
    results: dict[str, np.ndarray],
    key_prefix: str = "",
) -> tuple[np.ndarray, np.ndarray]:
    """Rebuild ``(x, y)`` from per-visit trial results.

    A visit whose trial failed is simply absent from *results* and is
    dropped; a site with *no* surviving visit raises
    :class:`~repro.errors.InsufficientTrialsError` — a dataset silently
    missing a class would poison the classifier's label table.
    """
    traces: list[np.ndarray] = []
    labels: list[int] = []
    for label, profile in enumerate(profiles):
        site_traces = [
            results[key]
            for visit in range(visits_per_site)
            if (key := key_prefix + visit_trial_key(profile.name, visit)) in results
        ]
        if not site_traces:
            raise InsufficientTrialsError(
                f"site {profile.name!r}: 0/{visits_per_site} visits succeeded"
            )
        traces.extend(site_traces)
        labels.extend([label] * len(site_traces))
    return np.stack(traces), np.array(labels)


def website_dataset_plan(
    profiles: list[WebsiteProfile],
    visits_per_site: int,
    settings: WfSamplerSettings | None = None,
    seed: int = 1000,
    environment: Environment = Environment.LOCAL,
) -> ExperimentPlan:
    """A dataset sweep as a supervised plan: one trial per (site, visit),
    finalized into the ``(x, y)`` arrays.

    The per-trial seeds match :func:`website_visit_trials`' global
    enumeration, so checkpointed, resumed, serial, and pooled runs of
    the same plan all produce the same arrays.
    """
    settings = settings or WfSamplerSettings()
    trials = website_visit_trials(
        profiles, visits_per_site, settings, seed, environment
    )
    return ExperimentPlan(
        name="wf-dataset",
        seed=seed,
        config={
            "sites": [profile.name for profile in profiles],
            "visits_per_site": visits_per_site,
            "sample_period_us": settings.sample_period_us,
            "samples_per_slot": settings.samples_per_slot,
            "slots": settings.slots,
            "seed": seed,
            "environment": environment.value,
        },
        trials=tuple(trials),
        finalize=lambda results: assemble_website_dataset(
            profiles, visits_per_site, results
        ),
    )


def trial_plan(
    sites: int | list[str] = 5,
    visits_per_site: int = 4,
    sample_period_us: float = 50.0,
    samples_per_slot: int = 80,
    slots: int = 250,
    seed: int = 1000,
    environment: str = "local",
) -> ExperimentPlan:
    """:func:`website_dataset_plan` from picklable primitives only.

    This is the hook a :class:`~repro.experiments.runner.PlanHandle`
    rebuilds in pool workers: *sites* is a count (the first N of
    :func:`~repro.workloads.websites.top_sites`) or a list of catalog
    site names, *environment* an :class:`~repro.hw.noise.Environment`
    value string.
    """
    if isinstance(sites, int):
        profiles = top_sites(sites)
    else:
        catalog = {profile.name: profile for profile in top_sites(100)}
        missing = [name for name in sites if name not in catalog]
        if missing:
            raise ConfigurationError(
                f"unknown site name(s) {missing}; choose from the "
                "top_sites catalog"
            )
        profiles = [catalog[name] for name in sites]
    return website_dataset_plan(
        profiles,
        visits_per_site,
        WfSamplerSettings(
            sample_period_us=sample_period_us,
            samples_per_slot=samples_per_slot,
            slots=slots,
        ),
        seed=seed,
        environment=Environment(environment),
    )


def collect_website_dataset(
    profiles: list[WebsiteProfile],
    visits_per_site: int,
    settings: WfSamplerSettings | None = None,
    seed: int = 1000,
    environment: Environment = Environment.LOCAL,
    workers: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Traces and labels for a list of sites.

    Returns ``(x, y)`` with ``x`` of shape ``(successes, slots)``.  A
    visit whose collection fails transiently (calibration, injected
    faults) is dropped rather than aborting the dataset; a site losing
    *every* visit raises
    :class:`~repro.errors.InsufficientTrialsError`.

    With ``workers > 1`` the visits run on the worker pool
    (observation-equivalent to serial; see docs/parallel.md).  The
    profiles must then come from the :func:`top_sites` catalog so the
    workers can rebuild the plan by name.
    """
    settings = settings or WfSamplerSettings()
    plan = website_dataset_plan(
        profiles, visits_per_site, settings, seed, environment
    )
    plan_source = None
    if workers > 1:
        catalog = {profile.name: profile for profile in top_sites(100)}
        alien = [p.name for p in profiles if catalog.get(p.name) != p]
        if alien:
            raise ConfigurationError(
                f"profiles {alien} are not top_sites catalog entries; "
                "pool workers rebuild the plan by site name — run "
                "serially or supply your own plan via run_experiment"
            )
        plan_source = PlanHandle(
            __name__,
            {
                "sites": [profile.name for profile in profiles],
                "visits_per_site": visits_per_site,
                "sample_period_us": settings.sample_period_us,
                "samples_per_slot": settings.samples_per_slot,
                "slots": settings.slots,
                "seed": seed,
                "environment": environment.value,
            },
        )
    return execute_plan(plan, workers=workers, plan_source=plan_source)


def dataset_from_run_dir(
    run_dir: str | Path, key_prefix: str = ""
) -> TraceDataset:
    """Lift a checkpointed fingerprinting run into a
    :class:`~repro.analysis.datasets.TraceDataset`.

    Works on *partial* runs — interrupted, deadline-stopped, or
    breaker-degraded — returning whatever visits were journaled, so a
    crashed overnight sweep is still analyzable (and mergeable with its
    resumed continuation via :meth:`TraceDataset.merge`).
    """
    journal = CheckpointJournal.load(run_dir)
    manifest = RunManifest.load(run_dir)
    prefix = key_prefix + "site/"
    traces: list[np.ndarray] = []
    names: list[str] = []
    class_names: list[str] = []
    for entry in journal.entries():
        if not entry.ok or not entry.key.startswith(prefix):
            continue
        site = entry.key[len(prefix):].split("/visit/")[0]
        traces.append(np.asarray(journal.load_payload(entry.key)))
        names.append(site)
        if site not in class_names:
            class_names.append(site)
    if not traces:
        raise InsufficientTrialsError(
            f"{run_dir}: no completed visit trials in checkpoint journal"
        )
    labels = np.array([class_names.index(name) for name in names])
    return TraceDataset(
        traces=np.stack(traces),
        labels=labels,
        class_names=tuple(class_names),
        metadata={
            "experiment": manifest.experiment,
            "config_hash": manifest.config_hash,
            "run_status": manifest.status,
            "seed": manifest.seed,
        },
    )
