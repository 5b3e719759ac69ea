"""Shared trace-collection pipeline for the fingerprinting attacks.

One trace = one fresh two-VM system: the victim VM replays a workload
(website visit / SSH session / LLM inference) through its DSA-accelerated
path while the attacker VM runs the ``DSA_DevTLB`` sampler on the shared
engine.  Everything interleaves on the shared timeline, so the traces are
measured, not synthesized.

Collection is expressed as independent per-visit trials
(:func:`website_visit_trials`) so the crash-safe runner can checkpoint a
dataset sweep visit-by-visit; :func:`assemble_website_dataset` rebuilds
the ``(x, y)`` arrays from whichever trials succeeded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.devtlb_attack import DsaDevTlbAttack
from repro.core.sampling import DevTlbSampler, SamplerConfig
from repro.errors import InsufficientTrialsError
from repro.experiments.runner import TrialSpec
from repro.hw.noise import Environment
from repro.virt.system import AttackTopology, CloudSystem
from repro.workloads.vpp import VppVictim
from repro.workloads.websites import WebsiteProfile


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

