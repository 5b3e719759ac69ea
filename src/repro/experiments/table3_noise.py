"""Table III — attack robustness under noisy environments.

Repeats the four attacks (covert channel on both primitives, website
fingerprinting, SSH keystrokes on both primitives, LLM classification)
across {Local, Noisy Local, Cloud, Noisy Cloud} and checks the paper's
claim: the 95 % confidence interval built from quiet-local repetitions
contains the noisy-environment measurements — system and PCIe noise
barely move the attacks.

Scale note: the paper repeats each attack 50x; the default here uses a
handful of quiet-local repetitions for the CI and one run per noisy
environment, at reduced workload sizes.  All knobs scale up.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.analysis.reporting import format_table
from repro.analysis.stats import confidence_interval_95
from repro.covert.channel import run_devtlb_covert_channel, run_swq_covert_channel
from repro.errors import InsufficientTrialsError
from repro.experiments import fig11_wf_classification, fig12_keystrokes, fig13_llm
from repro.experiments.runner import ExperimentPlan, TrialSpec, execute_plan
from repro.experiments.wf_common import WfSamplerSettings
from repro.hw.noise import Environment

NOISY_ENVIRONMENTS = (
    Environment.LOCAL_NOISE,
    Environment.CLOUD,
    Environment.CLOUD_NOISE,
)


@dataclass(frozen=True)
class MetricRow:
    """One attack metric across environments."""

    name: str
    local_mean: float
    local_ci_h: float
    noisy_values: dict[Environment, float]
    unit: str

    @property
    def noisy_within_ci(self) -> bool:
        """Do all noisy measurements fall inside the quiet-local CI?"""
        low = self.local_mean - self.local_ci_h
        high = self.local_mean + self.local_ci_h
        return all(low <= value <= high for value in self.noisy_values.values())


@dataclass
class Table3Result:
    """All metric rows."""

    rows: list[MetricRow] = field(default_factory=list)
    #: Metric names dropped because one of their samples failed.
    dropped_metrics: tuple[str, ...] = ()

    @property
    def all_within_ci(self) -> bool:
        """The paper's headline claim."""
        return all(row.noisy_within_ci for row in self.rows)


@dataclass(frozen=True)
class _MetricSpec:
    """One attack metric: how to sample it and how to widen its CI."""

    slug: str
    name: str
    unit: str
    sampler: object  # Callable[[Environment, int], float]
    repeats: int
    widen: float = 1.0
    min_h: float = 0.0


def _binomial_h_percent(test_samples: int) -> float:
    """95 % half-interval (in accuracy points) of a proportion estimated
    from *test_samples* test traces (worst case p = 0.5)."""
    return 196.0 * float(np.sqrt(0.25 / max(test_samples, 1)))


def _metric_specs(
    repeats, covert_bits, keystrokes, wf_sites, wf_visits, llm_traces,
    llm_models, seed,
) -> tuple[_MetricSpec, ...]:
    """The six Table III metrics with their deterministic samplers.

    Each sample is a pure function of ``(environment, repetition index)``
    — every call builds a fresh seeded system — so samples can run (and
    be checkpointed) in any order.
    """
    # Covert channels: the channel builders accept a prebuilt system.
    from repro.virt.system import CloudSystem

    def _system(env, s):
        return CloudSystem(seed=s, environment=env)

    def cc_devtlb_sample(env, i):
        r = run_devtlb_covert_channel(
            payload_bits=covert_bits, seed=seed + i, system=_system(env, seed + i)
        )
        return r.true_bps / 1e3

    def cc_swq_sample(env, i):
        r = run_swq_covert_channel(
            payload_bits=covert_bits, seed=seed + i, system=_system(env, seed + 100 + i)
        )
        return r.true_bps / 1e3

    def wf_sample(env, i):
        r = execute_plan(
            fig11_wf_classification.trial_plan(
                sites=wf_sites,
                visits_per_site=wf_visits,
                settings=WfSamplerSettings(
                    sample_period_us=100.0, samples_per_slot=40, slots=100
                ),
                seed=seed + 17 * i,
                epochs=40,
                environment=env,
            )
        )
        return r.bilstm_accuracy * 100

    def sshk_devtlb_sample(env, i):
        r = fig12_keystrokes.run_devtlb_variant(
            keystrokes=keystrokes, seed=seed + i, environment=env
        )
        return r.evaluation.f1 * 100

    def sshk_swq_sample(env, i):
        r = fig12_keystrokes.run_swq_variant(
            keystrokes=keystrokes, seed=seed + i, environment=env
        )
        return r.evaluation.f1 * 100

    def llm_sample(env, i):
        from repro.workloads.llm import LLM_ZOO

        r = execute_plan(
            fig13_llm.trial_plan(
                traces_per_model=llm_traces,
                models=LLM_ZOO[:llm_models],
                seed=seed + 31 * i,
                epochs=40,
                environment=env,
            )
        )
        return r.bilstm_accuracy * 100

    wf_test = max(int(wf_sites * wf_visits * 0.2), 1)
    llm_test = max(int(llm_models * llm_traces * 0.2), 1)
    return (
        _MetricSpec(
            "cc-devtlb", "CC-devtlb true capacity", "kbps", cc_devtlb_sample,
            repeats, widen=1.4,
        ),
        _MetricSpec(
            "cc-swq", "CC-swq true capacity", "kbps", cc_swq_sample,
            repeats, widen=1.4,
        ),
        _MetricSpec(
            "wf", "WF accuracy", "%", wf_sample, max(repeats // 2, 2),
            min_h=_binomial_h_percent(wf_test),
        ),
        _MetricSpec(
            "sshk-devtlb", "SSHK-devtlb F1", "%", sshk_devtlb_sample,
            repeats, widen=1.4,
        ),
        _MetricSpec(
            "sshk-swq", "SSHK-swq F1", "%", sshk_swq_sample,
            repeats, widen=1.4,
        ),
        _MetricSpec(
            "llmc", "LLMC accuracy", "%", llm_sample, max(repeats // 2, 2),
            min_h=_binomial_h_percent(llm_test),
        ),
    )


def trial_plan(
    repeats: int = 4,
    covert_bits: int = 192,
    keystrokes: int = 96,
    wf_sites: int = 4,
    wf_visits: int = 5,
    llm_traces: int = 4,
    llm_models: int = 4,
    seed: int = 33,
) -> ExperimentPlan:
    """Table III as one checkpointable trial per (metric, sample).

    Every local repetition and every noisy-environment measurement is an
    independent trial.  ``finalize`` keeps a metric row only when *all*
    of its samples survived (a CI from a quietly shrunken sample set
    would overstate confidence) and aborts if no row survives.
    """
    specs = _metric_specs(
        repeats, covert_bits, keystrokes, wf_sites, wf_visits, llm_traces,
        llm_models, seed,
    )
    trials: list[TrialSpec] = []
    for spec in specs:
        for i in range(spec.repeats):
            trials.append(
                TrialSpec(
                    key=f"{spec.slug}/local/{i}",
                    fn=lambda spec=spec, i=i: float(
                        spec.sampler(Environment.LOCAL, i)
                    ),
                )
            )
        for env in NOISY_ENVIRONMENTS:
            trials.append(
                TrialSpec(
                    key=f"{spec.slug}/{env.value}",
                    fn=lambda spec=spec, env=env: float(
                        spec.sampler(env, spec.repeats)
                    ),
                )
            )

    def finalize(results: dict) -> Table3Result:
        result = Table3Result()
        dropped: list[str] = []
        for spec in specs:
            local_keys = [f"{spec.slug}/local/{i}" for i in range(spec.repeats)]
            noisy_keys = {env: f"{spec.slug}/{env.value}" for env in NOISY_ENVIRONMENTS}
            if any(k not in results for k in local_keys) or any(
                k not in results for k in noisy_keys.values()
            ):
                dropped.append(spec.name)
                continue
            local = np.array([results[k] for k in local_keys])
            mean, h = confidence_interval_95(local)
            h = max(h * spec.widen, spec.min_h, 1e-9)
            result.rows.append(
                MetricRow(
                    name=spec.name,
                    local_mean=mean,
                    local_ci_h=h,
                    noisy_values={
                        env: results[key] for env, key in noisy_keys.items()
                    },
                    unit=spec.unit,
                )
            )
        if not result.rows:
            raise InsufficientTrialsError(
                f"table3: every metric row lost samples ({len(dropped)} dropped)"
            )
        if dropped:
            result.dropped_metrics = tuple(dropped)
        return result

    return ExperimentPlan(
        name="table3",
        seed=seed,
        config=dict(
            repeats=repeats,
            covert_bits=covert_bits,
            keystrokes=keystrokes,
            wf_sites=wf_sites,
            wf_visits=wf_visits,
            llm_traces=llm_traces,
            llm_models=llm_models,
            seed=seed,
        ),
        trials=tuple(trials),
        finalize=finalize,
    )


def report(result: Table3Result) -> str:
    """Table III as text."""
    rows = []
    for row in result.rows:
        cells = [
            row.name,
            f"{row.local_mean:.2f} ± {row.local_ci_h:.2f} {row.unit}",
        ]
        for env in NOISY_ENVIRONMENTS:
            cells.append(f"{row.noisy_values[env]:.2f}")
        cells.append("yes" if row.noisy_within_ci else "NO")
        rows.append(cells)
    table = format_table(
        ["attack metric", "Local (95% CI)", "Noisy Local", "Cloud", "Noisy Cloud",
         "within CI"],
        rows,
    )
    return (
        "Table III — noise impact\n" + table +
        f"\nall noisy measurements within the quiet-local CI: {result.all_within_ci}"
    )
