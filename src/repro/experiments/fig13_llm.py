"""Fig. 13 / Section VI-D — LLM inference fingerprinting.

Collects DevTLB-miss traces of the Table II model zoo running inference
behind DTO, using the paper's 8 ms slots, and classifies the model from
a single trace with the Attention-BiLSTM.  The paper reports 98.6 %
validation accuracy over 8 models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import format_table
from repro.core.devtlb_attack import DsaDevTlbAttack
from repro.core.sampling import DevTlbSampler, SamplerConfig
from repro.errors import InsufficientTrialsError
from repro.experiments.runner import ExperimentPlan, TrialSpec
from repro.hw.noise import Environment
from repro.ml.baseline import NearestCentroidClassifier
from repro.ml.metrics import accuracy, confusion_matrix
from repro.ml.model import AttentionBiLstmClassifier
from repro.ml.train import TrainConfig, Trainer, train_test_split
from repro.virt.system import AttackTopology, CloudSystem
from repro.workloads.dto import DtoRuntime
from repro.workloads.llm import LLM_ZOO, LlmInferenceWorkload, LlmModel


@dataclass(frozen=True)
class LlmSamplerSettings:
    """8 ms slots, as the paper configures for weight-transfer cadence."""

    sample_period_us: float = 160.0
    samples_per_slot: int = 50  # 160 us x 50 = 8 ms per slot
    slots: int = 120

    def sampler_config(self) -> SamplerConfig:
        """As a :class:`SamplerConfig`."""
        return SamplerConfig(
            sample_period_us=self.sample_period_us,
            samples_per_slot=self.samples_per_slot,
            slots=self.slots,
        )

    @property
    def trace_duration_us(self) -> float:
        """Wall-clock span of one trace."""
        return self.sample_period_us * self.samples_per_slot * self.slots


@dataclass(frozen=True)
class Fig13Result:
    """Classification outcome plus one example trace per model."""

    model_names: tuple[str, ...]
    bilstm_accuracy: float
    baseline_accuracy: float
    matrix: np.ndarray
    example_traces: dict[str, np.ndarray]


def collect_llm_trace(
    model: LlmModel,
    seed: int,
    settings: LlmSamplerSettings | None = None,
    environment: Environment = Environment.LOCAL,
) -> np.ndarray:
    """One DevTLB trace of one model's inference."""
    settings = settings or LlmSamplerSettings()
    system = CloudSystem(seed=seed, environment=environment)
    handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
    attack = DsaDevTlbAttack(handles.attacker, wq_id=handles.attacker_wq)
    attack.calibrate(samples=30)

    dto = DtoRuntime(handles.victim, wq_id=handles.victim_wq)
    workload = LlmInferenceWorkload(dto, model, system.rng)
    workload.schedule_inference(
        system.timeline, system.clock.now, duration_us=settings.trace_duration_us
    )
    sampler = DevTlbSampler(attack, system.timeline, settings.sampler_config())
    return sampler.collect_trace()


def trial_plan(
    traces_per_model: int = 8,
    settings: LlmSamplerSettings | None = None,
    models: tuple[LlmModel, ...] = LLM_ZOO,
    seed: int = 1300,
    hidden: int = 12,
    epochs: int = 60,
    environment: Environment = Environment.LOCAL,
) -> ExperimentPlan:
    """One checkpointable trial per (model, trace index).

    Collection dominates cost; training re-runs deterministically in
    ``finalize``.  A model losing every trace aborts — the classifier's
    label table must cover the whole zoo.
    """
    settings = settings or LlmSamplerSettings()

    def trace_key(model: LlmModel, index: int) -> str:
        return f"model/{model.name}/trace/{index}"

    trials = tuple(
        TrialSpec(
            key=trace_key(model, index),
            fn=lambda model=model, label=label, index=index: collect_llm_trace(
                model, seed + label * 1000 + index, settings, environment
            ),
        )
        for label, model in enumerate(models)
        for index in range(traces_per_model)
    )

    def finalize(results: dict) -> Fig13Result:
        traces = []
        labels = []
        examples: dict[str, np.ndarray] = {}
        for label, model in enumerate(models):
            survivors = [
                results[key]
                for index in range(traces_per_model)
                if (key := trace_key(model, index)) in results
            ]
            if not survivors:
                raise InsufficientTrialsError(
                    f"model {model.name!r}: 0/{traces_per_model} traces collected"
                )
            traces.extend(survivors)
            labels.extend([label] * len(survivors))
            examples[model.name] = survivors[0]
        x = np.stack(traces)
        y = np.array(labels)
        x_train, y_train, x_test, y_test = train_test_split(
            x, y, test_fraction=0.2, rng=np.random.default_rng(seed)
        )
        classifier = AttentionBiLstmClassifier(
            classes=len(models), hidden=hidden, rng=np.random.default_rng(seed + 1)
        )
        trainer = Trainer(
            classifier, TrainConfig(epochs=epochs, batch_size=16, seed=seed)
        )
        trainer.fit(x_train, y_train)
        predictions = trainer.predict(x_test)
        baseline = NearestCentroidClassifier().fit(x_train, y_train)
        return Fig13Result(
            model_names=tuple(m.name for m in models),
            bilstm_accuracy=accuracy(y_test, predictions),
            baseline_accuracy=accuracy(y_test, baseline.predict(x_test)),
            matrix=confusion_matrix(y_test, predictions, classes=len(models)),
            example_traces=examples,
        )

    return ExperimentPlan(
        name="fig13",
        seed=seed,
        config=dict(
            traces_per_model=traces_per_model,
            settings=settings,
            models=tuple(m.name for m in models),
            seed=seed,
            hidden=hidden,
            epochs=epochs,
            environment=environment,
        ),
        trials=trials,
        finalize=finalize,
    )


def report(result: Fig13Result) -> str:
    """Accuracy summary plus trace statistics per model."""
    lines = [
        "Fig. 13 / Section VI-D — LLM fingerprinting",
        f"models: {len(result.model_names)}",
        f"Attention-BiLSTM accuracy: {result.bilstm_accuracy * 100:.1f}% "
        f"(paper: 98.6%)",
        f"nearest-centroid baseline: {result.baseline_accuracy * 100:.1f}%",
    ]
    rows = [
        [
            name,
            f"{trace.mean():.1f}",
            f"{trace.max()}",
            f"{(trace > 0).mean() * 100:.0f}%",
        ]
        for name, trace in result.example_traces.items()
    ]
    lines.append(
        format_table(["model", "mean misses/slot", "peak", "active slots"], rows)
    )
    return "\n".join(lines)
