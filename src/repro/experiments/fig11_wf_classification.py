"""Fig. 11 / Section VI-B — website fingerprinting classification.

Collects a DevTLB-trace dataset for *n* sites x *m* visits, trains the
Attention-BiLSTM on an 80/20 split, and reports top-1 accuracy plus the
confusion matrix.  The paper reaches 96.5 % on a 15-site subset and
85.73 % on the full 100-site set with 200 traces per site.

The default scale (15 sites, 12 visits) keeps a single run in benchmark
territory; the full paper scale is a parameter away (and linear in
sites x visits).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.reporting import format_table
from repro.experiments.runner import ExperimentPlan
from repro.experiments.wf_common import (
    WfSamplerSettings,
    assemble_website_dataset,
    website_visit_trials,
)
from repro.hw.noise import Environment
from repro.ml.baseline import NearestCentroidClassifier
from repro.ml.metrics import accuracy, confusion_matrix
from repro.ml.model import AttentionBiLstmClassifier
from repro.ml.train import TrainConfig, Trainer, train_test_split
from repro.workloads.websites import top_sites


@dataclass(frozen=True)
class Fig11Result:
    """Classification outcome."""

    site_names: tuple[str, ...]
    bilstm_accuracy: float
    baseline_accuracy: float
    matrix: np.ndarray
    test_samples: int


def trial_plan(
    sites: int = 10,
    visits_per_site: int = 10,
    settings: WfSamplerSettings | None = None,
    seed: int = 100,
    hidden: int = 12,
    epochs: int = 60,
    environment: Environment = Environment.LOCAL,
) -> ExperimentPlan:
    """One checkpointable trial per (site, visit); training happens in
    ``finalize`` over whichever visits survived.

    Trace collection dominates the cost (the paper's full sweep takes a
    day), so that is what gets checkpointed; the deterministic training
    pass re-runs on resume.  A failed visit is dropped; a site losing
    every visit aborts via ``assemble_website_dataset``.
    """
    settings = settings or WfSamplerSettings(
        sample_period_us=100.0, samples_per_slot=40, slots=120
    )
    profiles = top_sites(sites)
    trials = website_visit_trials(
        profiles, visits_per_site, settings, seed=seed, environment=environment
    )

    def finalize(results: dict) -> Fig11Result:
        x, y = assemble_website_dataset(profiles, visits_per_site, results)
        x_train, y_train, x_test, y_test = train_test_split(
            x, y, test_fraction=0.2, rng=np.random.default_rng(seed)
        )

        model = AttentionBiLstmClassifier(
            classes=sites, hidden=hidden, rng=np.random.default_rng(seed + 1)
        )
        trainer = Trainer(
            model, TrainConfig(epochs=epochs, batch_size=32, seed=seed + 2)
        )
        trainer.fit(x_train, y_train)
        predictions = trainer.predict(x_test)
        bilstm_accuracy = accuracy(y_test, predictions)

        baseline = NearestCentroidClassifier().fit(x_train, y_train)
        baseline_accuracy = accuracy(y_test, baseline.predict(x_test))

        return Fig11Result(
            site_names=tuple(p.name for p in profiles),
            bilstm_accuracy=bilstm_accuracy,
            baseline_accuracy=baseline_accuracy,
            matrix=confusion_matrix(y_test, predictions, classes=sites),
            test_samples=len(y_test),
        )

    return ExperimentPlan(
        name="fig11",
        seed=seed,
        config=dict(
            sites=sites,
            visits_per_site=visits_per_site,
            settings=settings,
            seed=seed,
            hidden=hidden,
            epochs=epochs,
            environment=environment,
        ),
        trials=tuple(trials),
        finalize=finalize,
    )


def report(result: Fig11Result) -> str:
    """Accuracy summary plus the confusion matrix of the worst classes."""
    lines = [
        "Fig. 11 / Section VI-B — website fingerprinting",
        f"sites: {len(result.site_names)}  test traces: {result.test_samples}",
        f"Attention-BiLSTM top-1 accuracy: {result.bilstm_accuracy * 100:.1f}% "
        f"(paper: 96.5% on 15 sites, 85.7% on 100)",
        f"nearest-centroid baseline:       {result.baseline_accuracy * 100:.1f}%",
    ]
    per_class = result.matrix.diagonal() / np.maximum(result.matrix.sum(axis=1), 1)
    order = np.argsort(per_class)
    rows = [
        [result.site_names[i], f"{per_class[i] * 100:.0f}%",
         int(result.matrix[i].sum())]
        for i in order[:5]
    ]
    lines.append("hardest classes:")
    lines.append(format_table(["site", "recall", "test traces"], rows))
    return "\n".join(lines)
