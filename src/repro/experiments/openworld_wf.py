"""Extension: open-world website fingerprinting.

The paper's Fig. 11 is closed-world.  Here the attacker trains on a
*monitored* subset of sites, calibrates a confidence threshold on held-out
known traces, and is then shown a mixture of monitored and unmonitored
visits — the question becomes "which monitored site, if any?".  Reported
metrics follow the open-world WF literature: known-class accuracy (with
rejection counting as an error) and unknown rejection rate.
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
from repro.ml.model import AttentionBiLstmClassifier
from repro.ml.openworld import OpenWorldClassifier, OpenWorldScores
from repro.ml.train import TrainConfig, Trainer, train_test_split
from repro.workloads.websites import top_sites


@dataclass(frozen=True)
class OpenWorldWfResult:
    """Outcome of the open-world run."""

    monitored_sites: tuple[str, ...]
    unmonitored_sites: tuple[str, ...]
    threshold: float
    scores: OpenWorldScores
    closed_world_accuracy: float


#: Checkpoint-key prefix separating unmonitored-world visits from the
#: monitored training set in one journal.
UNMONITORED_PREFIX = "un/"


def trial_plan(
    monitored: int = 5,
    unmonitored: int = 4,
    visits_per_site: int = 8,
    settings: WfSamplerSettings | None = None,
    seed: int = 700,
    epochs: int = 60,
    hidden: int = 10,
    target_known_recall: float = 0.85,
) -> ExperimentPlan:
    """Open-world WF as per-visit trials over both worlds.

    Monitored and unmonitored visits share one journal (unmonitored keys
    carry :data:`UNMONITORED_PREFIX`); training, threshold calibration,
    and open-world scoring all live in ``finalize`` so a resumed run
    trains on exactly the traces an uninterrupted one would have.
    """
    settings = settings or WfSamplerSettings(
        sample_period_us=100.0, samples_per_slot=40, slots=100
    )
    profiles = top_sites(monitored + unmonitored)
    monitored_profiles = profiles[:monitored]
    unmonitored_profiles = profiles[monitored:]
    unmonitored_visits = max(visits_per_site // 2, 2)

    trials = website_visit_trials(
        monitored_profiles, visits_per_site, settings, seed=seed
    ) + website_visit_trials(
        unmonitored_profiles, unmonitored_visits, settings,
        seed=seed + 50_000, key_prefix=UNMONITORED_PREFIX,
    )

    def finalize(results: dict) -> OpenWorldWfResult:
        x, y = assemble_website_dataset(
            monitored_profiles, visits_per_site, results
        )
        x_train, y_train, x_test, y_test = train_test_split(
            x, y, test_fraction=0.25, rng=np.random.default_rng(seed)
        )
        model = AttentionBiLstmClassifier(
            classes=monitored, hidden=hidden, rng=np.random.default_rng(seed + 1)
        )
        trainer = Trainer(
            model,
            TrainConfig(
                epochs=epochs, batch_size=16, seed=seed + 2,
                early_stop_train_accuracy=1.01,
            ),
        )
        trainer.fit(x_train, y_train)
        closed_world = trainer.evaluate(x_test, y_test)

        open_world = OpenWorldClassifier.from_trainer(trainer)
        threshold = open_world.calibrate_threshold(
            x_train, target_known_recall=target_known_recall
        )

        unknown_x, _ = assemble_website_dataset(
            unmonitored_profiles, unmonitored_visits, results,
            key_prefix=UNMONITORED_PREFIX,
        )
        scores = open_world.evaluate(x_test, y_test, unknown_x)
        return OpenWorldWfResult(
            monitored_sites=tuple(p.name for p in monitored_profiles),
            unmonitored_sites=tuple(p.name for p in unmonitored_profiles),
            threshold=threshold,
            scores=scores,
            closed_world_accuracy=closed_world,
        )

    return ExperimentPlan(
        name="openworld",
        seed=seed,
        config=dict(
            monitored=monitored,
            unmonitored=unmonitored,
            visits_per_site=visits_per_site,
            settings=settings,
            seed=seed,
            epochs=epochs,
            hidden=hidden,
            target_known_recall=target_known_recall,
        ),
        trials=tuple(trials),
        finalize=finalize,
    )


def report(result: OpenWorldWfResult) -> str:
    """Text summary."""
    rows = [
        ["closed-world accuracy", f"{result.closed_world_accuracy * 100:.1f}%"],
        ["confidence threshold", f"{result.threshold:.3f}"],
        ["open-world known accuracy", f"{result.scores.known_accuracy * 100:.1f}%"],
        ["unknown rejection rate", f"{result.scores.unknown_rejection_rate * 100:.1f}%"],
        ["balanced score", f"{result.scores.balanced * 100:.1f}%"],
    ]
    return (
        "Open-world website fingerprinting (extension)\n"
        f"monitored: {', '.join(result.monitored_sites)}\n"
        f"unmonitored: {', '.join(result.unmonitored_sites)}\n"
        + format_table(["metric", "value"], rows)
    )
