"""Fig. 12 / Section VI-C — SSH keystroke detection.

The victim types over SSH with DTO enabled; every keystroke produces a
tight cluster of DSA submissions.  Both primitives recover the keystroke
*timing*:

* ``DSA_DevTLB`` — Prime+Probe sampling.  Its probe period bounds the
  timing precision (the paper reports a 5.29 ms standard deviation) and
  probes hit by host interference must be discarded (the paper's
  "probed latency > 2,000 cycles" filter), costing recall.
* ``DSA_SWQ`` — Congest+Probe rounds.  The round is mostly sensing (the
  drain/congest blind spot is under 1 %), which is why the paper's SWQ
  variant posts both the higher F1 (98.4 %) and the tighter timing
  (1.21 ms).

Host interference (IOTLB shootdowns, scheduler preemption, unrelated
tenants) is modeled by two per-probe probabilities — a *discard* rate
(the >2,000-cycle filter events, hurting recall) and a *spurious* rate
(stray DSA activity, hurting precision) — calibrated in EXPERIMENTS.md
against the paper's raw TP/FP/FN counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.keystroke_eval import KeystrokeEvaluation, evaluate_keystrokes
from repro.analysis.reporting import format_table
from repro.core.devtlb_attack import DsaDevTlbAttack
from repro.core.swq_attack import DsaSwqAttack
from repro.experiments.runner import (
    ExperimentPlan,
    TrialSpec,
    require_all,
)
from repro.hw.noise import Environment
from repro.hw.units import us_to_cycles
from repro.virt.system import AttackTopology, CloudSystem
from repro.workloads.dto import DtoRuntime
from repro.workloads.ssh import SshKeystrokeSession

#: DevTLB sampling period for keystroke tracking (ms).  Coarse sampling
#: bounds the attacker's own DSA footprint; it also bounds the timing
#: precision at period/sqrt(12) ~ 5.3 ms — the paper's deviation.
DEVTLB_PROBE_PERIOD_MS = 18.0

#: SWQ round geometry: anchor execution span per round (ms).
SWQ_ROUND_MS = 4.0

#: Host-interference rates, calibrated to the paper's event counts
#: (DevTLB: 500 TP / 15 FP / 61 FN;  SWQ: 507 TP / 7 FP / 9 FN).
DEVTLB_DISCARD_PROBABILITY = 0.115
DEVTLB_SPURIOUS_PROBABILITY = 0.003
SWQ_DISCARD_PROBABILITY = 0.012
SWQ_SPURIOUS_PROBABILITY = 0.0003


@dataclass(frozen=True)
class KeystrokeAttackResult:
    """One primitive's detection run."""

    primitive: str
    evaluation: KeystrokeEvaluation
    detected_times: np.ndarray
    truth_times: np.ndarray


@dataclass(frozen=True)
class Fig12Result:
    """Both variants."""

    devtlb: KeystrokeAttackResult
    swq: KeystrokeAttackResult


def _type_text(length: int, seed: int) -> str:
    rng = np.random.default_rng(seed)
    alphabet = "abcdefghijklmnopqrstuvwxyz ./-"
    return "".join(alphabet[i] for i in rng.integers(0, len(alphabet), size=length))


def run_devtlb_variant(
    keystrokes: int = 256,
    seed: int = 12,
    environment: Environment = Environment.LOCAL,
) -> KeystrokeAttackResult:
    """Prime+Probe keystroke tracking."""
    system = CloudSystem(seed=seed, environment=environment)
    handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
    interference = np.random.default_rng(seed + 1)

    dto = DtoRuntime(handles.victim, wq_id=handles.victim_wq)
    session = SshKeystrokeSession(dto, np.random.default_rng(seed + 2))
    truth_events = session.schedule_typing(
        system.timeline, _type_text(keystrokes, seed), system.clock.now
    )
    start = system.clock.now
    truth_times = np.array([start + us_to_cycles(e.time_us) for e in truth_events])

    attack = DsaDevTlbAttack(handles.attacker, wq_id=handles.attacker_wq)
    attack.calibrate(samples=40)
    attack.prime()
    period = us_to_cycles(DEVTLB_PROBE_PERIOD_MS * 1000.0)
    end_time = truth_times[-1] + period * 4
    detected = []
    while system.clock.now < end_time:
        system.timeline.idle_until(system.clock.now + period)
        outcome = attack.probe()
        if interference.random() < DEVTLB_DISCARD_PROBABILITY:
            continue  # probe discarded by the >2,000-cycle filter
        if outcome.evicted or interference.random() < DEVTLB_SPURIOUS_PROBABILITY:
            detected.append(outcome.timestamp - period // 2)
    evaluation = evaluate_keystrokes(truth_times, np.array(detected))
    return KeystrokeAttackResult(
        primitive="devtlb",
        evaluation=evaluation,
        detected_times=np.array(detected),
        truth_times=truth_times,
    )


def run_swq_variant(
    keystrokes: int = 256,
    seed: int = 12,
    environment: Environment = Environment.LOCAL,
) -> KeystrokeAttackResult:
    """Congest+Probe keystroke tracking (timer-free)."""
    system = CloudSystem(seed=seed, environment=environment)
    handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
    interference = np.random.default_rng(seed + 1)

    dto = DtoRuntime(handles.victim, wq_id=0)
    session = SshKeystrokeSession(dto, np.random.default_rng(seed + 2))
    truth_events = session.schedule_typing(
        system.timeline, _type_text(keystrokes, seed), system.clock.now
    )
    start = system.clock.now
    truth_times = np.array([start + us_to_cycles(e.time_us) for e in truth_events])

    round_cycles = us_to_cycles(SWQ_ROUND_MS * 1000.0)
    idle_cycles = int(round_cycles * 0.93)
    anchor_bytes = int(round_cycles * 0.97 * 15)
    attack = DsaSwqAttack(handles.attacker, wq_id=0, anchor_bytes=anchor_bytes)
    end_time = truth_times[-1] + round_cycles * 4
    detected = []
    while system.clock.now < end_time:
        result = attack.run_round(idle_cycles, timeline=system.timeline)
        if interference.random() < SWQ_DISCARD_PROBABILITY:
            continue
        if result.victim_detected or interference.random() < SWQ_SPURIOUS_PROBABILITY:
            detected.append(result.probe_time - idle_cycles // 2)
    evaluation = evaluate_keystrokes(truth_times, np.array(detected))
    return KeystrokeAttackResult(
        primitive="swq",
        evaluation=evaluation,
        detected_times=np.array(detected),
        truth_times=truth_times,
    )


def trial_plan(
    keystrokes: int = 256,
    seed: int = 12,
    environment: Environment = Environment.LOCAL,
) -> ExperimentPlan:
    """One checkpointable trial per primitive variant (both required —
    the figure is the DevTLB/SWQ comparison)."""
    variants = {
        "variant/devtlb": lambda: run_devtlb_variant(keystrokes, seed, environment),
        "variant/swq": lambda: run_swq_variant(keystrokes, seed, environment),
    }
    trials = tuple(TrialSpec(key=key, fn=fn) for key, fn in variants.items())
    keys = list(variants)

    def finalize(results: dict) -> Fig12Result:
        devtlb, swq = require_all(results, keys, "fig12")
        return Fig12Result(devtlb=devtlb, swq=swq)

    return ExperimentPlan(
        name="fig12",
        seed=seed,
        config=dict(keystrokes=keystrokes, seed=seed, environment=environment),
        trials=trials,
        finalize=finalize,
        min_successes=len(trials),
    )


def report(result: Fig12Result) -> str:
    """Section VI-C's metrics as a table."""
    rows = []
    for variant, paper_f1, paper_std in (
        (result.devtlb, "92.0%", "5.29 ms"),
        (result.swq, "98.4%", "1.21 ms"),
    ):
        ev = variant.evaluation
        rows.append(
            [
                variant.primitive,
                ev.ground_truth,
                ev.detections,
                ev.true_positives,
                ev.false_positives,
                ev.false_negatives,
                f"{ev.precision * 100:.1f}%",
                f"{ev.recall * 100:.1f}%",
                f"{ev.f1 * 100:.1f}% (paper {paper_f1})",
                f"{ev.timestamp_std_ms:.2f} ms (paper {paper_std})",
            ]
        )
    return "Fig. 12 / Section VI-C — SSH keystroke detection\n" + format_table(
        ["primitive", "truth", "events", "TP", "FP", "FN", "precision", "recall",
         "F1", "timing std"],
        rows,
    )
