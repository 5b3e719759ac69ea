"""The coverage-guided campaign loop, crash-safe and resumable.

A campaign runs two lanes over the same topology:

* **guided** — energy-weighted corpus mutation steered by the coverage
  map; cases that discover new features join the corpus, findings with
  unseen signatures are shrunk (:func:`repro.fuzz.executor.shrink_case`)
  and persisted.
* **baseline** — pure random generation with its own coverage map, no
  corpus; exists only so the report can show what the guidance buys.

Everything on disk goes through the PR-2 atomic-write machinery:
``manifest.json`` (config-hash validated on ``--resume``),
``state.json`` (rewritten after every iteration), immutable
``corpus/NNNN.json`` and ``findings/NNNN.json`` files written *before*
the state references them.  A campaign killed at any iteration resumes
to the byte-identical final state, because each iteration's randomness
derives only from ``(seed, lane, iteration)`` and the corpus metadata
(including pick counts) rides in the state file.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.errors import CheckpointError
from repro.faults.canary import CANARY_ENV
from repro.experiments.checkpoint import (
    STATUS_COMPLETED,
    STATUS_INTERRUPTED,
    STATUS_RUNNING,
    RunManifest,
    atomic_write_json,
    config_hash,
    git_describe,
)
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.executor import build_fault_plan, execute_case, shrink_case
from repro.fuzz.gen import (
    derive_rng,
    generate_case,
    generate_topology,
    mutate,
    splice,
)

#: Exit code of ``python -m repro.fuzz`` when the campaign produced
#: findings (documented beside the runner codes in docs/robustness.md).
EXIT_FINDINGS = 7

STATE_NAME = "state.json"
STATE_VERSION = 1

#: RNG lanes (mixed into :func:`repro.fuzz.gen.derive_rng`).
LANE_TOPOLOGY = 0
LANE_GUIDED = 1
LANE_BASELINE = 2

#: Peak probability of mutating a corpus parent instead of generating
#: fresh, and of splicing in a second parent when mutating.  The
#: effective mutation probability ramps linearly with corpus size (full
#: strength at :data:`CORPUS_RAMP` entries): a near-empty corpus offers
#: little worth exploiting, so early trials explore like the baseline
#: and later trials add corpus depth on top of it.
MUTATE_P = 0.65
SPLICE_P = 0.25
CORPUS_RAMP = 32


@dataclass(frozen=True)
class FuzzConfig:
    """One campaign, fully determined by its fields."""

    seed: int = 0
    trials: int = 200
    processes: int = 2
    mode: str = "strict"
    fault_rate: float = 0.0
    shrink: bool = True
    shrink_budget: int = 80
    baseline: bool = True

    def to_mapping(self) -> "dict[str, Any]":
        """The mapping hashed into the manifest's ``config_hash``."""
        return asdict(self)


@dataclass(frozen=True)
class CampaignResult:
    """Summary of a (possibly partial) campaign."""

    config: FuzzConfig
    findings: "tuple[dict[str, Any], ...]"
    guided_features: int
    baseline_features: int
    corpus_size: int
    guided_trials: int
    baseline_trials: int
    completed: bool
    run_dir: Path

    @property
    def clean(self) -> bool:
        return not self.findings


# ----------------------------------------------------------------------
# State persistence
# ----------------------------------------------------------------------
def _fresh_state(config: FuzzConfig) -> "dict[str, Any]":
    return {
        "format_version": STATE_VERSION,
        "config": config.to_mapping(),
        "guided_iter": 0,
        "baseline_iter": 0,
        "coverage": CoverageMap().to_json(),
        "baseline_coverage": CoverageMap().to_json(),
        "coverage_history": [],
        "baseline_history": [],
        "corpus": [],
        "findings": [],
        "signatures": [],
        "baseline_findings": 0,
    }


def _save_state(run_dir: Path, state: "dict[str, Any]") -> None:
    atomic_write_json(run_dir / STATE_NAME, state)


def load_state(run_dir: "str | Path") -> "dict[str, Any]":
    """Read ``state.json`` (raises :class:`CheckpointError` if absent)."""
    path = Path(run_dir) / STATE_NAME
    if not path.exists():
        raise CheckpointError(f"no campaign state at {path}")
    try:
        state = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"unreadable campaign state {path}: {exc}") from exc
    version = state.get("format_version")
    if version != STATE_VERSION:
        raise CheckpointError(f"unsupported state version {version!r} in {path}")
    return state


def _load_corpus_ops(
    run_dir: Path, entry: "dict[str, Any]"
) -> "list[dict[str, Any]]":
    path = run_dir / entry["file"]
    try:
        return json.loads(path.read_text(encoding="utf-8"))["ops"]
    except (OSError, json.JSONDecodeError, KeyError) as exc:
        raise CheckpointError(f"corrupt corpus entry {path}: {exc}") from exc


# ----------------------------------------------------------------------
# Input selection
# ----------------------------------------------------------------------
def _pick_parent(rng: np.random.Generator, corpus: "list[dict[str, Any]]") -> int:
    """Energy-weighted corpus pick: weight 1/(1+picks) favors fresh
    entries without starving old ones."""
    weights = np.array([1.0 / (1.0 + entry["picks"]) for entry in corpus])
    return int(rng.choice(len(corpus), p=weights / weights.sum()))


def _pick_input(
    rng: np.random.Generator,
    config: FuzzConfig,
    state: "dict[str, Any]",
    topology: "dict[str, Any]",
    run_dir: Path,
) -> "list[dict[str, Any]]":
    corpus = state["corpus"]
    mutate_p = MUTATE_P * min(1.0, len(corpus) / CORPUS_RAMP)
    if corpus and rng.random() < mutate_p:
        parent = _pick_parent(rng, corpus)
        ops = _load_corpus_ops(run_dir, corpus[parent])
        corpus[parent]["picks"] += 1
        if len(corpus) > 1 and rng.random() < SPLICE_P:
            other = _pick_parent(rng, corpus)
            corpus[other]["picks"] += 1
            ops = splice(rng, ops, _load_corpus_ops(run_dir, corpus[other]))
        return mutate(rng, ops, topology, config.processes)
    return generate_case(rng, topology, config.processes)


# ----------------------------------------------------------------------
# The campaign
# ----------------------------------------------------------------------
def run_campaign(
    config: FuzzConfig,
    run_dir: "str | Path",
    resume: bool = False,
    stop_after: "int | None" = None,
) -> CampaignResult:
    """Run (or resume) a campaign in *run_dir*.

    *stop_after* bounds the number of trials executed by **this call**
    (both lanes counted); the campaign checkpoints and reports
    ``completed=False``, and a later ``resume=True`` call continues to
    the byte-identical end state — this is also how the determinism
    tests simulate kill-at-k.
    """
    run_dir = Path(run_dir)
    cfg_map = config.to_mapping()
    cfg_hash = config_hash(cfg_map)

    if resume and (run_dir / "manifest.json").exists():
        manifest = RunManifest.load(run_dir)
        if manifest.config_hash != cfg_hash:
            raise CheckpointError(
                f"campaign config mismatch in {run_dir}: manifest has "
                f"{manifest.config_hash[:12]}, current config hashes to "
                f"{cfg_hash[:12]} — pass the original flags or a new --dir"
            )
        state = load_state(run_dir)
        manifest.resumed += 1
    else:
        if (run_dir / STATE_NAME).exists() and not resume:
            raise CheckpointError(
                f"{run_dir} already holds a campaign; use --resume or a new --dir"
            )
        run_dir.mkdir(parents=True, exist_ok=True)
        manifest = RunManifest(
            experiment="fuzz-campaign",
            seed=config.seed,
            config=cfg_map,
            config_hash=cfg_hash,
            git_describe=git_describe(),
        )
        state = _fresh_state(config)
        _save_state(run_dir, state)
    manifest.status = STATUS_RUNNING
    manifest.trials_total = config.trials * (2 if config.baseline else 1)
    manifest.add_segment("start")
    manifest.save(run_dir)

    topology = generate_topology(derive_rng(config.seed, LANE_TOPOLOGY))
    fault_plan = build_fault_plan(config.seed, config.fault_rate)
    coverage = CoverageMap.from_json(state["coverage"])
    baseline_cov = CoverageMap.from_json(state["baseline_coverage"])
    steps = 0

    def out_of_budget() -> bool:
        return stop_after is not None and steps >= stop_after

    def checkpoint_interrupted() -> CampaignResult:
        manifest.status = STATUS_INTERRUPTED
        manifest.completed = state["guided_iter"] + state["baseline_iter"]
        manifest.add_segment("interrupted")
        manifest.save(run_dir)
        return _result(config, state, run_dir, completed=False)

    # -- guided lane ----------------------------------------------------
    while state["guided_iter"] < config.trials:
        if out_of_budget():
            return checkpoint_interrupted()
        iteration = state["guided_iter"]
        rng = derive_rng(config.seed, LANE_GUIDED, iteration)
        ops = _pick_input(rng, config, state, topology, run_dir)
        result = execute_case(
            ops,
            topology,
            seed=config.seed,
            processes=config.processes,
            mode=config.mode,
            coverage=coverage,
            fault_plan=fault_plan,
            repro_hint=_repro_hint(config),
        )
        if result.new_features > 0:
            entry_id = len(state["corpus"])
            rel = f"corpus/{entry_id:04d}.json"
            atomic_write_json(
                run_dir / rel,
                {"id": entry_id, "iteration": iteration, "ops": ops},
            )
            state["corpus"].append(
                {
                    "file": rel,
                    "ops": len(ops),
                    "new_features": result.new_features,
                    "picks": 0,
                }
            )
        if (
            result.finding is not None
            and result.finding.signature not in state["signatures"]
        ):
            state["signatures"].append(result.finding.signature)
            if config.shrink:
                minimal, shrink_runs = shrink_case(
                    ops,
                    topology,
                    result.finding.signature,
                    config.shrink_budget,
                    seed=config.seed,
                    processes=config.processes,
                    mode=config.mode,
                    fault_plan=fault_plan,
                )
            else:
                minimal, shrink_runs = list(ops), 0
            finding_id = len(state["findings"])
            rel = f"findings/{finding_id:04d}.json"
            atomic_write_json(
                run_dir / rel,
                {
                    "id": finding_id,
                    "kind": result.finding.kind,
                    "detail": result.finding.detail,
                    "message": result.finding.message,
                    "iteration": iteration,
                    "config": cfg_map,
                    # Replay must rebuild the exact model the campaign
                    # fuzzed, including any armed canary bugs.
                    "canaries": os.environ.get(CANARY_ENV, ""),
                    "ops": minimal,
                    "original_ops": len(ops),
                    "shrink_runs": shrink_runs,
                },
            )
            state["findings"].append(
                {
                    "file": rel,
                    "kind": result.finding.kind,
                    "detail": result.finding.detail,
                    "ops": len(minimal),
                    "shrink_runs": shrink_runs,
                }
            )
            manifest.failed += 1
        state["coverage"] = coverage.to_json()
        state["coverage_history"].append(coverage.features)
        state["guided_iter"] = iteration + 1
        _save_state(run_dir, state)
        steps += 1

    # -- baseline lane --------------------------------------------------
    baseline_trials = config.trials if config.baseline else 0
    while state["baseline_iter"] < baseline_trials:
        if out_of_budget():
            return checkpoint_interrupted()
        iteration = state["baseline_iter"]
        rng = derive_rng(config.seed, LANE_BASELINE, iteration)
        ops = generate_case(rng, topology, config.processes)
        result = execute_case(
            ops,
            topology,
            seed=config.seed,
            processes=config.processes,
            mode=config.mode,
            coverage=baseline_cov,
            fault_plan=fault_plan,
        )
        if result.finding is not None:
            state["baseline_findings"] += 1
        state["baseline_coverage"] = baseline_cov.to_json()
        state["baseline_history"].append(baseline_cov.features)
        state["baseline_iter"] = iteration + 1
        _save_state(run_dir, state)
        steps += 1

    manifest.status = STATUS_COMPLETED
    manifest.completed = state["guided_iter"] + state["baseline_iter"]
    manifest.exit_code = EXIT_FINDINGS if state["findings"] else 0
    manifest.add_segment("finish")
    manifest.save(run_dir)
    return _result(config, state, run_dir, completed=True)


def _repro_hint(config: FuzzConfig) -> str:
    return (
        "PYTHONPATH=src python -m repro.fuzz"
        f" --seed {config.seed} --trials {config.trials}"
        f" --processes {config.processes} --mode {config.mode}"
        f" --fault-rate {config.fault_rate}"
    )


def _result(
    config: FuzzConfig,
    state: "dict[str, Any]",
    run_dir: Path,
    completed: bool,
) -> CampaignResult:
    return CampaignResult(
        config=config,
        findings=tuple(state["findings"]),
        guided_features=CoverageMap.from_json(state["coverage"]).features,
        baseline_features=CoverageMap.from_json(
            state["baseline_coverage"]
        ).features,
        corpus_size=len(state["corpus"]),
        guided_trials=state["guided_iter"],
        baseline_trials=state["baseline_iter"],
        completed=completed,
        run_dir=run_dir,
    )
