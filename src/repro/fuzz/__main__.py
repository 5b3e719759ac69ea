"""CLI driver: ``python -m repro.fuzz``.

Exit codes extend the experiment-runner convention
(docs/robustness.md):

====  ==========================================================
0     campaign completed with no findings (or replay did not
      reproduce)
2     usage error (e.g. ``--processes`` below 1)
5     checkpoint/config mismatch on ``--resume``
7     findings present (``EXIT_FINDINGS``) — also the replay
      exit code when the finding reproduces
75    interrupted by ``--stop-after`` (partial, resumable)
====  ==========================================================

Examples::

    PYTHONPATH=src python -m repro.fuzz --seed 7 --trials 200 --dir runs/fuzz7
    PYTHONPATH=src python -m repro.fuzz --dir runs/fuzz7 --resume
    cd runs/fuzz7 && PYTHONPATH=../../src python -m repro.fuzz \
        --replay findings/0000.json
"""

from __future__ import annotations

import argparse
import json
import os
from pathlib import Path
from typing import Sequence

from repro.errors import CheckpointError
from repro.faults.canary import CANARY_ENV
from repro.experiments.runner import EXIT_CONFIG_MISMATCH, EXIT_DEADLINE
from repro.fuzz.campaign import (
    EXIT_FINDINGS,
    LANE_TOPOLOGY,
    FuzzConfig,
    run_campaign,
)
from repro.fuzz.executor import build_fault_plan, execute_case
from repro.fuzz.gen import derive_rng, generate_topology
from repro.fuzz.report import write_report

_CONFIG_FIELDS = (
    "seed",
    "trials",
    "processes",
    "mode",
    "fault_rate",
    "shrink",
    "shrink_budget",
    "baseline",
)


def _replay(path: str) -> int:
    """Re-execute a persisted finding; exit 7 when it still reproduces."""
    record = json.loads(Path(path).read_text(encoding="utf-8"))
    raw = record["config"]
    config = FuzzConfig(**{key: raw[key] for key in _CONFIG_FIELDS})
    topology = generate_topology(derive_rng(config.seed, LANE_TOPOLOGY))
    # Rebuild the fuzzed model exactly: arm the canaries the campaign ran
    # with (restored afterwards so the process env stays clean).
    saved_canaries = os.environ.get(CANARY_ENV)
    canaries = record.get("canaries", "")
    if canaries:
        os.environ[CANARY_ENV] = canaries
    try:
        result = execute_case(
            record["ops"],
            topology,
            seed=config.seed,
            processes=config.processes,
            mode=config.mode,
            fault_plan=build_fault_plan(config.seed, config.fault_rate),
        )
    finally:
        if canaries:
            if saved_canaries is None:
                del os.environ[CANARY_ENV]
            else:
                os.environ[CANARY_ENV] = saved_canaries
    expected = f"{record['kind']}:{record['detail']}"
    if result.finding is not None and result.finding.signature == expected:
        print(f"reproduced {expected} with {len(record['ops'])} ops:")
        print(f"  {result.finding.message}")
        return EXIT_FINDINGS
    if result.finding is not None:
        print(
            f"different outcome: expected {expected}, "
            f"got {result.finding.signature}"
        )
        return EXIT_FINDINGS
    print(f"did not reproduce {expected} ({result.ops_executed} ops ran clean)")
    return 0


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Coverage-guided fuzzing campaign for the DSA/ATS model.",
    )
    parser.add_argument("--seed", type=int, default=0, help="campaign seed")
    parser.add_argument(
        "--trials", type=int, default=200, help="guided trials (and baseline)"
    )
    parser.add_argument(
        "--processes", type=int, default=2, help="guest processes per case"
    )
    parser.add_argument(
        "--mode",
        default="strict",
        choices=("strict", "sampling", "sample"),
        help="invariant monitor audit cadence",
    )
    parser.add_argument(
        "--fault-rate",
        type=float,
        default=0.0,
        help="per-opportunity fault injection probability",
    )
    parser.add_argument(
        "--dir",
        default="fuzz-campaign",
        help="campaign directory (corpus, findings, state, reports)",
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="continue a checkpointed campaign in --dir",
    )
    parser.add_argument(
        "--stop-after",
        type=int,
        default=None,
        help="run at most N trials this invocation, then checkpoint",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="skip the unguided comparison lane",
    )
    parser.add_argument(
        "--no-shrink", action="store_true", help="persist findings unshrunk"
    )
    parser.add_argument(
        "--replay",
        metavar="FINDING_JSON",
        help="re-execute one persisted finding instead of fuzzing",
    )
    args = parser.parse_args(argv)
    if args.processes < 1:
        parser.error(f"--processes must be >= 1, got {args.processes}")

    if args.replay:
        return _replay(args.replay)

    config = FuzzConfig(
        seed=args.seed,
        trials=args.trials,
        processes=args.processes,
        mode=args.mode,
        fault_rate=args.fault_rate,
        shrink=not args.no_shrink,
        baseline=not args.no_baseline,
    )
    try:
        result = run_campaign(
            config, args.dir, resume=args.resume, stop_after=args.stop_after
        )
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}")
        return EXIT_CONFIG_MISMATCH

    if not result.completed:
        print(
            f"fuzz seed={config.seed}: checkpointed after --stop-after "
            f"({result.guided_trials} guided + {result.baseline_trials} "
            f"baseline trials done); resume with --resume"
        )
        return EXIT_DEADLINE

    report = write_report(result.run_dir)
    print(
        f"fuzz seed={config.seed}: {result.guided_trials} guided trials, "
        f"{result.guided_features} features "
        f"(baseline {result.baseline_features}), "
        f"corpus {result.corpus_size}, findings {len(result.findings)}"
    )
    print(f"report: {report}")
    for finding in result.findings:
        print(
            f"  finding {finding['kind']}:{finding['detail']} "
            f"({finding['ops']} ops) — replay: PYTHONPATH=src python -m "
            f"repro.fuzz --replay {finding['file']} (from {result.run_dir})"
        )
    return EXIT_FINDINGS if result.findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
