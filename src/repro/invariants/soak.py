"""Seeded randomized soak harness for the self-verifying model.

Generates a random-but-deterministic workload of *valid* operations
across SWQ/DWQ/batch/multi-engine configurations and runs it through
the fuzzer's case runner (:func:`repro.fuzz.executor.execute_case`) —
one oracle harness, two workload generators.  The monitor runs in
strict mode by default; when a checker trips or a non-``ReproError``
escapes the model, :func:`repro.fuzz.executor.shrink_case` reduces the
operation list to a minimal reproducer that still reports the same
finding signature.  Everything is a pure function of the seed, so any
finding is replayable as::

    PYTHONPATH=src python -m repro.invariants.soak --seed <N> --operations <M>

Budgets are expressed in *operation counts*, never wall-clock time: the
soak must stay deterministic (docs/static-analysis.md, DET002).

Exits 0 when clean, ``EXIT_INVARIANT`` (6) on an invariant violation
and ``EXIT_FINDINGS`` (7) on an escaped exception.  Run via
``scripts/check.sh full`` or ``python -m repro.invariants.soak``.
"""

from __future__ import annotations

import argparse
import json
from dataclasses import dataclass
from typing import Any, Sequence

import numpy as np

from repro.experiments.runner import EXIT_INVARIANT
from repro.fuzz.campaign import EXIT_FINDINGS
from repro.fuzz.executor import CaseResult, execute_case, shrink_case
from repro.fuzz.gen import wq_owner

#: Stream label mixed into the seed so soak draws never collide with the
#: model's own seeded generators.
_SOAK_STREAM = 0x50A5

_OP_KINDS = ("submit_wait", "submit", "wait", "batch", "advance", "drain")
_OP_WEIGHTS = (0.30, 0.22, 0.16, 0.08, 0.18, 0.06)
_SIZES = (0, 64, 1024, 4096, 16384)


@dataclass(frozen=True)
class SoakConfig:
    """One soak run, fully determined by its fields."""

    seed: int = 0
    operations: int = 300
    processes: int = 3
    mode: str = "strict"
    sample_every: int = 16
    #: Maximum re-executions the shrinker may spend on one failure.
    shrink_budget: int = 120


@dataclass(frozen=True)
class SoakResult:
    """A full soak run: the executed case plus (on a finding) the
    minimal reproducer."""

    config: SoakConfig
    case: CaseResult
    repro: str
    minimal_ops: "tuple[dict[str, Any], ...] | None" = None
    shrink_runs: int = 0

    @property
    def ok(self) -> bool:
        return self.case.ok


def _derive_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence((_SOAK_STREAM, seed)))


# ----------------------------------------------------------------------
# Workload generation
# ----------------------------------------------------------------------
def generate_topology(rng: np.random.Generator) -> "dict[str, Any]":
    """Random engine/group/queue topology (SWQ, DWQ, multi-engine)."""
    engines = int(rng.integers(1, 5))
    if engines >= 2 and rng.random() < 0.5:
        split = engines // 2
        groups = [tuple(range(split)), tuple(range(split, engines))]
    else:
        groups = [tuple(range(engines))]
    wqs = []
    for wq_id in range(int(rng.integers(1, 4))):
        wqs.append(
            {
                "wq_id": wq_id,
                "size": int(rng.integers(4, 25)),
                "mode": "dedicated" if rng.random() < 0.25 else "shared",
                "priority": int(rng.integers(0, 4)),
                "group": int(rng.integers(0, len(groups))),
            }
        )
    return {"engines": engines, "groups": groups, "wqs": wqs}


def generate_ops(
    rng: np.random.Generator,
    topology: "dict[str, Any]",
    count: int,
    processes: int,
) -> "list[dict[str, Any]]":
    """*count* random operations against *topology*."""
    wqs = topology["wqs"]
    ops: list[dict[str, Any]] = []
    for _ in range(count):
        kind = _OP_KINDS[int(rng.choice(len(_OP_KINDS), p=_OP_WEIGHTS))]
        wq = wqs[int(rng.integers(0, len(wqs)))]
        if wq["mode"] == "dedicated":
            proc = wq_owner(wq, processes)
        else:
            proc = int(rng.integers(0, processes))
        op: dict[str, Any] = {"kind": kind, "proc": proc, "wq": int(wq["wq_id"])}
        if kind in ("submit_wait", "submit"):
            op["opcode"] = str(rng.choice(("noop", "memmove", "fill")))
            op["size"] = int(_SIZES[int(rng.integers(0, len(_SIZES)))])
            if op["size"] == 0:
                # A zero-length transfer is an invalid descriptor; the
                # soak only generates valid work.
                op["opcode"] = "noop"
        elif kind == "batch":
            op["children"] = int(rng.integers(2, 7))
        elif kind == "advance":
            op["cycles"] = int(rng.integers(1_000, 200_000))
        ops.append(op)
    return ops


def generate_workload(
    config: SoakConfig,
) -> "tuple[dict[str, Any], list[dict[str, Any]]]":
    """The (topology, ops) pair for *config* — a pure function of the seed."""
    rng = _derive_rng(config.seed)
    topology = generate_topology(rng)
    ops = generate_ops(rng, topology, config.operations, config.processes)
    return topology, ops


# ----------------------------------------------------------------------
# The driver
# ----------------------------------------------------------------------
def repro_command(config: SoakConfig) -> str:
    """The one-command reproduction line carried into violations."""
    return (
        "PYTHONPATH=src python -m repro.invariants.soak"
        f" --seed {config.seed}"
        f" --operations {config.operations}"
        f" --processes {config.processes}"
        f" --mode {config.mode}"
        f" --sample-every {config.sample_every}"
    )


def run_soak(config: SoakConfig, shrink_failures: bool = True) -> SoakResult:
    """One full soak run: generate, execute, and on a finding shrink."""
    topology, ops = generate_workload(config)
    repro = repro_command(config)
    run = {
        "seed": config.seed,
        "processes": config.processes,
        "mode": config.mode,
        "sample_every": config.sample_every,
    }
    case = execute_case(ops, topology, repro_hint=repro, **run)
    minimal: "tuple[dict[str, Any], ...] | None" = None
    shrink_runs = 0
    if case.finding is not None and shrink_failures:
        reduced, shrink_runs = shrink_case(
            ops, topology, case.finding.signature, config.shrink_budget, **run
        )
        minimal = tuple(reduced)
    return SoakResult(
        config=config,
        case=case,
        repro=repro,
        minimal_ops=minimal,
        shrink_runs=shrink_runs,
    )


def main(argv: "Sequence[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.invariants.soak",
        description=__doc__.split("\n\n")[0],
    )
    parser.add_argument("--seed", type=int, default=0, help="base run seed")
    parser.add_argument(
        "--runs", type=int, default=1, help="consecutive seeds to soak"
    )
    parser.add_argument(
        "--operations", type=int, default=300, help="operations per run"
    )
    parser.add_argument(
        "--processes", type=int, default=3, help="guest processes per run"
    )
    parser.add_argument(
        "--mode",
        default="strict",
        choices=("strict", "sampling", "sample"),
        help="audit cadence for the monitor",
    )
    parser.add_argument(
        "--sample-every",
        type=int,
        default=16,
        help="audit period in sampling mode",
    )
    parser.add_argument(
        "--no-shrink",
        action="store_true",
        help="skip workload shrinking on failure",
    )
    args = parser.parse_args(argv)

    if args.processes < 1:
        parser.error(f"--processes must be >= 1, got {args.processes}")
    if args.operations < 0:
        parser.error(f"--operations must be >= 0, got {args.operations}")

    exit_code = 0
    for offset in range(args.runs):
        config = SoakConfig(
            seed=args.seed + offset,
            operations=args.operations,
            processes=args.processes,
            mode=args.mode,
            sample_every=args.sample_every,
        )
        result = run_soak(config, shrink_failures=not args.no_shrink)
        case = result.case
        if case.finding is None:
            print(
                f"soak seed={config.seed}: clean"
                f" ({case.ops_executed} ops, {case.submissions} submissions,"
                f" {case.handled_errors} handled errors,"
                f" {case.events_seen} events, {case.audits_run} audits)"
            )
            continue
        if case.violation is not None:
            exit_code = EXIT_INVARIANT
            print(f"soak seed={config.seed}: INVARIANT VIOLATION")
            print(case.violation.describe())
        else:
            exit_code = exit_code or EXIT_FINDINGS
            print(f"soak seed={config.seed}: {case.finding.signature}")
            print(case.finding.message)
            print(f"repro: {result.repro}")
        if result.minimal_ops is not None:
            print(
                f"minimal reproducer ({len(result.minimal_ops)} ops,"
                f" {result.shrink_runs} shrink runs):"
            )
            print(json.dumps(list(result.minimal_ops), indent=2, sort_keys=True))
    return exit_code


if __name__ == "__main__":
    raise SystemExit(main())
