"""Command-line experiment runner.

Regenerate any paper artifact from a shell::

    python -m repro.experiments list
    python -m repro.experiments fig04
    python -m repro.experiments all

Long sweeps should run checkpointed so a crash, an interrupt, or a
scheduler deadline costs at most one trial::

    python -m repro.experiments table3 --run-dir runs/table3
    # ... SIGTERM / ctrl-C / soft deadline ...
    python -m repro.experiments table3 --resume runs/table3

Supervision flags (single experiment only): ``--run-dir DIR`` journals
every trial into DIR; ``--resume DIR`` continues a previous run after
validating its config hash; ``--deadline S`` stops cleanly before a
wall-clock budget expires; ``--breaker-threshold N`` opens the failure
circuit breaker after N consecutive contained failures; ``--set k=v``
overrides a ``trial_plan`` keyword (values parsed as Python literals);
``--workers N`` (also for ``all``: one warm pool) runs the trials on N
worker processes on any host (a run with fewer than two trials left runs
inline), with output observation-equivalent to a serial run — a
checkpointed run may even switch worker counts between ``--run-dir``
and ``--resume`` (see docs/parallel.md).

Exit codes (see :mod:`repro.experiments.runner` and docs/robustness.md):

=====  ================================================================
0      artifact produced
1      unexpected error (programming bug — full traceback)
2      command-line usage error
3      fewer successful trials than the plan's floor
4      contained reproduction error outside trial containment
5      checkpoint/resume mismatch (config hash, wrong experiment, ...)
6      a runtime invariant tripped (model or pool state untrusted)
8      the worker pool quarantined poisoned trials (they repeatedly
       killed their workers); everything else is journaled
75     soft deadline hit; run checkpointed — re-run with ``--resume``
130    interrupted (SIGINT/SIGTERM); checkpointed — ``--resume``
=====  ================================================================
"""

from __future__ import annotations

import argparse
import ast
import functools
import importlib
import sys

from repro.errors import CheckpointError, ReproError, ResumeMismatchError
from repro.experiments.checkpoint import (
    STATUS_COMPLETED,
    atomic_write_bytes,
    atomic_write_text,
    dumps_payload,
)
from repro.experiments.runner import (
    EXIT_CONFIG_MISMATCH,
    EXIT_INTERRUPTED,
    EXIT_OK,
    EXIT_REPRO,
    BreakerConfig,
    monotonic_clock,
    run_experiment,
)
from repro.experiments.supervisor import sigterm_as_interrupt

#: name -> (module path, human description).  Modules are imported only
#: when their experiment runs, so ``list`` and a single experiment pay for
#: no other experiment's imports.
EXPERIMENTS = {
    "re": ("repro.experiments.reverse_engineering", "Section IV reverse-engineering suite"),
    "fig04": ("repro.experiments.fig04_latency", "Fig. 4 hit/miss latency distributions"),
    "fig06": ("repro.experiments.fig06_queue_latency", "Fig. 6 submission/completion latency"),
    "fig09": ("repro.experiments.fig09_covert", "Fig. 9 covert-channel capacity sweep"),
    "fig10": ("repro.experiments.fig10_wf_traces", "Fig. 10 website miss traces"),
    "fig11": ("repro.experiments.fig11_wf_classification", "Fig. 11 website classification"),
    "fig12": ("repro.experiments.fig12_keystrokes", "Fig. 12 SSH keystroke detection"),
    "fig13": ("repro.experiments.fig13_llm", "Fig. 13 LLM fingerprinting"),
    "fig14": ("repro.experiments.fig14_mitigation", "Fig. 14 mitigation overhead"),
    "table3": ("repro.experiments.table3_noise", "Table III noise impact"),
    "table4": ("repro.experiments.table4_comparison", "Table IV prior-work comparison"),
    "iotlb": ("repro.experiments.iotlb_study", "IOTLB capacity study (extension)"),
    "openworld": ("repro.experiments.openworld_wf", "open-world website fingerprinting (extension)"),
}


def _parse_overrides(pairs: list[str]) -> dict:
    """``--set key=value`` pairs into ``trial_plan`` keyword arguments.

    Values are parsed as Python literals (``--set seed=7``,
    ``--set sizes=(256,1024)``); anything that is not a literal stays a
    string.
    """
    overrides = {}
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep or not key:
            raise ValueError(f"--set expects key=value, got {pair!r}")
        try:
            overrides[key] = ast.literal_eval(raw)
        except (ValueError, SyntaxError):
            overrides[key] = raw
    return overrides


def run_one(
    name: str,
    overrides: dict | None = None,
    run_dir: str | None = None,
    resume: bool = False,
    deadline: float | None = None,
    breaker_threshold: int | None = None,
    workers: int = 1,
) -> int:
    """Run one experiment under supervision; returns its exit code.

    Contained failure modes print a one-line summary instead of a
    traceback — the traceback of every failed *trial* is already in the
    journal (checkpointed runs) or irrelevant to the operator (the
    documented exit code says what to do next).
    """
    module_path, description = EXPERIMENTS[name]
    print(f"=== {name}: {description} ===")
    module = importlib.import_module(module_path)
    started = monotonic_clock()
    breaker = (
        BreakerConfig(failure_threshold=breaker_threshold)
        if breaker_threshold is not None
        else None
    )
    # Trial closures do not pickle; pool workers rebuild the plan from
    # this recipe instead.
    plan_source = functools.partial(module.trial_plan, **(overrides or {}))
    try:
        try:
            plan = plan_source()
        except TypeError as exc:
            # Almost always a bad --set key; argparse conventions say 2.
            # Only the plan build is covered: a TypeError from a trial
            # or finalize is a bug (exit 1, traceback).
            print(f"{name}: bad trial_plan arguments: {exc}", file=sys.stderr)
            return 2
        outcome = run_experiment(
            plan,
            run_dir=run_dir,
            resume=resume,
            deadline_s=deadline,
            breaker=breaker,
            workers=workers,
            plan_source=plan_source,
        )
    except (ResumeMismatchError, CheckpointError) as exc:
        print(f"{name}: checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_MISMATCH
    except ReproError as exc:
        print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_REPRO

    if outcome.status == STATUS_COMPLETED:
        text = module.report(outcome.result)
        print(text)
        print(f"({monotonic_clock() - started:.1f}s)\n")
        if outcome.run_dir is not None:
            atomic_write_text(outcome.run_dir / "report.txt", text + "\n")
            atomic_write_bytes(
                outcome.run_dir / "result.pkl", dumps_payload(outcome.result)
            )
        return EXIT_OK

    summary = (
        f"{type(outcome.error).__name__}: {outcome.error}"
        if outcome.error is not None
        else f"status {outcome.status}"
    )
    print(
        f"{name}: {outcome.status} after {outcome.completed} completed / "
        f"{outcome.failed} failed / {outcome.skipped} skipped trials — "
        f"{summary}",
        file=sys.stderr,
    )
    if outcome.resumable:
        print(
            f"{name}: progress checkpointed; continue with "
            f"--resume {outcome.run_dir}",
            file=sys.stderr,
        )
    return outcome.exit_code


def main(argv: list[str] | None = None) -> int:
    """Entry point."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "experiment",
        choices=[*EXPERIMENTS, "list", "all"],
        help="which artifact to regenerate",
    )
    parser.add_argument(
        "--run-dir",
        help="checkpoint every trial into this directory (fresh run)",
    )
    parser.add_argument(
        "--resume",
        metavar="RUN_DIR",
        help="continue a checkpointed run from its directory",
    )
    parser.add_argument(
        "--deadline",
        type=float,
        metavar="SECONDS",
        help="soft wall-clock budget: checkpoint and exit 75 before it expires",
    )
    parser.add_argument(
        "--breaker-threshold",
        type=int,
        metavar="N",
        help="open the circuit breaker after N consecutive trial failures",
    )
    parser.add_argument(
        "--set",
        dest="overrides",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a trial_plan keyword (literal-parsed; repeatable)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="run trials on a pool of N worker processes on any host; "
        "'all' runs every experiment on the same pool "
        "(1 = serial; results are identical either way)",
    )
    args = parser.parse_args(argv)

    if args.experiment == "list":
        for name, (_, description) in EXPERIMENTS.items():
            print(f"{name:8s} {description}")
        return 0
    if args.run_dir and args.resume:
        parser.error("--run-dir starts a fresh run; --resume continues one")
    if args.workers < 1:
        parser.error(f"--workers must be >= 1, got {args.workers}")
    supervised = bool(
        args.run_dir or args.resume or args.deadline or args.overrides
        or args.breaker_threshold is not None
    )
    if args.experiment == "all" and supervised:
        parser.error("supervision flags apply to a single experiment, not 'all'")

    try:
        overrides = _parse_overrides(args.overrides)
    except ValueError as exc:
        parser.error(str(exc))

    names = list(EXPERIMENTS) if args.experiment == "all" else [args.experiment]
    worst = EXIT_OK
    # SIGTERM checkpoints exactly like ctrl-C (exit 130, resumable).
    with sigterm_as_interrupt():
        for name in names:
            try:
                code = run_one(
                    name,
                    overrides=overrides,
                    run_dir=args.resume or args.run_dir,
                    resume=bool(args.resume),
                    deadline=args.deadline,
                    breaker_threshold=args.breaker_threshold,
                    workers=args.workers,
                )
            except KeyboardInterrupt:
                # In-memory runs re-raise from require_result-free paths too.
                print(f"{name}: interrupted", file=sys.stderr)
                return EXIT_INTERRUPTED
            worst = max(worst, code)
    return worst


if __name__ == "__main__":
    sys.exit(main())
