#!/usr/bin/env python3
"""Run an experiment at (or toward) the paper's full scale.

The benchmarks default to reduced dataset sizes so the suite finishes in
minutes; this script exposes the scale knobs for long runs::

    # the paper's 15-site subset of Fig. 11 at full trace geometry
    python scripts/paper_scale.py fig11 --sites 15 --visits 50 --paper-sampling

    # the full 100 x 200 configuration (expect many hours, like the
    # paper's own "approximately a day to collect")
    python scripts/paper_scale.py fig11 --sites 100 --visits 200 --paper-sampling

    # Fig. 13 at 50 traces per model, Fig. 12 at the paper's 512 keystrokes
    python scripts/paper_scale.py fig13 --traces 50
    python scripts/paper_scale.py fig12 --keystrokes 512

Collection cost grows linearly in traces and in samples per trace.
"""

from __future__ import annotations

import argparse
import sys

from repro.experiments import fig11_wf_classification, fig12_keystrokes, fig13_llm
from repro.experiments.runner import execute_plan, monotonic_clock
from repro.experiments.wf_common import PAPER_SCALE


def run_fig11(args: argparse.Namespace) -> None:
    settings = PAPER_SCALE if args.paper_sampling else None
    result = execute_plan(
        fig11_wf_classification.trial_plan(
            sites=args.sites,
            visits_per_site=args.visits,
            settings=settings,
            epochs=args.epochs,
            hidden=args.hidden,
            seed=args.seed,
        )
    )
    print(fig11_wf_classification.report(result))


def run_fig12(args: argparse.Namespace) -> None:
    result = execute_plan(
        fig12_keystrokes.trial_plan(keystrokes=args.keystrokes, seed=args.seed)
    )
    print(fig12_keystrokes.report(result))


def run_fig13(args: argparse.Namespace) -> None:
    result = execute_plan(
        fig13_llm.trial_plan(
            traces_per_model=args.traces, epochs=args.epochs, seed=args.seed
        )
    )
    print(fig13_llm.report(result))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="experiment", required=True)

    fig11 = sub.add_parser("fig11", help="website fingerprinting")
    fig11.add_argument("--sites", type=int, default=15)
    fig11.add_argument("--visits", type=int, default=50)
    fig11.add_argument("--epochs", type=int, default=80)
    fig11.add_argument("--hidden", type=int, default=16)
    fig11.add_argument("--paper-sampling", action="store_true",
                       help="10 us sampling, 400 samples/slot, 250 slots")
    fig11.set_defaults(runner=run_fig11)

    fig12 = sub.add_parser("fig12", help="SSH keystrokes")
    fig12.add_argument("--keystrokes", type=int, default=512)
    fig12.set_defaults(runner=run_fig12)

    fig13 = sub.add_parser("fig13", help="LLM fingerprinting")
    fig13.add_argument("--traces", type=int, default=50)
    fig13.add_argument("--epochs", type=int, default=80)
    fig13.set_defaults(runner=run_fig13)

    for subparser in (fig11, fig12, fig13):
        subparser.add_argument("--seed", type=int, default=2026)

    args = parser.parse_args(argv)
    started = monotonic_clock()
    args.runner(args)
    print(f"({monotonic_clock() - started:.0f}s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
