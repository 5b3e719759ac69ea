"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload covert --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The line
before it is the full record (host fingerprint, seed, ``sim_digest``,
every repeat's wall time, the workload's simulated results).  The exit
code is 1 when a correctness check failed, 2 when the program is
missing.  ``--workload all`` runs every workload in its own process and
prints one table.  See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEFAULT_SEED = 1


def _args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--tiny", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def _run_all(args: argparse.Namespace, names: list[str]) -> int:
    """Every workload in its own process, one table, one combined line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in names:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
        worst = max(worst, done.returncode)
        lines = done.stdout.strip().splitlines()
        if done.returncode not in (0, 1) or len(lines) < 2:
            sys.stderr.write(done.stderr)
            combined["correct"] = False
            continue
        record = json.loads(lines[-2])["record"]
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        extra = {} if args.trace else record["workload_results"]
        print(f"{name}  (seed {args.seed}, sim_digest {record['sim_digest']})")
        for metric, entry in {**result["metrics"], **extra}.items():
            combined["metrics"][f"{name}.{metric}"] = entry
            print(f"  {metric:34s} {entry['value']:>16.6g} {entry['unit']}")
    print(json.dumps(combined))
    return worst


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if not (SRC / "repro").is_dir():
        print(f"perfbench: no program at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(SRC)]
    import bench
    from workloads import WORKLOADS

    if args.workload == "all":
        return _run_all(args, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r};"
            f" choose from {', '.join(WORKLOADS)} or all",
            file=sys.stderr,
        )
        return 2
    if args.setup_probe:
        print(json.dumps(bench.setup_probe(args.workload, args.seed, args.tiny)))
        return 0
    trace = bool(args.trace)
    run = bench.measure(args.workload, args.seed, args.seconds, trace, args.tiny)
    record, result = bench.report(run, args.seconds, trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    for breach in run.breaches:
        print(f"perfbench: {breach}", file=sys.stderr)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
