"""Command-line entry point: ``python -m repro.lint``.

Usage::

    python -m repro.lint                     # lint src/
    python -m repro.lint src tests/foo.py    # explicit targets
    python -m repro.lint --scope all         # src + tests + benchmarks + scripts
    python -m repro.lint --format json       # machine-readable output
    python -m repro.lint --select DET001,DET101
    python -m repro.lint --ignore EXC001
    python -m repro.lint --no-cache          # force a cold whole-repo analysis
    python -m repro.lint --list-rules

Exit codes: ``0`` no findings, ``1`` findings reported, ``2`` usage
error.  Only an inline ``# repro-lint: ignore[...]`` lets a finding
through (docs/static-analysis.md).

Phase-1 module summaries are cached in ``.repro-lint-cache.json``
(git-ignored) keyed by file SHA-256, so warm re-lints only re-analyze
edited files while the interprocedural phase still sees the whole
program.  ``--no-cache`` disables both reading and writing it.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Sequence

from repro.lint.cache import DEFAULT_CACHE
from repro.lint.engine import LintEngine, LintReport
from repro.lint.rules import PROJECT_RULES, RULES

#: ``--scope`` presets: named sets of lint targets relative to --root.
SCOPES: dict[str, tuple[str, ...]] = {
    "src": ("src",),
    "tests": ("src", "tests"),
    "benchmarks": ("src", "benchmarks"),
    "scripts": ("src", "scripts"),
    "all": ("src", "tests", "benchmarks", "scripts"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description=(
            "Whole-program determinism and simulation-invariant checker"
            " for the DSAssassin reproduction (see"
            " docs/static-analysis.md)."
        ),
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: the --scope preset)",
    )
    parser.add_argument(
        "--scope",
        choices=sorted(SCOPES),
        default="src",
        help=(
            "named target preset used when no explicit paths are given;"
            " non-src scopes always include src so interprocedural rules"
            " see the whole program (default: src)"
        ),
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default: text)",
    )
    parser.add_argument(
        "--select",
        metavar="RULES",
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        metavar="RULES",
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--root",
        default=".",
        help="directory paths are resolved against (default: cwd)",
    )
    parser.add_argument(
        "--cache",
        metavar="FILE",
        default=DEFAULT_CACHE,
        help=f"module-summary cache file (default: {DEFAULT_CACHE})",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="neither read nor write the summary cache (cold analysis)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalog and exit",
    )
    return parser


def _split(raw: str | None) -> list[str] | None:
    return [part for part in raw.split(",")] if raw else None


def _print_text(report: LintReport) -> None:
    for finding in report.all_findings:
        print(finding.format_text())
    counts = report.counts_by_rule()
    total = sum(counts.values())
    tail = (
        ", ".join(f"{rule}: {count}" for rule, count in counts.items())
        if counts
        else "clean"
    )
    print(
        f"repro.lint: {report.files_checked} files"
        f" ({report.cache_hits} cached, {report.parsed} parsed),"
        f" {total} finding(s) ({tail}); {report.suppressed} suppressed"
    )


def main(argv: Sequence[str] | None = None) -> int:
    """Entry point (returns the process exit code)."""
    parser = _build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule_id, checker in sorted(RULES.items()):
            family = "project" if rule_id in PROJECT_RULES else "file"
            print(f"{rule_id}  [{family:>7}]  {checker.title}")
        return 0

    cache_path = None
    if not args.no_cache:
        cache_path = Path(args.root) / args.cache

    try:
        engine = LintEngine(
            root=args.root,
            select=_split(args.select),
            ignore=_split(args.ignore),
            cache_path=cache_path,
        )
    except ValueError as exc:
        parser.error(str(exc))

    paths = args.paths or list(SCOPES[args.scope])
    try:
        report = engine.run(paths)
    except FileNotFoundError as exc:
        parser.error(str(exc))

    if args.format == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        _print_text(report)
    return 1 if report.all_findings else 0


if __name__ == "__main__":
    sys.exit(main())
