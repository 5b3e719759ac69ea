"""The deterministic campaign report (Markdown).

The renderer is a pure function of ``state.json`` — no timestamps,
hostnames, or absolute paths — so two campaigns with the same seed and
configuration write byte-identical reports, and the determinism tests
can diff them directly.  Finding repro commands use run-dir-relative
paths (``--replay findings/0000.json``, run from inside the campaign
directory).
"""

from __future__ import annotations

from pathlib import Path
from typing import Any

from repro.experiments.checkpoint import atomic_write_text
from repro.fuzz.campaign import load_state
from repro.fuzz.coverage import CoverageMap

REPORT_MD = "report.md"

#: Coverage-history rows sampled into the growth table.
CURVE_POINTS = 20


def _curve_rows(
    guided: "list[int]", baseline: "list[int]"
) -> "list[tuple[int, int, str]]":
    """(iteration, guided, baseline-or-dash) rows, ~CURVE_POINTS of them."""
    total = max(len(guided), len(baseline), 1)
    step = max(1, total // CURVE_POINTS)
    rows = []
    for index in range(step - 1, total, step):
        g = guided[min(index, len(guided) - 1)] if guided else 0
        b = str(baseline[min(index, len(baseline) - 1)]) if baseline else "-"
        rows.append((index + 1, g, b))
    if rows and rows[-1][0] != total:
        g = guided[-1] if guided else 0
        b = str(baseline[-1]) if baseline else "-"
        rows.append((total, g, b))
    return rows


def _replay_command(finding: "dict[str, Any]") -> str:
    return f"PYTHONPATH=src python -m repro.fuzz --replay {finding['file']}"


def render_markdown(state: "dict[str, Any]") -> str:
    """The Markdown report for a campaign *state*."""
    config = state["config"]
    guided = CoverageMap.from_json(state["coverage"])
    baseline = CoverageMap.from_json(state["baseline_coverage"])
    corpus = state["corpus"]
    findings = state["findings"]

    lines = [
        "# Fuzz campaign report",
        "",
        f"- seed: `{config['seed']}`",
        f"- trials: {config['trials']} guided"
        + (f" + {state['baseline_iter']} baseline" if config["baseline"] else ""),
        f"- processes: {config['processes']}, monitor mode: "
        f"`{config['mode']}`, fault rate: {config['fault_rate']}",
        f"- guided coverage: **{guided.features} features** "
        f"({guided.cases} cases, corpus {len(corpus)} entries)",
    ]
    if config["baseline"]:
        delta = guided.features - baseline.features
        lines.append(
            f"- baseline coverage: {baseline.features} features "
            f"(guided {'+' if delta >= 0 else ''}{delta})"
        )
    lines += [f"- findings: **{len(findings)}**", ""]

    lines += ["## Coverage growth", ""]
    rows = _curve_rows(state["coverage_history"], state["baseline_history"])
    lines += ["| iteration | guided features | baseline features |",
              "|---:|---:|---:|"]
    for iteration, g, b in rows:
        lines.append(f"| {iteration} | {g} | {b} |")
    lines.append("")

    lines += ["## Findings", ""]
    if findings:
        lines += [
            "| id | kind | detail | ops | shrink runs | repro (from the campaign directory) |",
            "|---:|---|---|---:|---:|---|",
        ]
        for finding in findings:
            lines.append(
                f"| {finding['file'].split('/')[-1].split('.')[0]} "
                f"| {finding['kind']} | `{finding['detail']}` "
                f"| {finding['ops']} | {finding['shrink_runs']} "
                f"| `{_replay_command(finding)}` |"
            )
    else:
        lines.append("No findings — every case was handled or detected cleanly.")
    lines.append("")

    lines += ["## Corpus", ""]
    if corpus:
        total_picks = sum(entry["picks"] for entry in corpus)
        mean_ops = sum(entry["ops"] for entry in corpus) / len(corpus)
        lines += [
            f"- entries: {len(corpus)}",
            f"- mean ops per entry: {mean_ops:.1f}",
            f"- total parent picks: {total_picks}",
        ]
    else:
        lines.append("- empty (no case discovered new coverage)")
    lines += ["", "## Coverage by site", ""]
    lines += ["| site | features |", "|---|---:|"]
    for site, count in guided.sites().items():
        lines.append(f"| `{site}` | {count} |")
    lines.append("")
    return "\n".join(lines)


def write_report(run_dir: "str | Path") -> Path:
    """Render the report from ``state.json`` into *run_dir*; returns its
    path."""
    run_dir = Path(run_dir)
    return atomic_write_text(
        run_dir / REPORT_MD, render_markdown(load_state(run_dir))
    )
