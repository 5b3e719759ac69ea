"""The linter's own test suite: golden fixtures, suppressions, rule
selection, the CLI, and the self-scan of ``src/``.

Each rule has a positive fixture (every construct it must flag) and a
negative fixture (the sanctioned alternatives) under ``lint_fixtures/``;
``expected.json`` is the golden ``{filename: [[rule, line], ...]}`` map.
Fixtures claim their pretend module scope with a
``# repro-lint-fixture-module:`` directive, since scoped rules key off
the dotted module name.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import PROJECT_RULES, LintEngine, RULES
from repro.lint.__main__ import main as lint_main
from repro.lint.engine import suppressed_rules

REPO_ROOT = Path(__file__).resolve().parents[2]
FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"
EXPECTED = json.loads((FIXTURES / "expected.json").read_text())


def _findings(engine: LintEngine, *paths):
    return engine.run([str(p) for p in paths])


# ----------------------------------------------------------------------
# Golden fixtures: every rule fires where expected — and nowhere else.
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(EXPECTED), ids=lambda n: n)
def test_fixture_matches_golden(name):
    engine = LintEngine(root=FIXTURES)
    report = _findings(engine, FIXTURES / name)
    got = [[f.rule, f.line] for f in report.all_findings]
    assert got == EXPECTED[name], (
        f"{name}: expected {EXPECTED[name]}, got {got}"
    )


def test_every_file_rule_has_a_firing_fixture():
    # Project rules (DET101/…) have their own multi-file fixtures under
    # proj_*/, asserted in test_lint_project.py; the par002_* fixtures
    # pin EXC101 on a single file, so project rules are set aside here.
    covered = {rule for findings in EXPECTED.values() for rule, _ in findings}
    per_file = set(RULES) - PROJECT_RULES
    assert covered - PROJECT_RULES == per_file, (
        "each per-file rule needs a positive fixture; missing:"
        f" {per_file - covered}"
    )


def test_every_file_rule_has_a_negative_fixture():
    prefixes = {rule.lower() for rule in RULES} - {
        rule.lower() for rule in PROJECT_RULES
    }
    negatives = {
        p.name.split("_negative")[0]
        for p in FIXTURES.glob("*_negative.py")
    }
    assert prefixes <= negatives


# ----------------------------------------------------------------------
# Suppressions
# ----------------------------------------------------------------------
def test_inline_suppressions_scoped_and_blanket():
    engine = LintEngine(root=FIXTURES)
    report = _findings(engine, FIXTURES / "suppressions.py")
    # Two suppressed (ignore[DET001] + blanket ignore); the mis-scoped
    # ignore[DET002] does not silence a DET001 finding.
    assert report.suppressed == 2
    assert [[f.rule, f.line] for f in report.all_findings] == [["DET001", 16]]


def test_suppressed_rules_parser():
    assert suppressed_rules("x = 1") is None
    assert suppressed_rules("x = 1  # repro-lint: ignore") == frozenset()
    assert suppressed_rules(
        "x = 1  # repro-lint: ignore[DET001, EXC001]"
    ) == {"DET001", "EXC001"}
    assert suppressed_rules("x = 1  # repro-lint:ignore[det001]") == {"DET001"}


# ----------------------------------------------------------------------
# Rule selection
# ----------------------------------------------------------------------
def test_select_runs_only_chosen_rules():
    engine = LintEngine(root=FIXTURES, select=["DET001"])
    report = _findings(engine, FIXTURES / "det002_positive.py")
    assert report.all_findings == []


def test_ignore_skips_rules():
    engine = LintEngine(root=FIXTURES, ignore=["DET002"])
    report = _findings(engine, FIXTURES / "det002_positive.py")
    assert report.all_findings == []


def test_unknown_rule_id_rejected():
    with pytest.raises(ValueError, match="unknown rule id"):
        LintEngine(select=["DET999"])


def test_syntax_error_becomes_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def broken(:\n")
    engine = LintEngine(root=tmp_path)
    report = _findings(engine, bad)
    assert [f.rule for f in report.all_findings] == ["SYN000"]


# ----------------------------------------------------------------------
# CLI (in-process via main(argv))
# ----------------------------------------------------------------------
def test_cli_reports_findings_and_exit_code(capsys):
    code = lint_main(
        ["det001_positive.py", "--root", str(FIXTURES), "--no-cache"]
    )
    out = capsys.readouterr().out
    assert code == 1
    assert "DET001" in out
    assert "det001_positive.py:10:" in out


def test_cli_clean_file_exits_zero(capsys):
    code = lint_main(
        ["det001_negative.py", "--root", str(FIXTURES), "--no-cache"]
    )
    assert code == 0
    assert "clean" in capsys.readouterr().out


def test_cli_json_format(capsys):
    code = lint_main(
        [
            "det002_positive.py",
            "--root",
            str(FIXTURES),
            "--no-cache",
            "--format",
            "json",
        ]
    )
    assert code == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["counts"] == {"DET002": 6}
    assert all(f["rule"] == "DET002" for f in doc["findings"])


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in RULES:
        assert rule in out


def test_cli_unknown_rule_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        lint_main(["--select", "NOPE", "src"])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# Self-scan: the tree this linter ships in must itself be clean.
# ----------------------------------------------------------------------
def test_src_tree_is_clean_in_process():
    # Every real finding is fixed at the source: only an inline
    # suppression lets one through.
    report = LintEngine(root=REPO_ROOT).run(["src"])
    assert report.all_findings == [], [
        f.format_text() for f in report.all_findings
    ]


@pytest.mark.slow
def test_src_tree_is_clean_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.lint", "src"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
