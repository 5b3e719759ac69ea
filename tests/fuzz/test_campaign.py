"""Campaign-level guarantees: determinism, resume, canaries, reports.

Marked ``slow`` (excluded from tier-1); run via
``scripts/check.sh full``.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.errors import CheckpointError
from repro.experiments.runner import EXIT_CONFIG_MISMATCH, EXIT_DEADLINE
from repro.faults.canary import CANARY_DEVTLB_EVICT, CANARY_ENV, CANARY_WQ_CREDIT
from repro.fuzz.__main__ import main as fuzz_main
from repro.fuzz.campaign import EXIT_FINDINGS, FuzzConfig, run_campaign
from repro.fuzz.report import REPORT_MD, write_report

pytestmark = pytest.mark.slow

#: Trial budget for the heavier scenarios — enough for both canaries and
#: for guided coverage to pull ahead of the baseline at seed 0.
BUDGET = 60


def _run(tmp_path, name, config, **kwargs):
    result = run_campaign(config, tmp_path / name, **kwargs)
    if result.completed:
        write_report(result.run_dir)
    return result


def _campaign_bytes(run_dir: Path) -> "dict[str, bytes]":
    """Every determinism-relevant artifact, keyed by relative path.

    The manifest is excluded on purpose: it records wall-clock segments.
    """
    out = {}
    for path in sorted(run_dir.rglob("*")):
        rel = path.relative_to(run_dir).as_posix()
        if path.is_file() and rel != "manifest.json":
            out[rel] = path.read_bytes()
    return out


class TestDeterminism:
    def test_same_seed_same_bytes(self, tmp_path):
        config = FuzzConfig(seed=5, trials=30)
        a = _run(tmp_path, "a", config)
        b = _run(tmp_path, "b", config)
        assert a.clean and b.clean
        assert _campaign_bytes(a.run_dir) == _campaign_bytes(b.run_dir)

    def test_kill_and_resume_equals_uninterrupted(self, tmp_path):
        config = FuzzConfig(seed=5, trials=30)
        full = _run(tmp_path, "full", config)
        part = _run(tmp_path, "part", config, stop_after=11)
        assert not part.completed
        resumed = _run(tmp_path, "part", config, resume=True)
        assert resumed.completed
        assert _campaign_bytes(full.run_dir) == _campaign_bytes(
            resumed.run_dir
        )

    def test_resume_with_different_config_refused(self, tmp_path):
        _run(tmp_path, "c", FuzzConfig(seed=5, trials=10), stop_after=4)
        with pytest.raises(CheckpointError):
            run_campaign(
                FuzzConfig(seed=6, trials=10), tmp_path / "c", resume=True
            )


class TestCoverageGolden:
    """A reduced seed-0 campaign's ``state.json``, byte for byte.

    The state holds the guided and baseline feature sets and the corpus
    bookkeeping, so any change to what the model reports to the coverage
    map, or to how the map buckets it, moves this digest.
    """

    @pytest.mark.parametrize(
        ("fault_rate", "digest"),
        [
            (
                0.0,
                "cbbd06729d7bc8e51bedbcf782f1e58035712d023064efc5de53ea4c08cad9fa",
            ),
            (
                0.05,
                "7d4d8427b08d346e9d41e994c629fe2f5da9a685d109f99e404ba9bf48c57b49",
            ),
        ],
    )
    def test_state_digest(self, tmp_path, fault_rate, digest):
        config = FuzzConfig(seed=0, trials=BUDGET, fault_rate=fault_rate)
        result = run_campaign(config, tmp_path / "golden")
        state = (result.run_dir / "state.json").read_bytes()
        assert hashlib.sha256(state).hexdigest() == digest


class TestCleanCampaign:
    def test_unmodified_model_yields_zero_findings(self, tmp_path):
        result = _run(tmp_path, "clean", FuzzConfig(seed=0, trials=BUDGET))
        assert result.clean
        assert not result.findings

    def test_guided_beats_baseline_coverage(self, tmp_path):
        result = _run(
            tmp_path, "cov", FuzzConfig(seed=0, trials=2 * BUDGET)
        )
        assert result.guided_features > result.baseline_features


class TestCanaries:
    @pytest.mark.parametrize(
        ("canary", "detail"),
        [
            (CANARY_WQ_CREDIT, "wq-credits"),
            (CANARY_DEVTLB_EVICT, "devtlb"),
        ],
    )
    def test_canary_found_and_shrunk(self, tmp_path, monkeypatch, canary, detail):
        monkeypatch.setenv(CANARY_ENV, canary)
        config = FuzzConfig(seed=0, trials=BUDGET, baseline=False)
        result = _run(tmp_path, canary, config)
        assert [f["detail"] for f in result.findings] == [detail]
        finding = result.findings[0]
        assert finding["kind"] == "invariant"
        assert finding["ops"] <= 5, "shrunk reproducer must be minimal"
        record = json.loads(
            (result.run_dir / finding["file"]).read_text()
        )
        assert record["canaries"] == canary
        assert len(record["ops"]) == finding["ops"]

    def test_replay_reproduces_with_clean_env(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv(CANARY_ENV, CANARY_DEVTLB_EVICT)
        config = FuzzConfig(seed=0, trials=BUDGET, baseline=False)
        result = _run(tmp_path, "replay", config)
        assert result.findings
        finding_path = result.run_dir / result.findings[0]["file"]
        # The canary is recorded in the finding, not taken from the env.
        monkeypatch.delenv(CANARY_ENV)
        assert fuzz_main(["--replay", str(finding_path)]) == EXIT_FINDINGS
        assert "reproduced" in capsys.readouterr().out


class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        run_dir = str(tmp_path / "cli")
        argv = ["--seed", "5", "--trials", "12", "--dir", run_dir]
        assert fuzz_main(argv + ["--stop-after", "5"]) == EXIT_DEADLINE
        assert fuzz_main(argv + ["--resume"]) == 0
        assert (tmp_path / "cli" / REPORT_MD).exists()
        assert (
            fuzz_main(["--seed", "6", "--trials", "4", "--dir", run_dir, "--resume"])
            == EXIT_CONFIG_MISMATCH
        )
        capsys.readouterr()


class TestReport:
    def test_report_contents(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CANARY_ENV, CANARY_DEVTLB_EVICT)
        result = _run(
            tmp_path, "rep", FuzzConfig(seed=0, trials=BUDGET, baseline=False)
        )
        md = (result.run_dir / REPORT_MD).read_text()
        assert "## Coverage growth" in md
        assert "--replay findings/0000.json" in md
        assert f"findings: **{len(result.findings)}**" in md
