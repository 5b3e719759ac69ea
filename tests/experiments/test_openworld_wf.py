"""Smoke test for the open-world fingerprinting experiment."""

import pytest

from repro.experiments import openworld_wf
from tests.experiments.result_digests import GOLDEN, result_digest, run_reduced


class TestOpenWorldWf:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reduced("TestOpenWorldWf")

    def test_result_digest(self, result):
        assert result_digest(result) == GOLDEN["TestOpenWorldWf"]

    def test_tiny_run_produces_sane_scores(self, result):
        assert 0.0 < result.threshold < 1.0
        assert 0.0 <= result.scores.known_accuracy <= 1.0
        assert 0.0 <= result.scores.unknown_rejection_rate <= 1.0
        assert len(result.monitored_sites) == 3
        assert len(result.unmonitored_sites) == 2
        text = openworld_wf.report(result)
        assert "balanced" in text
