"""The Section IV suite must reproduce every paper observation."""

import pytest

from repro.experiments import reverse_engineering
from tests.experiments.result_digests import GOLDEN, result_digest, run_reduced


class TestReverseEngineering:
    @pytest.fixture(scope="class")
    def results(self):
        return run_reduced("TestReverseEngineering")

    def test_result_digest(self, results):
        assert result_digest(results) == GOLDEN["TestReverseEngineering"]

    def test_all_observations_reproduced(self, results):
        failing = [
            name for name, ok in results.observations.items() if not ok
        ]
        assert results.all_reproduced, f"not reproduced: {failing}"

    def test_report_mentions_every_experiment(self, results):
        text = reverse_engineering.report(results)
        for name in results.observations:
            assert name in text

    def test_expected_experiment_set(self, results):
        assert set(results.observations) == {
            "listing2_single_slot",
            "listing3_independent_fields",
            "listing4_no_interference",
            "huge_page_conflict",
            "cross_page_behavior",
            "batch_fetcher_bypass",
            "fig5_indexing",
            "listing5_arbiter",
            "listing6_swq_arithmetic",
        }
