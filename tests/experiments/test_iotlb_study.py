"""Tests for the IOTLB capacity extension study."""

import pytest

from repro.experiments import iotlb_study
from repro.experiments.runner import execute_plan
from tests.experiments.result_digests import GOLDEN, result_digest, run_reduced


class TestIotlbStudy:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reduced("TestIotlbStudy")

    def test_result_digest(self, result):
        assert result_digest(result) == GOLDEN["TestIotlbStudy"]

    def test_inferred_capacity_matches_configuration(self, result):
        assert result.inferred_capacity == 512
        assert result.knee_matches_configuration

    def test_latency_knee_is_walk_sized(self):
        """The step at the knee is a page walk, not noise."""
        result = execute_plan(
            iotlb_study.trial_plan(working_sets=(256, 1024), passes=2)
        )
        low, high = result.points
        assert high.mean_latency_cycles - low.mean_latency_cycles > 300

    def test_report_renders(self):
        result = execute_plan(
            iotlb_study.trial_plan(working_sets=(128, 768), passes=2)
        )
        text = iotlb_study.report(result)
        assert "IOTLB" in text
        assert "configured: 512" in text

    def test_no_knee_when_sweep_below_capacity(self):
        result = execute_plan(
            iotlb_study.trial_plan(working_sets=(32, 64, 128), passes=2)
        )
        assert result.inferred_capacity is None
        assert not result.knee_matches_configuration
