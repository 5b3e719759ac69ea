"""Smoke + shape tests for the Fig. 4 / 6 / 9 experiments."""

import pytest

from repro.experiments import fig04_latency, fig06_queue_latency, fig09_covert
from repro.hw.noise import Environment
from tests.experiments.result_digests import GOLDEN, result_digest, run_reduced


class TestFig4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reduced("TestFig4")

    def test_result_digest(self, result):
        assert result_digest(result) == GOLDEN["TestFig4"]

    def test_threshold_band_valid_everywhere(self, result):
        for row in result.environments:
            assert row.band_threshold_works, row.environment

    def test_hit_miss_landmarks(self, result):
        local = result.for_environment(Environment.LOCAL)
        assert 400 <= local.hit_mean <= 600
        assert local.miss_mean > 1000

    def test_cloud_noise_shift_near_paper(self, result):
        assert 60 <= result.cloud_noise_shift <= 120  # paper: ~89

    def test_report_renders(self, result):
        text = fig04_latency.report(result)
        assert "Fig. 4" in text
        assert "cloud+noise" in text


class TestFig6:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reduced("TestFig6")

    def test_result_digest(self, result):
        assert result_digest(result) == GOLDEN["TestFig6"]

    def test_submission_flat(self, result):
        assert result.submission_is_flat
        for point in result.points:
            assert 600 <= point.submission_cycles <= 850  # ~700 cycles

    def test_completion_monotone_and_linear_tail(self, result):
        assert result.completion_is_monotone
        big = {p.size_bytes: p.completion_cycles for p in result.points}
        # Doubling the size roughly doubles the bandwidth-bound latency.
        ratio = big[1 << 26] / big[1 << 25]
        assert 1.7 <= ratio <= 2.3

    def test_contention_threshold_matches_paper(self, result):
        assert result.contention_threshold == 1 << 25

    def test_report_renders(self, result):
        assert "2^25" in fig06_queue_latency.report(result)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reduced("TestFig9")

    def test_result_digest(self, result):
        assert result_digest(result) == GOLDEN["TestFig9"]

    def test_devtlb_peak_in_paper_range(self, result):
        best = result.best("devtlb")
        assert best.true_bps > 12_000  # paper: 17.19 kbps

    def test_swq_peak_in_paper_range(self, result):
        best = result.best("swq")
        assert best.true_bps > 2_500  # paper: 4.02 kbps

    def test_error_grows_with_rate(self, result):
        assert result.error_grows_with_rate

    def test_report_renders(self, result):
        text = fig09_covert.report(result)
        assert "DevTLB peak" in text
        assert "SWQ peak" in text
