"""Smoke + shape tests for the fingerprinting/keystroke/mitigation
experiments (reduced scales; the benchmarks run the fuller versions)."""

import pytest

from repro.experiments import (
    fig10_wf_traces,
    fig11_wf_classification,
    fig12_keystrokes,
    fig13_llm,
    fig14_mitigation,
    table4_comparison,
)
from tests.experiments.result_digests import GOLDEN, result_digest, run_reduced


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reduced("TestFig10")

    def test_result_digest(self, result):
        assert result_digest(result) == GOLDEN["TestFig10"]

    def test_all_traces_active(self, result):
        assert result.traces_have_activity

    def test_signatures_differ(self, result):
        assert result.signatures_differ

    def test_report_renders(self, result):
        text = fig10_wf_traces.report(result)
        assert "google.com" in text


class TestFig11:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reduced("TestFig11")

    def test_result_digest(self, result):
        assert result_digest(result) == GOLDEN["TestFig11"]

    def test_classifier_beats_chance(self, result):
        assert result.bilstm_accuracy > 0.5  # chance = 0.25

    def test_matrix_shape(self, result):
        assert result.matrix.shape == (4, 4)
        assert result.matrix.sum() == result.test_samples

    def test_report_renders(self, result):
        assert "Attention-BiLSTM" in fig11_wf_classification.report(result)


class TestFig12:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reduced("TestFig12")

    def test_result_digest(self, result):
        assert result_digest(result) == GOLDEN["TestFig12"]

    def test_both_variants_detect_well(self, result):
        assert result.devtlb.evaluation.f1 > 0.80
        assert result.swq.evaluation.f1 > 0.90

    def test_swq_timing_is_tighter(self, result):
        """The paper's key contrast: SWQ std 1.21 ms vs DevTLB 5.29 ms."""
        assert (
            result.swq.evaluation.timestamp_std_ms
            < result.devtlb.evaluation.timestamp_std_ms
        )

    def test_timing_deviations_in_paper_range(self, result):
        assert 3.0 <= result.devtlb.evaluation.timestamp_std_ms <= 8.0
        assert 0.5 <= result.swq.evaluation.timestamp_std_ms <= 2.0

    def test_report_renders(self, result):
        assert "keystroke" in fig12_keystrokes.report(result)


class TestFig13:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reduced("TestFig13")

    def test_result_digest(self, result):
        assert result_digest(result) == GOLDEN["TestFig13"]

    def test_classifier_beats_chance(self, result):
        assert result.bilstm_accuracy > 0.5  # chance = 0.25

    def test_example_traces_collected(self, result):
        assert len(result.example_traces) == 4
        assert all(t.sum() > 0 for t in result.example_traces.values())

    def test_report_renders(self, result):
        assert "LLM" in fig13_llm.report(result)


class TestFig14:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reduced("TestFig14")

    def test_result_digest(self, result):
        assert result_digest(result) == GOLDEN["TestFig14"]

    def test_overhead_positive_and_bounded(self, result):
        for row in result.rows:
            assert 0 < row.overhead_percent < 40

    def test_overhead_shrinks_with_size(self, result):
        assert result.overhead_shrinks_with_size

    def test_report_renders(self, result):
        assert "mitigation" in fig14_mitigation.report(result)


class TestTable4:
    @pytest.fixture(scope="class")
    def result(self):
        return run_reduced("TestTable4")

    def test_result_digest(self, result):
        assert result_digest(result) == GOLDEN["TestTable4"]

    def test_has_prior_and_our_rows(self, result):
        assert len(result.rows) == 5
        assert len(result.ours) == 2

    def test_devtlb_covert_fastest(self, result):
        assert result.devtlb_fastest_covert

    def test_report_renders(self, result):
        text = table4_comparison.report(result)
        assert "DEVIOUS" in text
        assert "This work (SWQ)" in text
