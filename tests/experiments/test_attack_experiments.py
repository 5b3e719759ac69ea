"""Smoke + shape tests for the fingerprinting/keystroke/mitigation
experiments (reduced scales; the benchmarks run the fuller versions)."""

import numpy as np
import pytest

from repro.experiments import (
    fig10_wf_traces,
    fig11_wf_classification,
    fig12_keystrokes,
    fig13_llm,
    fig14_mitigation,
    table4_comparison,
)
from repro.experiments.fig13_llm import LlmSamplerSettings
from repro.experiments.wf_common import WfSamplerSettings
from repro.workloads.llm import LLM_ZOO
from tests.experiments.result_digests import GOLDEN, result_digest

FAST_WF = WfSamplerSettings(sample_period_us=100.0, samples_per_slot=40, slots=80)


class TestFig10:
    @pytest.fixture(scope="class")
    def result(self):
        return fig10_wf_traces.run(settings=FAST_WF)

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
        return fig11_wf_classification.run(
            sites=4, visits_per_site=6, settings=FAST_WF, epochs=30, hidden=10
        )

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
        return fig12_keystrokes.run(keystrokes=96, seed=5)

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
        return fig13_llm.run(
            traces_per_model=4,
            models=LLM_ZOO[:4],
            settings=LlmSamplerSettings(slots=80),
            epochs=30,
        )

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
        return fig14_mitigation.run(sizes=(256, 65536), iterations=60)

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
        return table4_comparison.run(covert_bits=96, keystrokes=48)

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
