"""Tests for statistics, keystroke evaluation, and reporting."""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.keystroke_eval import evaluate_keystrokes
from repro.analysis.reporting import format_histogram, format_series, format_table
from repro.analysis.stats import confidence_interval_95, geometric_mean, summarize
from repro.hw.units import DEFAULT_TSC_HZ


class TestStats:
    def test_geometric_mean_basic(self):
        assert geometric_mean(np.array([1.0, 4.0])) == pytest.approx(2.0)

    def test_geometric_mean_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            geometric_mean(np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            geometric_mean(np.array([]))

    def test_confidence_interval_contains_mean(self):
        rng = np.random.default_rng(0)
        samples = rng.normal(10.0, 2.0, size=50)
        mean, h = confidence_interval_95(samples)
        assert mean == pytest.approx(samples.mean())
        assert 0 < h < 2.0

    def test_confidence_interval_needs_samples(self):
        with pytest.raises(ValueError):
            confidence_interval_95(np.array([1.0]))

    def test_ci_covers_population_mean_usually(self):
        rng = np.random.default_rng(1)
        covered = 0
        for _ in range(100):
            samples = rng.normal(5.0, 1.0, size=30)
            mean, h = confidence_interval_95(samples)
            covered += (mean - h) <= 5.0 <= (mean + h)
        assert covered >= 85

    def test_summarize(self):
        s = summarize(np.array([1.0, 2.0, 3.0]))
        assert s.mean == pytest.approx(2.0)
        assert s.median == 2.0
        assert s.count == 3
        with pytest.raises(ValueError):
            summarize(np.array([]))

    @given(st.lists(st.floats(min_value=0.1, max_value=1e6), min_size=1, max_size=50))
    @settings(max_examples=50)
    def test_geometric_leq_arithmetic(self, values):
        values = np.array(values)
        assert geometric_mean(values) <= values.mean() + 1e-6


def _golden_ci(n):
    rng = np.random.default_rng(1000 + n)
    return confidence_interval_95(rng.normal(100.0, 7.0, size=n))


class TestConfidenceIntervalGolden:
    """``confidence_interval_95`` pinned bit-exactly on seeded samples.

    Table III's intervals come from at most a few dozen repeats, so every
    sample size up to 101 (t with df <= 100) must reproduce the exact
    bits of the reference Student-t quantile.  Larger samples pin the
    mean exactly and the half-width to a relative 1e-10.
    """

    #: SHA-256 over "n mean.hex() h.hex()" lines for n = 2..101.
    EXACT_DIGEST = "60788c48eead0d1aa6ab903be45f40bc7e7de57b835615dc977c1cbfee030631"

    EXACT = {
        2: ("0x1.7aa776a429c9cp+6", "0x1.354b2d12cfc76p+6"),
        3: ("0x1.780a6d52c1a20p+6", "0x1.7393f638228d7p+3"),
        50: ("0x1.92f8a516a7b69p+6", "0x1.2bbb13d74c48fp+1"),
        101: ("0x1.91e87fb7da6bdp+6", "0x1.66d2c88410c89p+0"),
    }

    LARGE = {
        150: ("0x1.8ded9eb4bb52cp+6", "0x1.349d68e2ba29ep+0"),
        1000: ("0x1.8efc39c121104p+6", "0x1.ba04d65aa1bc8p-2"),
    }

    def test_small_samples_are_bit_exact(self):
        lines = []
        for n in range(2, 102):
            mean, h = _golden_ci(n)
            lines.append(f"{n} {mean.hex()} {h.hex()}")
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == self.EXACT_DIGEST

    @pytest.mark.parametrize("n", sorted(EXACT))
    def test_spot_values(self, n):
        mean, h = _golden_ci(n)
        assert (mean.hex(), h.hex()) == self.EXACT[n]

    @pytest.mark.parametrize("n", sorted(LARGE))
    def test_large_samples(self, n):
        mean, h = _golden_ci(n)
        mean_hex, h_hex = self.LARGE[n]
        assert mean.hex() == mean_hex
        assert h == pytest.approx(float.fromhex(h_hex), rel=1e-10, abs=0)


class TestKeystrokeEvaluation:
    def _ms(self, *values):
        return np.array(values, dtype=np.float64) * 1e-3 * DEFAULT_TSC_HZ

    def test_perfect_detection(self):
        truth = self._ms(100, 300, 500)
        result = evaluate_keystrokes(truth, truth)
        assert result.f1 == pytest.approx(1.0)
        assert result.timestamp_std_ms == pytest.approx(0.0)

    def test_constant_offset_detection(self):
        truth = self._ms(100, 300, 500)
        detected = self._ms(102, 302, 502)
        result = evaluate_keystrokes(truth, detected)
        assert result.true_positives == 3
        assert result.timestamp_std_ms == pytest.approx(0.0, abs=1e-6)
        assert result.timestamp_mae_ms == pytest.approx(2.0)

    def test_missed_and_spurious_events(self):
        truth = self._ms(100, 300, 500, 700)
        detected = self._ms(101, 502, 9000)
        result = evaluate_keystrokes(truth, detected)
        assert result.true_positives == 2
        assert result.false_negatives == 2
        assert result.false_positives == 1
        assert 0 < result.f1 < 1

    def test_tolerance_window(self):
        truth = self._ms(100)
        detected = self._ms(100 + 50)  # outside the default 40 ms window
        result = evaluate_keystrokes(truth, detected)
        assert result.true_positives == 0
        assert result.false_positives == 1
        assert np.isnan(result.timestamp_std_ms)

    def test_one_detection_matches_one_truth_only(self):
        truth = self._ms(100, 110)
        detected = self._ms(105)
        result = evaluate_keystrokes(truth, detected)
        assert result.true_positives == 1
        assert result.false_negatives == 1

    def test_counts_properties(self):
        truth = self._ms(100, 300)
        detected = self._ms(100, 300, 900)
        result = evaluate_keystrokes(truth, detected)
        assert result.detections == 3
        assert result.ground_truth == 2


class TestReporting:
    def test_format_table_aligns(self):
        text = format_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")
        assert "---" in lines[1]

    def test_format_table_validates(self):
        with pytest.raises(ValueError):
            format_table([], [])
        with pytest.raises(ValueError):
            format_table(["a"], [["1", "2"]])

    def test_format_histogram(self):
        text = format_histogram(np.array([1.0, 1.0, 2.0, 10.0]), bins=3, label="lat")
        assert text.startswith("lat")
        assert "#" in text
        with pytest.raises(ValueError):
            format_histogram(np.array([]))

    def test_format_series(self):
        text = format_series([1, 2], [10, 20], "capacity")
        assert "capacity" in text
        with pytest.raises(ValueError):
            format_series([1], [1, 2], "x")
