"""Tests for adaptive rate selection."""

import math

import numpy as np
import pytest

from repro.covert.adaptive import AdaptiveResult, RateProbe, find_best_rate
from repro.covert.channel import CovertChannelResult
from repro.covert.metrics import true_capacity


def synthetic_probe(peak_window=42.5, sigma_us=11.0):
    """A channel whose BER follows the analytic slip model."""

    def probe(window_us):
        raw = 1e6 / window_us
        # 2 * Phi(-x), with Phi(-x) = erfc(x / sqrt(2)) / 2 exactly.
        slip = math.erfc(window_us / (2 * sigma_us) / math.sqrt(2))
        ber = min(0.75 * slip, 0.5)
        return CovertChannelResult(
            sent=np.zeros(1, dtype=np.int8),
            received=np.zeros(1, dtype=np.int8),
            raw_bps=raw,
            error_rate=ber,
            true_bps=true_capacity(raw, ber),
        )

    return probe


class TestFindBestRate:
    def test_finds_the_capacity_peak(self):
        result = find_best_rate(synthetic_probe())
        windows = [p.bit_window_us for p in result.probes]
        capacities = {p.bit_window_us: p.true_bps for p in result.probes}
        assert result.best.true_bps == max(capacities.values())
        assert 30.0 <= result.best.bit_window_us <= 65.0

    def test_stops_after_consecutive_drops(self):
        result = find_best_rate(synthetic_probe(), stop_after_drops=2)
        # The full ladder has 6 rungs; the search should cut the tail.
        assert result.probes_spent <= 6

    def test_empty_ladder_rejected(self):
        with pytest.raises(ValueError):
            find_best_rate(synthetic_probe(), window_ladder=())

    def test_invalid_stop_rejected(self):
        with pytest.raises(ValueError):
            find_best_rate(synthetic_probe(), stop_after_drops=0)

    def test_monotone_channel_walks_whole_ladder(self):
        """With negligible jitter, faster is always better: no early stop."""
        result = find_best_rate(synthetic_probe(sigma_us=0.5))
        assert result.probes_spent == 6
        assert result.best.bit_window_us == 22.0

    def test_end_to_end_against_real_devtlb_channel(self):
        """Ladder search over the actual simulated channel."""
        from repro.covert.channel import run_devtlb_covert_channel
        from repro.covert.protocol import CovertConfig

        def probe(window_us):
            return run_devtlb_covert_channel(
                payload_bits=96,
                seed=17,
                config=CovertConfig(bit_window_us=window_us),
            )

        result = find_best_rate(probe, window_ladder=(150.0, 65.0, 42.5, 25.0))
        assert result.best.true_bps > 10_000
