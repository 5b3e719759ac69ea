"""The Student-t critical value behind ``confidence_interval_95``.

scipy is the oracle here and nowhere else: the runtime carries an exact
table for df <= 100 and a Cornish-Fisher series above it.  The oracle
tests skip when scipy is absent; the property tests always run.
"""

import numpy as np
import pytest

from repro.analysis.stats import _T975_TABLE, _Z975, _t975, confidence_interval_95


class TestOracle:
    def test_table_is_exact(self):
        stats = pytest.importorskip("scipy.stats")
        for df in range(1, 101):
            assert _t975(df) == stats.t.ppf(0.975, df), df

    def test_series_relative_error(self):
        stats = pytest.importorskip("scipy.stats")
        dfs = np.arange(101, 100_001)
        ours = np.array([_t975(int(df)) for df in dfs])
        reference = stats.t.ppf(0.975, dfs)
        assert np.max(np.abs(ours - reference) / reference) <= 1e-10

    def test_normal_limit(self):
        stats = pytest.importorskip("scipy.stats")
        assert stats.norm.ppf(0.975) == _Z975


class TestProperties:
    def test_table_covers_df_1_to_100(self):
        assert len(_T975_TABLE) == 100
        assert _t975(1) == 12.706204736174694

    def test_strictly_decreasing(self):
        values = [_t975(df) for df in range(1, 20_001)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_above_normal_quantile_and_tends_to_it(self):
        gaps = [_t975(df) - _Z975 for df in (1, 10, 100, 101, 10**3, 10**6, 10**9)]
        assert all(gap > 0 for gap in gaps)
        assert gaps[-1] < 1e-8

    def test_interval_needs_two_samples(self):
        for values in ([], [1.0]):
            with pytest.raises(ValueError):
                confidence_interval_95(np.array(values))
