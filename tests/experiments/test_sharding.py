"""Property tests for the pool's shard partition.

The interleave partition is a *partition*: every pending index lands in
exactly one shard, no index is dropped, duplicated, or reordered within
its shard, and exactly ``workers`` shards come back.  Checked here with
hypothesis.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.pool import shard_interleave

indices_strategy = st.lists(
    st.integers(min_value=0, max_value=10_000), max_size=200, unique=True
).map(sorted)
workers_strategy = st.integers(min_value=1, max_value=12)


@pytest.mark.parametrize("partition", [shard_interleave], ids=["interleave"])
class TestShardPartition:
    @given(indices=indices_strategy, workers=workers_strategy)
    @settings(max_examples=200, deadline=None)
    def test_is_a_partition(self, partition, indices, workers):
        shards = partition(indices, workers)
        assert len(shards) == workers
        flat = [index for shard in shards for index in shard]
        assert sorted(flat) == indices, "dropped or duplicated indices"

    @given(indices=indices_strategy, workers=workers_strategy)
    @settings(max_examples=200, deadline=None)
    def test_per_shard_order_preserved(self, partition, indices, workers):
        for shard in partition(indices, workers):
            assert shard == sorted(shard)
            positions = [indices.index(i) for i in shard]
            assert positions == sorted(positions)

    @given(indices=indices_strategy, workers=workers_strategy)
    @settings(max_examples=50, deadline=None)
    def test_deterministic(self, partition, indices, workers):
        assert partition(indices, workers) == partition(indices, workers)

    def test_rejects_zero_workers(self, partition):
        with pytest.raises(ValueError):
            partition([0, 1, 2], 0)


class TestShardShapes:
    @given(indices=indices_strategy, workers=workers_strategy)
    @settings(max_examples=100, deadline=None)
    def test_interleave_round_robin(self, indices, workers):
        shards = shard_interleave(indices, workers)
        for worker, shard in enumerate(shards):
            assert shard == list(indices[worker::workers])

