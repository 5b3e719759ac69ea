"""Unit tests for work queues and the shared hardware queue space."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsa.descriptor import make_noop
from repro.dsa.wq import (
    HardwareQueueSpace,
    WorkQueue,
    WorkQueueConfig,
    WqMode,
)
from repro.errors import QueueConfigurationError


def _noop():
    return make_noop(pasid=1, completion_addr=0x1000)


class TestWorkQueue:
    def test_enqueue_dequeue_fifo(self):
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=4))
        a = wq.try_enqueue(_noop(), time=10)
        b = wq.try_enqueue(_noop(), time=20)
        assert a is not None and b is not None
        assert wq.pop() is a
        assert wq.pop() is b

    def test_full_queue_rejects(self):
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=2))
        assert wq.try_enqueue(_noop(), 0) is not None
        assert wq.try_enqueue(_noop(), 0) is not None
        assert wq.try_enqueue(_noop(), 0) is None
        assert wq.rejected_total == 1
        assert wq.is_full

    def test_occupancy_and_free_slots(self):
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=3))
        wq.try_enqueue(_noop(), 0)
        assert wq.occupancy == 1
        assert wq.free_slots == 2
        assert len(wq) == 1

    def test_pop_empty_raises(self):
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=1))
        with pytest.raises(IndexError):
            wq.pop()

    def test_peek_does_not_remove(self):
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=2))
        entry = wq.try_enqueue(_noop(), 5)
        assert wq.peek() is entry
        assert wq.occupancy == 1

    def test_take_pending(self):
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=4))
        wq.try_enqueue(_noop(), 0)
        wq.try_enqueue(_noop(), 1)
        taken = wq.take_pending()
        assert [entry.enqueue_time for entry in taken] == [0, 1]
        assert wq.queued == 0
        # A taken entry keeps its slot until the device completes it.
        assert wq.occupancy == 2
        wq.release_slot()
        wq.release_slot()
        assert wq.occupancy == 0

    def test_take_pending_filters_by_pasid(self):
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=4))
        wq.try_enqueue(make_noop(1, 0x1000), 0)
        wq.try_enqueue(make_noop(2, 0x1000), 1)
        wq.try_enqueue(make_noop(1, 0x1000), 2)
        taken = wq.take_pending(pasid=1)
        assert [entry.enqueue_time for entry in taken] == [0, 2]
        assert wq.peek().descriptor.pasid == 2
        assert wq.queued == 1
        assert wq.occupancy == 3

    def test_max_occupancy_tracked(self):
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=4))
        wq.try_enqueue(_noop(), 0)
        wq.try_enqueue(_noop(), 0)
        wq.pop()
        assert wq.max_occupancy_seen == 2

    def test_sequence_increases(self):
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=4))
        a = wq.try_enqueue(_noop(), 0)
        b = wq.try_enqueue(_noop(), 0)
        assert b.sequence == a.sequence + 1


class TestWorkQueueConfig:
    def test_zero_size_rejected(self):
        with pytest.raises(QueueConfigurationError):
            WorkQueueConfig(wq_id=0, size=0)

    def test_priority_range(self):
        with pytest.raises(QueueConfigurationError):
            WorkQueueConfig(wq_id=0, size=1, priority=16)

    def test_modes(self):
        assert WorkQueueConfig(wq_id=0, size=1, mode=WqMode.DEDICATED).mode is WqMode.DEDICATED


class TestHardwareQueueSpace:
    def test_budget_enforced(self):
        space = HardwareQueueSpace(total_entries=128)
        space.configure(WorkQueueConfig(wq_id=0, size=100))
        with pytest.raises(QueueConfigurationError):
            space.configure(WorkQueueConfig(wq_id=1, size=29))
        space.configure(WorkQueueConfig(wq_id=1, size=28))
        assert space.entries_configured == 128

    def test_duplicate_id_rejected(self):
        space = HardwareQueueSpace()
        space.configure(WorkQueueConfig(wq_id=0, size=8))
        with pytest.raises(QueueConfigurationError):
            space.configure(WorkQueueConfig(wq_id=0, size=8))

    def test_remove_releases_budget(self):
        space = HardwareQueueSpace(total_entries=16)
        space.configure(WorkQueueConfig(wq_id=0, size=16))
        space.remove(0)
        space.configure(WorkQueueConfig(wq_id=1, size=16))

    def test_remove_unknown_rejected(self):
        with pytest.raises(QueueConfigurationError):
            HardwareQueueSpace().remove(3)

    def test_get_unknown_rejected(self):
        with pytest.raises(QueueConfigurationError):
            HardwareQueueSpace().get(0)

    def test_queues_sorted_by_id(self):
        space = HardwareQueueSpace()
        space.configure(WorkQueueConfig(wq_id=2, size=4))
        space.configure(WorkQueueConfig(wq_id=0, size=4))
        assert [q.wq_id for q in space.queues()] == [0, 2]

    @given(st.lists(st.integers(1, 64), max_size=8))
    @settings(max_examples=50, deadline=None)
    def test_configured_never_exceeds_total(self, sizes):
        space = HardwareQueueSpace(total_entries=128)
        for wq_id, size in enumerate(sizes):
            try:
                space.configure(WorkQueueConfig(wq_id=wq_id, size=size))
            except QueueConfigurationError:
                pass
        assert space.entries_configured <= 128
