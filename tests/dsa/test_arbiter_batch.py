"""Tests for the arbiter policy and the batch engine.

Encodes the paper's Section IV-C findings: the arbiter prioritizes work
descriptors over batch-buffer descriptors regardless of arrival order, and
batch-fetcher memory traffic bypasses the DevTLB.
"""

import pytest

from repro.ats.devtlb import FieldType
from repro.dsa.arbiter import Arbiter, ArbiterPolicy, BatchBufferEntry
from repro.dsa.batch import write_batch_list
from repro.dsa.completion import CompletionRecord, CompletionStatus
from repro.dsa.descriptor import BatchDescriptor, make_memcpy, make_noop
from repro.dsa.wq import WorkQueue, WorkQueueConfig

from tests.conftest import build_host


def _noop():
    return make_noop(pasid=1, completion_addr=0x1000)


class TestArbiterUnit:
    def test_wq_beats_batch_even_when_batch_older(self):
        """Listing 5's result: WQ descriptors always win."""
        arbiter = Arbiter(ArbiterPolicy.WQ_PRIORITY)
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=4))
        wq.try_enqueue(_noop(), time=100)
        batch_buffer = [
            BatchBufferEntry(descriptor=_noop(), available_time=5, parent_token=None, sequence=0)
        ]
        chosen_wq, entry, _ready = arbiter.choose([wq], batch_buffer, time=200)
        assert chosen_wq is wq and entry is wq.peek()

    def test_batch_dispatches_when_wq_empty(self):
        arbiter = Arbiter(ArbiterPolicy.WQ_PRIORITY)
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=4))
        batch_buffer = [
            BatchBufferEntry(descriptor=_noop(), available_time=5, parent_token=None, sequence=0)
        ]
        chosen_wq, entry, ready = arbiter.choose([wq], batch_buffer, time=200)
        assert chosen_wq is None and entry is batch_buffer[0] and ready == 5

    def test_fifo_ablation_lets_batch_win(self):
        arbiter = Arbiter(ArbiterPolicy.FIFO)
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=4))
        wq.try_enqueue(_noop(), time=100)
        batch_buffer = [
            BatchBufferEntry(descriptor=_noop(), available_time=5, parent_token=None, sequence=0)
        ]
        chosen_wq, entry, _ready = arbiter.choose([wq], batch_buffer, time=200)
        assert chosen_wq is None and entry is batch_buffer[0]

    def test_higher_priority_queue_wins(self):
        arbiter = Arbiter()
        low = WorkQueue(WorkQueueConfig(wq_id=0, size=4, priority=1))
        high = WorkQueue(WorkQueueConfig(wq_id=1, size=4, priority=8))
        low.try_enqueue(_noop(), time=0)
        high.try_enqueue(_noop(), time=50)
        chosen_wq, _entry, ready = arbiter.choose([low, high], [], time=100)
        assert chosen_wq is high and ready == 50

    def test_fifo_within_same_priority(self):
        arbiter = Arbiter()
        a = WorkQueue(WorkQueueConfig(wq_id=0, size=4))
        b = WorkQueue(WorkQueueConfig(wq_id=1, size=4))
        b.try_enqueue(_noop(), time=10)
        a.try_enqueue(_noop(), time=20)
        chosen_wq, _entry, _ready = arbiter.choose([a, b], [], time=100)
        assert chosen_wq is b

    def test_nothing_ready_returns_none(self):
        arbiter = Arbiter()
        wq = WorkQueue(WorkQueueConfig(wq_id=0, size=4))
        wq.try_enqueue(_noop(), time=500)
        assert arbiter.choose([wq], [], time=100) is None

    def test_future_batch_not_chosen(self):
        arbiter = Arbiter()
        batch_buffer = [
            BatchBufferEntry(descriptor=_noop(), available_time=999, parent_token=None, sequence=0)
        ]
        assert arbiter.choose([], batch_buffer, time=100) is None


class TestBatchEngine:
    def test_batch_executes_children_and_parent_record(self):
        host = build_host()
        proc = host.new_process()
        list_addr = proc.buffer(4096)
        batch_comp = proc.comp_record()
        dst = proc.buffer(4096)
        src = proc.buffer(4096)
        proc.space.write(src, b"batchdata!" * 10)
        children = [
            make_memcpy(proc.pasid, src, dst, 100, proc.comp_record()),
            make_noop(proc.pasid, proc.comp_record()),
            make_noop(proc.pasid, proc.comp_record()),
        ]
        write_batch_list(proc.space, list_addr, children)
        batch = BatchDescriptor(
            pasid=proc.pasid, desc_list_addr=list_addr, count=3,
            completion_addr=batch_comp,
        )
        ticket = proc.portal.submit(batch)
        proc.portal.wait(ticket)
        assert ticket.record.status is CompletionStatus.SUCCESS
        assert ticket.record.result == 3
        assert proc.space.read(dst, 100) == b"batchdata!" * 10

    def test_batch_fetch_bypasses_devtlb(self):
        """The fetcher's descriptor reads must not touch any sub-entry."""
        host = build_host()
        proc = host.new_process()
        list_addr = proc.buffer(4096)
        children = [make_noop(proc.pasid, proc.comp_record())]
        write_batch_list(proc.space, list_addr, children)
        batch = BatchDescriptor(
            pasid=proc.pasid, desc_list_addr=list_addr, count=1,
            completion_addr=proc.comp_record(),
        )
        ticket = proc.portal.submit(batch)
        proc.portal.wait(ticket)
        devtlb = host.device.devtlb
        list_page = list_addr >> 12
        for field_type in FieldType:
            assert list_page not in devtlb.cached_pages(0, field_type)

    def test_batch_parent_completion_bypasses_devtlb(self):
        host = build_host()
        proc = host.new_process()
        list_addr = proc.buffer(4096)
        batch_comp = proc.comp_record()
        children = [make_noop(proc.pasid, proc.comp_record())]
        write_batch_list(proc.space, list_addr, children)
        batch = BatchDescriptor(
            pasid=proc.pasid, desc_list_addr=list_addr, count=1,
            completion_addr=batch_comp,
        )
        ticket = proc.portal.submit(batch)
        proc.portal.wait(ticket)
        assert (batch_comp >> 12) not in host.device.devtlb.cached_pages(
            0, FieldType.COMP
        )

    def test_wq_descriptor_preempts_queued_batch_children(self):
        """Reverse-engineered QoS: a work descriptor submitted after a
        batch still dispatches before the batch's buffered children."""
        host = build_host()
        proc = host.new_process()
        list_addr = proc.buffer(4096)
        children = [make_noop(proc.pasid, proc.comp_record()) for _ in range(3)]
        write_batch_list(proc.space, list_addr, children)
        batch = BatchDescriptor(
            pasid=proc.pasid, desc_list_addr=list_addr, count=3,
            completion_addr=proc.comp_record(),
        )
        batch_ticket = proc.portal.submit(batch)
        work = make_noop(proc.pasid, proc.comp_record())
        work_ticket = proc.portal.submit(work)
        proc.portal.wait(batch_ticket)
        proc.portal.wait(work_ticket)
        # The work descriptor completed before the batch parent resolved.
        assert work_ticket.completion_time <= batch_ticket.completion_time

    def test_forged_pasid_in_batch_rejected(self):
        host = build_host()
        proc = host.new_process()
        intruder = host.new_process()
        list_addr = proc.buffer(4096)
        children = [make_noop(intruder.pasid, proc.comp_record())]
        write_batch_list(proc.space, list_addr, children)
        batch = BatchDescriptor(
            pasid=proc.pasid, desc_list_addr=list_addr, count=1,
            completion_addr=proc.comp_record(),
        )
        ticket = proc.portal.submit(batch)
        proc.portal.wait(ticket)
        # The fetcher refuses the list: the parent fails, no child runs.
        assert ticket.record.status is CompletionStatus.BATCH_FAIL
        assert host.device.fetcher.descriptors_fetched == 0
        assert host.device.stats.descriptors_completed == 1

    def test_page_faulted_child_fails_the_batch(self):
        """A child whose source page is unmapped ends with ``PAGE_FAULT``;
        its parent then ends with ``BATCH_FAIL``, still counting every
        child in ``result``."""
        host = build_host()
        proc = host.new_process()
        list_addr = proc.buffer(4096)
        faulting = make_memcpy(
            proc.pasid, proc.buffer() + (1 << 30), proc.buffer(), 4096,
            proc.comp_record(),
        )
        children = [make_noop(proc.pasid, proc.comp_record()), faulting]
        write_batch_list(proc.space, list_addr, children)
        batch = BatchDescriptor(
            pasid=proc.pasid, desc_list_addr=list_addr, count=2,
            completion_addr=proc.comp_record(),
        )
        ticket = proc.portal.submit(batch)
        proc.portal.wait(ticket)
        child_record = CompletionRecord.decode(
            proc.read(faulting.completion_addr, 32)
        )
        assert child_record.status is CompletionStatus.PAGE_FAULT
        assert ticket.record.status is CompletionStatus.BATCH_FAIL
        assert ticket.record.result == 2
        assert host.device.stats.descriptors_completed == 3

    @pytest.mark.parametrize(
        ("child_pasid", "list_mapped", "status"),
        [
            (0, True, CompletionStatus.BATCH_FAIL),
            (None, False, CompletionStatus.PAGE_FAULT),
        ],
    )
    def test_unfetchable_batch_frees_its_slot(self, child_pasid, list_mapped, status):
        """A batch whose list cannot be fetched completes with an error
        record and releases its shared-WQ slot; the submitter sees no
        exception."""
        host = build_host()
        proc = host.new_process()
        pasid = proc.pasid if child_pasid is None else child_pasid
        list_addr = proc.buffer(4096)
        write_batch_list(
            proc.space, list_addr, [make_noop(pasid, proc.comp_record())]
        )
        if not list_mapped:
            list_addr += 1 << 30  # no mapping there
        batch = BatchDescriptor(
            pasid=proc.pasid, desc_list_addr=list_addr, count=1,
            completion_addr=proc.comp_record(),
        )
        ticket = proc.portal.submit(batch)
        proc.portal.wait(ticket)
        assert ticket.record.status is status
        assert host.device.wq(0).occupancy == 0
        assert host.device.stats.descriptors_completed == 1
