"""Disabling a work queue aborts what it holds and frees its slots."""

from repro.dsa.batch import write_batch_list
from repro.dsa.completion import CompletionRecord, CompletionStatus
from repro.dsa.descriptor import BatchDescriptor, make_memcpy, make_noop

from tests.conftest import build_host


class TestWqDisable:
    def test_disable_aborts_queued_descriptors(self):
        host = build_host(wq_size=8)
        proc = host.new_process()
        comp_addrs = [proc.comp_record() for _ in range(4)]
        anchor = make_memcpy(
            proc.pasid, proc.buffer(1 << 22), proc.buffer(1 << 22), 1 << 22,
            proc.comp_record(),
        )
        anchor_ticket = proc.portal.submit(anchor)  # occupies the engine
        tickets = [
            proc.portal.submit(make_noop(proc.pasid, addr)) for addr in comp_addrs
        ]
        aborted = host.device.disable_wq(0)
        assert aborted == 4
        for ticket, addr in zip(tickets, comp_addrs):
            assert ticket.record.status is CompletionStatus.ABORT
            record = CompletionRecord.decode(proc.read(addr, 32))
            assert record.status is CompletionStatus.ABORT
        # The in-flight anchor still completes normally.
        proc.portal.wait(anchor_ticket)
        assert anchor_ticket.record.status is CompletionStatus.SUCCESS

    def test_aborted_batch_parent_record_reaches_memory(self):
        """A batch still queued behind a blocked noop aborts like any other
        descriptor: a poller of its completion record reads ``ABORT``."""
        host = build_host(wq_size=8)
        proc = host.new_process()
        anchor = make_memcpy(
            proc.pasid, proc.buffer(1 << 22), proc.buffer(1 << 22), 1 << 22,
            proc.comp_record(),
        )
        proc.portal.submit(anchor)  # occupies the engine
        proc.portal.submit(make_noop(proc.pasid, proc.comp_record()))
        list_addr = proc.buffer()
        write_batch_list(
            proc.space, list_addr, [make_noop(proc.pasid, proc.comp_record())]
        )
        batch_comp = proc.comp_record()
        batch = proc.portal.submit(
            BatchDescriptor(
                pasid=proc.pasid, desc_list_addr=list_addr, count=1,
                completion_addr=batch_comp,
            )
        )
        assert batch.dispatch_time is None
        assert host.device.disable_wq(0) == 2
        assert batch.record.status is CompletionStatus.ABORT
        record = CompletionRecord.decode(proc.read(batch_comp, 32))
        assert record.status is CompletionStatus.ABORT
        assert host.device.wq(0).occupancy == 1  # the anchor

    def test_disable_empty_queue_is_noop(self):
        host = build_host()
        assert host.device.disable_wq(0) == 0

    def test_slots_freed_after_disable(self):
        host = build_host(wq_size=4)
        proc = host.new_process()
        anchor = make_memcpy(
            proc.pasid, proc.buffer(1 << 22), proc.buffer(1 << 22), 1 << 22,
            proc.comp_record(),
        )
        proc.portal.submit(anchor)
        for _ in range(3):
            proc.portal.submit(make_noop(proc.pasid, proc.comp_record()))
        assert host.device.wq(0).is_full
        host.device.disable_wq(0)
        # Only the executing anchor still holds a slot.
        assert host.device.wq(0).occupancy == 1
