"""Integration tests: submission through completion on the device model."""

import pytest

from repro.dsa.completion import CompletionStatus
from repro.dsa.descriptor import (
    Descriptor,
    make_dualcast,
    make_memcmp,
    make_memcpy,
    make_noop,
)
from repro.dsa.opcodes import Opcode
from repro.errors import QueueFullError
from repro.hw.units import PAGE_SIZE

from tests.conftest import build_host


class TestBasicExecution:
    def test_noop_completes_successfully(self, proc):
        comp = proc.comp_record()
        result = proc.portal.submit_wait(make_noop(proc.pasid, comp))
        assert result.record.status is CompletionStatus.SUCCESS

    def test_completion_record_written_to_memory(self, proc):
        comp = proc.comp_record()
        proc.portal.submit_wait(make_noop(proc.pasid, comp))
        from repro.dsa.completion import CompletionRecord

        record = CompletionRecord.decode(proc.space.read(comp, 32))
        assert record.status is CompletionStatus.SUCCESS

    def test_memcpy_moves_bytes(self, proc):
        src = proc.buffer()
        dst = proc.buffer()
        comp = proc.comp_record()
        proc.space.write(src, b"dsassassin" * 10)
        result = proc.portal.submit_wait(
            make_memcpy(proc.pasid, src, dst, 100, comp)
        )
        assert result.record.status is CompletionStatus.SUCCESS
        assert result.record.bytes_completed == 100
        assert proc.space.read(dst, 100) == b"dsassassin" * 10

    def test_memcmp_equal(self, proc):
        a = proc.buffer()
        b = proc.buffer()
        comp = proc.comp_record()
        proc.space.write(a, b"same-bytes")
        proc.space.write(b, b"same-bytes")
        result = proc.portal.submit_wait(make_memcmp(proc.pasid, a, b, 10, comp))
        assert result.record.result == 0

    def test_memcmp_differs_reports_offset(self, proc):
        a = proc.buffer()
        b = proc.buffer()
        comp = proc.comp_record()
        proc.space.write(a, b"same-bytes")
        proc.space.write(b, b"same-bytEs")
        result = proc.portal.submit_wait(make_memcmp(proc.pasid, a, b, 10, comp))
        assert result.record.result == 1
        assert result.record.bytes_completed == 8

    def test_dualcast_writes_both_destinations(self, proc):
        src = proc.buffer()
        d1 = proc.buffer()
        d2 = proc.buffer()
        comp = proc.comp_record()
        proc.space.write(src, b"xyz")
        proc.portal.submit_wait(make_dualcast(proc.pasid, src, d1, d2, 3, comp))
        assert proc.space.read(d1, 3) == b"xyz"
        assert proc.space.read(d2, 3) == b"xyz"

    def test_fill(self, proc):
        dst = proc.buffer()
        comp = proc.comp_record()
        desc = Descriptor(
            opcode=Opcode.FILL, pasid=proc.pasid, src=0xAB, dst=dst, size=32,
            completion_addr=comp,
        )
        proc.portal.submit_wait(desc)
        assert proc.space.read(dst, 32) == b"\xab" * 32

    def test_crcgen(self, proc):
        import zlib

        src = proc.buffer()
        comp = proc.comp_record()
        proc.space.write(src, b"check me")
        desc = Descriptor(
            opcode=Opcode.CRCGEN, pasid=proc.pasid, src=src, size=8, completion_addr=comp
        )
        result = proc.portal.submit_wait(desc)
        assert result.record.result == zlib.crc32(b"check me")

    def test_delta_roundtrip(self, proc):
        base = proc.buffer()
        modified = proc.buffer()
        delta = proc.buffer()
        target = proc.buffer()
        comp = proc.comp_record()
        original = bytes(range(64))
        changed = bytearray(original)
        changed[8:16] = b"ZZZZZZZZ"
        proc.space.write(base, original)
        proc.space.write(modified, bytes(changed))
        create = Descriptor(
            opcode=Opcode.CREATE_DELTA, pasid=proc.pasid, src=base, dst=modified,
            dst2=delta, size=64, completion_addr=comp,
        )
        result = proc.portal.submit_wait(create)
        delta_size = result.record.result
        assert delta_size == 12  # one changed 8-byte word

        proc.space.write(target, original)
        apply = Descriptor(
            opcode=Opcode.APPLY_DELTA, pasid=proc.pasid, src=delta, dst=target,
            size=delta_size, completion_addr=comp,
        )
        proc.portal.submit_wait(apply)
        assert proc.space.read(target, 64) == bytes(changed)

    def test_cross_page_memcpy(self, proc):
        src = proc.buffer(3 * PAGE_SIZE)
        dst = proc.buffer(3 * PAGE_SIZE)
        comp = proc.comp_record()
        payload = bytes(range(256)) * 40  # 10240 bytes, spans 3 pages
        proc.space.write(src, payload)
        result = proc.portal.submit_wait(
            make_memcpy(proc.pasid, src, dst, len(payload), comp)
        )
        assert result.record.status is CompletionStatus.SUCCESS
        assert proc.space.read(dst, len(payload)) == payload

    def test_unmapped_source_reports_page_fault(self, proc):
        dst = proc.buffer()
        comp = proc.comp_record()
        result = proc.portal.submit_wait(
            make_memcpy(proc.pasid, 0xDEAD_0000_000, dst, 8, comp)
        )
        assert result.record.status is CompletionStatus.PAGE_FAULT
        assert result.record.fault_address == 0xDEAD_0000_000

    def test_hole_in_a_middle_source_page_reports_page_fault(self, host, proc):
        """Translation checks a stream's first and last page only; the
        unmapped middle page faults when the data moves, and the
        descriptor still completes and frees its slot."""
        pages = [proc.buffer() for _ in range(3)]
        assert pages[2] - pages[0] == 2 * PAGE_SIZE  # one contiguous range
        proc.space.unmap(pages[1])
        dst = proc.buffer(3 * PAGE_SIZE)
        comp = proc.comp_record()
        result = proc.portal.submit_wait(
            make_memcpy(proc.pasid, pages[0], dst, 3 * PAGE_SIZE, comp)
        )
        assert result.record.status is CompletionStatus.PAGE_FAULT
        assert result.record.fault_address == pages[1]
        assert host.device.engines[0].stats.faults == 1
        assert host.device.wq(0).occupancy == 0

    def test_unwritable_completion_record_still_completes(self, host, proc):
        """A record write that faults is dropped (real DSA reports it in
        SWERR): the descriptor completes and frees its slot."""
        comp = proc.comp_record()
        proc.space.unmap(comp)
        ticket = proc.portal.submit(make_noop(proc.pasid, comp))
        proc.portal.wait(ticket)
        assert ticket.record.status is CompletionStatus.PAGE_FAULT
        assert host.device.stats.descriptors_completed == 1
        assert host.device.wq(0).occupancy == 0


class TestQueueSemantics:
    def test_enqcmd_zf_when_full(self):
        host = build_host(wq_size=2)
        proc = host.new_process()
        comp = proc.comp_record()
        anchor = make_memcpy(
            proc.pasid,
            proc.buffer(1 << 22),
            proc.buffer(1 << 22),
            1 << 22,
            comp,
        )
        # The anchor executes on the (serial) engine but still holds its
        # SWQ slot until completion; the second fills the other slot.
        assert not proc.portal.enqcmd(anchor)
        big = make_memcpy(proc.pasid, anchor.src, anchor.dst, 1 << 22, comp)
        assert not proc.portal.enqcmd(big)
        assert proc.portal.enqcmd(big)  # ZF: queue full

    def test_submit_raises_when_full(self):
        host = build_host(wq_size=1)
        proc = host.new_process()
        comp = proc.comp_record()
        big = make_memcpy(
            proc.pasid, proc.buffer(1 << 22), proc.buffer(1 << 22), 1 << 22, comp
        )
        proc.portal.submit(big)  # dispatched but its slot stays occupied
        with pytest.raises(QueueFullError):
            proc.portal.submit(big)

    def test_queue_drains_after_completion(self):
        host = build_host(wq_size=1)
        proc = host.new_process()
        comp = proc.comp_record()
        small = make_noop(proc.pasid, comp)
        for _ in range(5):
            result = proc.portal.submit_wait(small)
            assert result.record.status is CompletionStatus.SUCCESS

    def test_fifo_completion_order(self, proc):
        comp_addrs = [proc.comp_record() for _ in range(4)]
        tickets = [
            proc.portal.submit(make_noop(proc.pasid, addr)) for addr in comp_addrs
        ]
        for ticket in tickets:
            proc.portal.wait(ticket)
        times = [t.completion_time for t in tickets]
        assert times == sorted(times)

    def test_pasid_is_stamped_by_portal(self, proc):
        """enqcmd takes the PASID from the process context, not the payload."""
        comp = proc.comp_record()
        forged = make_noop(pasid=99999, completion_addr=comp)
        ticket = proc.portal.submit(forged)
        proc.portal.wait(ticket)
        assert ticket.descriptor.pasid == proc.pasid


class TestLatencyLandmarks:
    def test_submission_latency_near_700_cycles(self, proc):
        comp = proc.comp_record()
        latencies = []
        for _ in range(50):
            start = proc.host.clock.now
            proc.portal.enqcmd(make_noop(proc.pasid, comp))
            latencies.append(proc.host.clock.now - start)
            # drain so the queue never fills
            proc.portal.wait(proc.portal.last_ticket)
        mean = sum(latencies) / len(latencies)
        assert 550 <= mean <= 900

    def test_noop_probe_latency_hit_vs_miss(self, proc):
        comp = proc.comp_record()
        other = proc.comp_record()
        probe = make_noop(proc.pasid, comp)
        evict = make_noop(proc.pasid, other)

        proc.portal.submit_wait(probe)  # prime (miss, fills entry)
        hit = proc.portal.submit_wait(probe).latency_cycles
        proc.portal.submit_wait(evict)  # evict comp sub-entry
        miss = proc.portal.submit_wait(probe).latency_cycles
        assert hit < 700
        assert miss > 900
        assert miss - hit > 300

    def test_completion_latency_scales_with_size(self, proc):
        comp = proc.comp_record()
        sizes = [1 << 12, 1 << 16, 1 << 20]
        latencies = []
        for size in sizes:
            src = proc.buffer(size)
            dst = proc.buffer(size)
            result = proc.portal.submit_wait(
                make_memcpy(proc.pasid, src, dst, size, comp)
            )
            latencies.append(result.latency_cycles)
        assert latencies[0] < latencies[1] < latencies[2]
        assert latencies[2] > 10 * latencies[0]
