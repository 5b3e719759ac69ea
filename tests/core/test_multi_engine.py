"""Tests for whole-device monitoring and WQ disable semantics."""

import pytest

from repro.core.multi_engine import MultiEngineMonitor
from repro.dsa.completion import CompletionRecord, CompletionStatus
from repro.dsa.descriptor import make_memcpy, make_noop
from repro.hw.units import us_to_cycles

from tests.core.test_recon import build_multi_engine_system
from tests.conftest import build_host


class TestMultiEngineMonitor:
    def test_needs_queues(self):
        system, attacker, _ = build_multi_engine_system()
        with pytest.raises(ValueError):
            MultiEngineMonitor(attacker, [])

    def test_quiet_device_reads_nothing(self):
        system, attacker, _ = build_multi_engine_system()
        monitor = MultiEngineMonitor(attacker, [0, 1, 2])
        activity = monitor.watch(system.timeline, duration_us=400)
        assert all(a.evictions == 0 for a in activity.values())

    def test_localizes_the_busy_engine(self):
        system, attacker, victim = build_multi_engine_system()
        monitor = MultiEngineMonitor(attacker, [0, 1, 2])
        v_portal = victim.portal(1)
        v_comp = victim.comp_record()
        start = system.clock.now
        for k in range(40):
            system.timeline.schedule_at(
                start + us_to_cycles(20.0 * (k + 1)),
                lambda: v_portal.enqcmd(make_noop(victim.pasid, v_comp)),
            )
        activity = monitor.watch(system.timeline, duration_us=900)
        assert monitor.busiest(activity) == 1
        assert activity[1].activity_rate > 0.3
        assert activity[0].evictions == 0
        assert activity[2].evictions == 0


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
