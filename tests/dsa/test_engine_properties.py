"""Property-style invariant tests on engine/device behavior."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsa.completion import CompletionStatus
from repro.dsa.descriptor import make_memcpy, make_noop

from tests.conftest import build_host


class TestTimingInvariants:
    def test_completion_latency_monotone_in_size(self):
        host = build_host(seed=3)
        proc = host.new_process()
        comp = proc.comp_record()
        latencies = []
        for exponent in range(10, 24, 2):
            size = 1 << exponent
            src = proc.buffer(size)
            dst = proc.buffer(size)
            # Average several samples to wash out environment noise.
            samples = [
                proc.portal.submit_wait(
                    make_memcpy(proc.pasid, src, dst, size, comp)
                ).latency_cycles
                for _ in range(6)
            ]
            latencies.append(np.mean(samples))
        assert all(b >= a * 0.93 for a, b in zip(latencies, latencies[1:]))

    @given(st.integers(1, 1 << 22))
    @settings(max_examples=15, deadline=None)
    def test_any_size_completes_successfully(self, size):
        host = build_host(seed=size % 97)
        proc = host.new_process()
        src = proc.buffer(max(size, 4096))
        dst = proc.buffer(max(size, 4096))
        comp = proc.comp_record()
        result = proc.portal.submit_wait(
            make_memcpy(proc.pasid, src, dst, size, comp)
        )
        assert result.record.status is CompletionStatus.SUCCESS
        assert result.latency_cycles > 0

    def test_dispatch_never_precedes_enqueue(self):
        host = build_host()
        proc = host.new_process()
        tickets = [
            proc.portal.submit(make_noop(proc.pasid, proc.comp_record()))
            for _ in range(8)
        ]
        for ticket in tickets:
            proc.portal.wait(ticket)
            assert ticket.dispatch_time >= ticket.enqueue_time
            assert ticket.completion_time > ticket.dispatch_time


class TestConservationInvariants:
    @given(st.lists(st.booleans(), min_size=1, max_size=30))
    @settings(max_examples=20, deadline=None)
    def test_every_accepted_submission_completes(self, kinds):
        """accepted == completed once the device drains (no lost work)."""
        host = build_host(seed=11, wq_size=8)
        proc = host.new_process()
        comp = proc.comp_record()
        src = proc.buffer(1 << 16)
        dst = proc.buffer(1 << 16)
        accepted = 0
        for big in kinds:
            descriptor = (
                make_memcpy(proc.pasid, src, dst, 1 << 14, comp)
                if big
                else make_noop(proc.pasid, comp)
            )
            if not proc.portal.enqcmd(descriptor):
                accepted += 1
        host.clock.advance(200_000_000)
        host.device.advance_to(host.clock.now)
        stats = host.device.stats
        assert stats.submissions_accepted == accepted
        assert stats.descriptors_completed == accepted
        assert host.device.wq(0).occupancy == 0

    def test_queue_slots_conserved_under_churn(self):
        host = build_host(seed=13, wq_size=4)
        proc = host.new_process()
        comp = proc.comp_record()
        rng = np.random.default_rng(0)
        for _ in range(200):
            proc.portal.enqcmd(make_noop(proc.pasid, comp))
            if rng.random() < 0.3:
                host.clock.advance(int(rng.integers(100, 50_000)))
                host.device.advance_to(host.clock.now)
            wq = host.device.wq(0)
            assert 0 <= wq.occupancy <= wq.config.size
        host.clock.advance(10_000_000)
        host.device.advance_to(host.clock.now)
        assert host.device.wq(0).occupancy == 0


class TestFaultAccounting:
    def test_engine_fault_stats(self):
        host = build_host()
        proc = host.new_process()
        comp = proc.comp_record()
        result = proc.portal.submit_wait(
            make_memcpy(proc.pasid, 0xBAD_0000_000, proc.buffer(), 64, comp)
        )
        assert result.record.status is CompletionStatus.PAGE_FAULT
        assert host.device.engines[0].stats.faults == 1
        assert len(host.device.prs.log) == 1

    def test_fault_in_stream_tail_detected(self):
        """The bulk path still faults when the last page is unmapped.

        The source must be the process's *last* mapping: the bump
        allocator otherwise places the next buffer right behind it and
        accidentally maps the overrun pages.
        """
        host = build_host()
        proc = host.new_process()
        comp = proc.comp_record()
        dst = proc.buffer(1 << 16)
        src = proc.buffer(4096)  # final mapping: nothing beyond it
        result = proc.portal.submit_wait(
            make_memcpy(proc.pasid, src, dst, 3 * 4096, comp)
        )
        assert result.record.status is CompletionStatus.PAGE_FAULT
