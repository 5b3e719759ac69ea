"""Each checker catches its class of silent corruption — and only that.

Every positive case here tampers with model state the way a real bug
would (a leaked credit, a double record write, an overfull sub-entry)
and asserts the matching checker trips with its own ``invariant`` name;
the negative cases run genuine workloads and assert silence.
"""

import math

import pytest

from repro.ats.devtlb import FieldType
from repro.dsa.descriptor import make_memcpy
from repro.dsa.device import SubmissionTicket
from repro.errors import InvariantViolation
from repro.invariants import InvariantMonitor
from repro.invariants.checkers import ArbiterFairnessChecker, CompletionChecker


def _attached(host, **kwargs):
    monitor = InvariantMonitor(mode="strict", **kwargs)
    monitor.attach_device(host.device)
    return monitor


def _submit_some(proc, n=4):
    src = proc.buffer(4096)
    dst = proc.buffer(4096)
    comp = proc.comp_record()
    for _ in range(n):
        proc.portal.submit_wait(make_memcpy(proc.pasid, src, dst, 256, comp))


class TestWqCredits:
    def test_clean_workload_is_silent(self, host):
        monitor = _attached(host)
        _submit_some(host.new_process())
        monitor.check_all()

    def test_leaked_credit_trips(self, host):
        monitor = _attached(host)
        proc = host.new_process()
        _submit_some(proc)
        # A credit leak: the occupancy register diverges from the event
        # ledger (as if a completion forgot to release its slot).
        host.device.queue_space.get(0)._outstanding += 1
        with pytest.raises(InvariantViolation) as info:
            monitor.check_all()
        assert info.value.invariant == "wq-credits"
        assert "credit" in str(info.value)

    def test_occupancy_bounds_trip(self, host):
        monitor = _attached(host)
        proc = host.new_process()
        _submit_some(proc, n=1)
        wq = host.device.queue_space.get(0)
        wq._outstanding = wq.config.size + 3
        with pytest.raises(InvariantViolation) as info:
            monitor.check_all()
        assert info.value.invariant == "wq-credits"

    def test_negative_ledger_trips_at_observe_time(self, host):
        monitor = _attached(host)
        proc = host.new_process()
        _submit_some(proc, n=1)
        ticket = SubmissionTicket(
            descriptor=None,
            wq_id=0,
            enqueue_time=0,
            dispatch_time=0,
            completion_time=0,
            record=object(),
            ticket_id=10_000,
        )
        with pytest.raises(InvariantViolation) as info:
            # More completions than accepted submissions on WQ 0.
            for _ in range(8):
                monitor.note("complete", payload=ticket, wq_id=0)
        assert info.value.invariant == "wq-credits"
        assert "more slot releases" in str(info.value)


class TestCompletion:
    def _ticket(self, **kwargs):
        defaults = dict(descriptor=None, wq_id=0, enqueue_time=100, ticket_id=1)
        defaults.update(kwargs)
        ticket = SubmissionTicket(**defaults)
        if "record" not in kwargs:
            ticket.record = object()
        return ticket

    def test_double_record_write_trips(self):
        monitor = InvariantMonitor(mode="strict", checkers=[CompletionChecker()])
        ticket = self._ticket(dispatch_time=110, completion_time=120)
        monitor.note("complete", payload=ticket, wq_id=0)
        with pytest.raises(InvariantViolation) as info:
            monitor.note("complete", payload=ticket, wq_id=0)
        assert info.value.invariant == "completion"
        assert "twice" in str(info.value)

    def test_missing_record_trips(self):
        monitor = InvariantMonitor(mode="strict", checkers=[CompletionChecker()])
        ticket = self._ticket(record=None)
        with pytest.raises(InvariantViolation) as info:
            monitor.note("complete", payload=ticket, wq_id=0)
        assert "without a" in str(info.value)

    def test_dispatch_before_enqueue_trips(self):
        monitor = InvariantMonitor(mode="strict", checkers=[CompletionChecker()])
        ticket = self._ticket(dispatch_time=50)  # enqueue_time=100
        with pytest.raises(InvariantViolation) as info:
            monitor.note("complete", payload=ticket, wq_id=0)
        assert "before its" in str(info.value)

    def test_completion_before_dispatch_trips(self):
        monitor = InvariantMonitor(mode="strict", checkers=[CompletionChecker()])
        ticket = self._ticket(dispatch_time=110, completion_time=105)
        with pytest.raises(InvariantViolation):
            monitor.note("complete", payload=ticket, wq_id=0)

    def test_history_bound_forgets_old_tickets(self):
        monitor = InvariantMonitor(
            mode="strict", checkers=[CompletionChecker(history=4)]
        )
        for ticket_id in range(6):
            ticket = self._ticket(
                ticket_id=ticket_id, dispatch_time=110, completion_time=120
            )
            monitor.note("complete", payload=ticket, wq_id=0)
        # Ticket 0 rotated out of the dedup window: no false trip.
        monitor.note(
            "complete",
            payload=self._ticket(
                ticket_id=0, dispatch_time=110, completion_time=120
            ),
            wq_id=0,
        )

    def test_premature_record_on_inflight_descriptor_trips(self, host):
        monitor = _attached(host)
        proc = host.new_process()
        src, dst = proc.buffer(1 << 20), proc.buffer(1 << 20)
        proc.portal.submit(
            make_memcpy(proc.pasid, src, dst, 1 << 20, proc.comp_record())
        )
        engine = host.device.engines[0]
        assert engine.inflight, "large copy should still be in flight"
        engine.inflight[0].record = object()  # written before retirement
        with pytest.raises(InvariantViolation) as info:
            monitor.check_all()
        assert info.value.invariant == "completion"


class TestDevTlb:
    def test_clean_traffic_is_silent(self, host):
        monitor = _attached(host)
        proc = host.new_process()
        _submit_some(proc)
        monitor.check_all()

    def test_unbound_pasid_traffic_trips(self, host):
        monitor = _attached(host)
        with pytest.raises(InvariantViolation) as info:
            host.device.devtlb.access(0, FieldType.SRC, 0x100, pasid=777)
        assert info.value.invariant == "devtlb"
        assert "PASID" in str(info.value)

    def test_overfull_sub_entry_trips(self, host):
        from repro.ats.devtlb import _Slot

        monitor = _attached(host)
        proc = host.new_process()
        tlb = host.device.devtlb
        tlb.access(0, FieldType.SRC, 0x100, pasid=proc.pasid)
        key = next(iter(tlb._entries))
        sub = tlb._entries[key]
        limit = tlb.config.slots_per_subentry
        for extra in range(limit + 1):
            sub.slots.append(_Slot(base_vpn=0x200 + extra, pages=1, pasid=proc.pasid))
        with pytest.raises(InvariantViolation) as info:
            monitor.check_all()
        assert info.value.invariant == "devtlb"
        assert "associativity" in str(info.value)


class TestArbiterFairness:
    def _monitor(self, **kwargs):
        return InvariantMonitor(
            mode="strict", checkers=[ArbiterFairnessChecker(**kwargs)]
        )

    def test_batch_beating_ready_wq_trips(self):
        monitor = self._monitor()
        snapshot = ((0, 0, 5),)  # WQ 0 ready at choice time
        with pytest.raises(InvariantViolation) as info:
            monitor.note(
                "dispatch", 10, payload=snapshot, policy="wq-priority",
                source="batch-parent",
            )
        assert info.value.invariant == "arbiter"
        assert "batch" in str(info.value)

    def test_priority_inversion_trips(self):
        monitor = self._monitor()
        snapshot = ((0, 0, 5), (1, 3, 6))  # WQ 1 outranks the chosen WQ 0
        with pytest.raises(InvariantViolation) as info:
            monitor.note(
                "dispatch", 10, payload=snapshot,
                wq_id=0, priority=0, policy="wq-priority",
            )
        assert "inversion" in str(info.value)

    def test_priority_order_is_silent(self):
        monitor = self._monitor()
        snapshot = ((0, 3, 5), (1, 0, 6))
        monitor.note(
            "dispatch", 10, payload=snapshot,
            wq_id=0, priority=3, policy="wq-priority",
        )

    def test_starvation_bound_trips(self):
        monitor = self._monitor(starvation_limit=10)
        snapshot = ((0, 0, 5), (1, 0, 6))
        with pytest.raises(InvariantViolation) as info:
            for _ in range(12):  # WQ 1 passed over every time
                monitor.note(
                    "dispatch", 10, payload=snapshot,
                    wq_id=0, priority=0, policy="round-robin",
                )
        assert "starved" in str(info.value)

    def test_dispatch_resets_starvation_counter(self):
        monitor = self._monitor(starvation_limit=10)
        for turn in range(40):
            chosen = turn % 2
            monitor.note(
                "dispatch", 10,
                payload=((0, 0, 5), (1, 0, 6)),
                wq_id=chosen, priority=0, policy="round-robin",
            )


class TestTimeline:
    def test_future_stamped_event_trips(self, host):
        monitor = _attached(host)
        host.clock.advance(100)
        with pytest.raises(InvariantViolation) as info:
            monitor.note("submit", 10_000, wq_id=0)
        assert info.value.invariant == "timeline"
        assert "beyond" in str(info.value)

    def test_device_time_ahead_of_tsc_trips(self, host):
        monitor = _attached(host)
        proc = host.new_process()
        _submit_some(proc, n=1)
        host.device._time = host.clock.now + 500
        with pytest.raises(InvariantViolation) as info:
            monitor.check_all()
        assert info.value.invariant == "timeline"
        assert "ahead" in str(info.value)

    def test_real_workload_is_silent(self, host):
        monitor = _attached(host)
        proc = host.new_process()
        _submit_some(proc, n=6)
        host.clock.advance(10_000)
        host.device.advance_to(host.clock.now)
        monitor.check_all()

    def test_skipped_retirement_trips(self, host):
        monitor = _attached(host)
        proc = host.new_process()
        src, dst = proc.buffer(1 << 16), proc.buffer(1 << 16)
        ticket = proc.portal.submit(
            make_memcpy(proc.pasid, src, dst, 1 << 16, proc.comp_record())
        )
        assert host.device.engines[0].inflight, "copy should still be in flight"
        host.device._wake = math.inf  # a replay gate set past the completion
        host.clock.advance_to(ticket.completion_time + 1_000)
        host.device.advance_to(host.clock.now)
        with pytest.raises(InvariantViolation) as info:
            monitor.check_all()
        assert info.value.invariant == "timeline"
        assert "skipped" in str(info.value)
