"""Process teardown lifecycle — and the DevTLB residue it leaves."""

import pytest

from repro.ats.devtlb import FieldType
from repro.dsa.batch import write_batch_list
from repro.dsa.completion import CompletionRecord, CompletionStatus
from repro.dsa.descriptor import BatchDescriptor, make_memcpy, make_noop
from repro.errors import ConfigurationError
from repro.virt.system import AttackTopology, CloudSystem


class TestDestroyProcess:
    def test_pasid_recycled_and_bindings_removed(self):
        system = CloudSystem(seed=31)
        vm = system.create_vm("vm1")
        proc = vm.spawn_process("worker")
        pasid = proc.pasid
        system.destroy_process(proc)
        assert not system.device.pasid_table.is_bound(pasid)
        assert not system.pasid_allocator.is_live(pasid)
        with pytest.raises(ConfigurationError):
            vm.process("worker")
        # The PASID can be handed to a new process.
        fresh = vm.spawn_process("worker2")
        assert fresh.pasid == pasid

    def test_double_destroy_rejected(self):
        system = CloudSystem(seed=32)
        proc = system.create_vm("vm1").spawn_process("p")
        system.destroy_process(proc)
        with pytest.raises(ConfigurationError):
            system.destroy_process(proc)

    def test_teardown_with_work_in_flight_completes_it(self):
        """A tenant destroyed while its memcpy runs: the record write has
        no page table left, so it is dropped (narrated as a fault) and the
        descriptor still completes; the other tenant is unaffected."""
        system = CloudSystem(seed=35, invariants="strict")
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        victim, attacker = handles.victim, handles.attacker
        size = 64 * 1024
        ticket = victim.portal(handles.victim_wq).submit(
            make_memcpy(
                victim.pasid, victim.buffer(size), victim.buffer(size), size,
                victim.comp_record(),
            )
        )
        system.destroy_process(victim)
        assert ticket.record is None  # still in flight
        result = attacker.portal(handles.attacker_wq).submit_wait(
            make_noop(attacker.pasid, attacker.comp_record())
        )
        assert result.record.status is CompletionStatus.SUCCESS
        assert ticket.record.status is CompletionStatus.SUCCESS
        assert system.device.wq(handles.attacker_wq).occupancy == 0
        faults = [
            event for event in system.invariant_monitor.event_window()
            if event["kind"] == "fault"
        ]
        assert [event["cause"] for event in faults] == ["record-write"]

    def test_teardown_with_queued_work_aborts_it(self):
        """A tenant destroyed with memcpys still queued on a shared WQ: the
        queued one ends with ``ABORT`` and frees its slot, so the other
        tenant's next submit is served instead of raising."""
        system = CloudSystem(seed=5, invariants="strict")
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        victim, attacker = handles.victim, handles.attacker
        size = 64 * 1024
        running, queued = (
            victim.portal(handles.victim_wq).submit(
                make_memcpy(
                    victim.pasid, victim.buffer(size), victim.buffer(size), size,
                    victim.comp_record(),
                )
            )
            for _ in range(2)
        )
        assert queued.dispatch_time is None
        system.destroy_process(victim)
        assert queued.record.status is CompletionStatus.ABORT
        result = attacker.portal(handles.attacker_wq).submit_wait(
            make_noop(attacker.pasid, attacker.comp_record())
        )
        assert result.record.status is CompletionStatus.SUCCESS
        assert running.record.status is CompletionStatus.SUCCESS
        device = system.device
        assert device.wq(handles.attacker_wq).occupancy == 0
        assert device.stats.descriptors_completed == device.stats.submissions_accepted

    def test_teardown_aborts_batch_children_in_the_buffer(self):
        """A tenant destroyed while its batch children wait in a batch
        buffer behind its own memcpy: the children abort, the batch parent
        completes with ``BATCH_FAIL`` and frees its slot, and the other
        tenant is served."""
        system = CloudSystem(seed=5, invariants="strict")
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        victim, attacker = handles.victim, handles.attacker
        portal = victim.portal(handles.victim_wq)
        size = 64 * 1024
        portal.submit(
            make_memcpy(
                victim.pasid, victim.buffer(size), victim.buffer(size), size,
                victim.comp_record(),
            )
        )
        children = [
            make_memcpy(
                victim.pasid, victim.buffer(), victim.buffer(), 4096,
                victim.comp_record(),
            )
            for _ in range(3)
        ]
        list_addr = victim.buffer()
        write_batch_list(victim.space, list_addr, children)
        batch_comp = victim.comp_record()
        batch = portal.submit(
            BatchDescriptor(
                pasid=victim.pasid, desc_list_addr=list_addr, count=3,
                completion_addr=batch_comp,
            )
        )
        device = system.device
        device.advance_to(system.clock.now)
        assert batch.dispatch_time is not None  # fetched: children buffered
        assert batch.record is None
        system.destroy_process(victim)
        for child in children:
            record = CompletionRecord.decode(victim.read(child.completion_addr, 32))
            assert record.status is CompletionStatus.ABORT
        assert batch.record.status is CompletionStatus.BATCH_FAIL
        assert batch.record.result == 3
        result = attacker.portal(handles.attacker_wq).submit_wait(
            make_noop(attacker.pasid, attacker.comp_record())
        )
        assert result.record.status is CompletionStatus.SUCCESS
        assert device.wq(handles.attacker_wq).occupancy == 0
        assert device.stats.descriptors_completed == (
            device.stats.submissions_accepted + len(children)
        )

    def test_kept_portal_refuses_to_submit_after_teardown(self):
        """A portal reference kept past teardown is closed: a submission
        through it raises a typed error before anything is enqueued, so no
        WQ slot is held and the device counts nothing."""
        system = CloudSystem(seed=5, invariants="strict")
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        victim = handles.victim
        portal = victim.portal(handles.victim_wq)
        memcpy = make_memcpy(
            victim.pasid, victim.buffer(), victim.buffer(), 4096,
            victim.comp_record(),
        )
        device = system.device
        accepted = device.stats.submissions_accepted
        system.destroy_process(victim)
        with pytest.raises(ConfigurationError, match="closed"):
            portal.submit(memcpy)
        assert device.wq(handles.victim_wq).occupancy == 0
        assert device.stats.submissions_accepted == accepted
        result = handles.attacker.portal(handles.attacker_wq).submit_wait(
            make_noop(handles.attacker.pasid, handles.attacker.comp_record())
        )
        assert result.record.status is CompletionStatus.SUCCESS

    def test_iotlb_scrubbed_on_teardown(self):
        system = CloudSystem(seed=33)
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        victim = handles.victim
        comp = victim.comp_record()
        victim.portal(0).submit_wait(make_noop(victim.pasid, comp))
        assert system.device.agent.iotlb.occupancy > 0
        before = system.device.agent.iotlb.occupancy
        system.destroy_process(victim)
        assert system.device.agent.iotlb.occupancy < before

    def test_devtlb_residue_survives_teardown(self):
        """The vulnerability's afterlife: the dead victim's translation
        stays in the DevTLB, and the attacker can still read its
        presence (a hit on a fresh probe would be absent otherwise)."""
        system = CloudSystem(seed=34)
        handles = system.setup_topology(AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE)
        victim = handles.victim
        v_comp = victim.comp_record()
        victim.portal(handles.victim_wq).submit_wait(
            make_noop(victim.pasid, v_comp)
        )
        victim_page = v_comp >> 12
        dead_pasid = victim.pasid
        system.destroy_process(victim)
        devtlb = system.device.devtlb
        assert victim_page in devtlb.cached_pages(0, FieldType.COMP)
        # ... and since sub-entries carry no PASID tag, any process "hits"
        # on the dead process's page number.
        assert devtlb.peek(0, FieldType.COMP, victim_page, handles.attacker.pasid)