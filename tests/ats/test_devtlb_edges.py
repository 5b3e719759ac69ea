"""DevTLB eviction edge cases, run under the invariant monitor.

Three corners the paper's reverse engineering implies but the happy-path
tests never reach: the structural five-sub-entry ceiling at exact
capacity, re-fill behaviour after a PRS-level translation fault, and
cross-PASID aliasing in both the vulnerable (shared) and the proposed
partitioned configuration.
"""

import pytest

from repro.ats.devtlb import (
    SUB_ENTRIES_PER_ENGINE,
    DevTlbConfig,
    FieldType,
)
from repro.dsa.descriptor import make_memcpy
from repro.dsa.completion import CompletionStatus
from repro.errors import InvariantViolation
from repro.faults import FaultPlan, FaultSite
from repro.invariants import InvariantMonitor

from tests.conftest import build_host


def _monitored_host(**kwargs):
    host = build_host(**kwargs)
    monitor = InvariantMonitor(mode="strict")
    monitor.attach_device(host.device)
    return host, monitor


class TestExactCapacity:
    def test_eviction_at_exactly_five_sub_entries(self):
        """Filling all five field types holds occupancy at the ceiling:
        further traffic evicts within sub-entries, never grows a sixth."""
        host, monitor = _monitored_host()
        proc = host.new_process()
        tlb = host.device.devtlb
        for page, field in enumerate(FieldType):
            assert not tlb.access(0, field, 0x100 + page, pasid=proc.pasid)
        assert tlb.occupancy == SUB_ENTRIES_PER_ENGINE
        # A full second round on new pages: only evictions, same census.
        for page, field in enumerate(FieldType):
            assert not tlb.access(0, field, 0x900 + page, pasid=proc.pasid)
        assert tlb.occupancy == SUB_ENTRIES_PER_ENGINE
        fields = {row[1] for row in tlb.census() if row[0] == 0}
        assert len(fields) == SUB_ENTRIES_PER_ENGINE
        monitor.check_all()

    def test_capacity_is_per_engine(self):
        host, monitor = _monitored_host(engine_count=2)
        proc = host.new_process()
        tlb = host.device.devtlb
        for engine_id in (0, 1):
            for page, field in enumerate(FieldType):
                tlb.access(engine_id, field, 0x100 + page, pasid=proc.pasid)
        assert tlb.occupancy == 2 * SUB_ENTRIES_PER_ENGINE
        monitor.check_all()


class TestRefillAfterPrsFault:
    def test_refill_after_faulted_translation(self):
        """A descriptor killed by an injected PRS drop leaves no usable
        translation behind; the retry re-fills and then hits."""
        host, monitor = _monitored_host()
        host.device.prs.set_handler(lambda pasid, va, write: True)
        proc = host.new_process()
        src = proc.buffer(4096)
        dst = proc.buffer(4096)
        comp = proc.comp_record()
        base = proc.space.mmap(4096)
        proc.space.unmap(base)  # the page whose walk will fault

        injector = (
            FaultPlan(seed=5)
            .with_site(FaultSite.PRS_DROP, probability=1.0)
            .build_injector()
        )
        injector.attach_device(host.device)
        faulted = proc.portal.submit_wait(
            make_memcpy(proc.pasid, base, dst, 256, comp)
        )
        assert faulted.record.status is CompletionStatus.PAGE_FAULT

        # The fault cleared (page mapped back, injector gone): the same
        # stream re-fills the DevTLB and completes.
        host.device.prs.fault_injector = None
        proc.space.map_range(base, 4096)
        stats_before = host.device.devtlb.stats.snapshot()
        ok = proc.portal.submit_wait(
            make_memcpy(proc.pasid, base, dst, 256, comp)
        )
        assert ok.record.status is CompletionStatus.SUCCESS
        refill = host.device.devtlb.stats.delta(stats_before)
        assert refill.alloc_requests > refill.hits  # misses re-filled
        again = proc.portal.submit_wait(
            make_memcpy(proc.pasid, base, dst, 256, comp)
        )
        assert again.record.status is CompletionStatus.SUCCESS
        assert again.ticket.devtlb_hits > 0  # the re-filled entries now hit
        monitor.check_all()


class TestCrossPasidAliasing:
    def test_shared_subentry_aliases_across_pasids(self):
        """The vulnerable configuration: PASID is not part of the tag,
        so one tenant's fill services another tenant's lookup — the
        isolation gap the attack rides.  The monitor must stay silent:
        this is correct (modelled) hardware behaviour, not corruption."""
        host, monitor = _monitored_host()
        attacker = host.new_process()
        victim = host.new_process(base_va=0x20_0000_0000)
        tlb = host.device.devtlb
        assert not tlb.access(0, FieldType.SRC, 0x42, pasid=victim.pasid)
        assert tlb.access(0, FieldType.SRC, 0x42, pasid=attacker.pasid)
        monitor.check_all()

    def test_partitioned_subentries_do_not_alias(self):
        from repro.dsa.device import DsaDeviceConfig

        config = DsaDeviceConfig(devtlb=DevTlbConfig(pasid_partitioned=True))
        host, monitor = _monitored_host(config=config)
        attacker = host.new_process()
        victim = host.new_process(base_va=0x20_0000_0000)
        tlb = host.device.devtlb
        assert not tlb.access(0, FieldType.SRC, 0x42, pasid=victim.pasid)
        assert not tlb.access(0, FieldType.SRC, 0x42, pasid=attacker.pasid)
        assert tlb.access(0, FieldType.SRC, 0x42, pasid=victim.pasid)
        monitor.check_all()

    def test_partition_tag_corruption_trips_the_monitor(self):
        """In the partitioned configuration a slot tagged with a foreign
        PASID is exactly the corruption the devtlb checker exists for."""
        from repro.dsa.device import DsaDeviceConfig

        config = DsaDeviceConfig(devtlb=DevTlbConfig(pasid_partitioned=True))
        host, monitor = _monitored_host(config=config)
        victim = host.new_process()
        tlb = host.device.devtlb
        tlb.access(0, FieldType.SRC, 0x42, pasid=victim.pasid)
        key, slots = next(iter(tlb._entries.items()))
        assert key[2] == victim.pasid  # partitioned key carries the PASID
        slots[0].pasid = victim.pasid + 99  # the "bug"
        with pytest.raises(InvariantViolation) as info:
            monitor.check_all()
        assert info.value.invariant == "devtlb"
        assert "partitioned" in str(info.value)
