"""The Translation Agent (TA).

On a DevTLB miss the device sends an ATS translation request across the
link; the TA selects the process page table via the PASID, consults its own
IOTLB, walks the page table on an IOTLB miss, and returns the physical
address (Section II-B, steps 1-3).  The returned
:class:`TranslationResult` carries the cycle cost so the engine model can
charge it to the descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ats.iotlb import IoTlb
from repro.ats.pasid import PasidTable
from repro.ats.prs import PageRequestService
from repro.errors import TranslationFault
from repro.hw.units import PAGE_SHIFT, PAGE_SIZE


@dataclass(frozen=True)
class TranslationResult:
    """Outcome of one ATS translation request."""

    physical_address: int
    cycles: int
    iotlb_hit: bool
    faulted: bool = False


class TranslationAgent:
    """Services ATS translation requests on behalf of the IOMMU.

    Parameters
    ----------
    pasid_table:
        The PASID → page-table bindings.
    iotlb:
        The agent's PASID-tagged IOTLB.
    prs:
        Page Request Service used when a walk faults.
    """

    def __init__(
        self,
        pasid_table: PasidTable,
        iotlb: IoTlb | None = None,
        prs: PageRequestService | None = None,
    ) -> None:
        self.pasid_table = pasid_table
        self.iotlb = iotlb or IoTlb()
        self.prs = prs or PageRequestService()
        self.walks = 0
        self.invariant_monitor = None

    def translate(
        self, pasid: int, virtual_address: int, write: bool = False, timestamp: int = 0
    ) -> TranslationResult:
        """Translate *virtual_address* in the PASID's address space.

        The cost is the IOTLB lookup plus, on a miss, a full page walk.  A
        faulting walk goes through the PRS; if the PRS handler resolves the
        fault the walk is retried once.  A faulting walk is narrated by
        the PRS's ``prs`` event instead of a ``translate`` event.
        """
        space = self.pasid_table.lookup(pasid)
        vpn = virtual_address >> PAGE_SHIFT
        cycles = self.iotlb.lookup_cycles
        frame = self.iotlb.lookup(pasid, vpn)
        if frame is not None:
            if self.invariant_monitor is not None:
                self.invariant_monitor.note("translate", pasid=pasid, outcome="iotlb-hit")
            pa = (frame << PAGE_SHIFT) | (virtual_address & (PAGE_SIZE - 1))
            return TranslationResult(physical_address=pa, cycles=cycles, iotlb_hit=True)

        faulted = False
        cycles += space.walk_cycles
        self.walks += 1
        try:
            pa = space.translate(virtual_address, write=write)
            if self.invariant_monitor is not None:
                self.invariant_monitor.note("translate", pasid=pasid, outcome="walk")
        except TranslationFault:
            faulted = True
            cycles += self.prs.report(pasid, virtual_address, write, timestamp)
            cycles += space.walk_cycles
            self.walks += 1
            pa = space.translate(virtual_address, write=write)

        self.iotlb.insert(pasid, vpn, pa >> PAGE_SHIFT)
        return TranslationResult(
            physical_address=pa, cycles=cycles, iotlb_hit=False, faulted=faulted
        )

    def invalidate_pasid(self, pasid: int) -> None:
        """PASID-selective invalidation of the agent's IOTLB."""
        self.iotlb.invalidate_pasid(pasid)
