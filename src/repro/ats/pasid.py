"""PASID allocation and the PASID table.

With Shared Virtual Memory (SVM), the OS assigns a Process Address Space
ID when a process opens the device (maps a DSA portal).  The IOMMU's PASID
table then binds each PASID to that process's page table so the
Translation Agent can walk it on the device's behalf.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.hw.pagetable import AddressSpace

#: VT-d defines PASIDs as 20-bit values; 0 is reserved.
MAX_PASID = (1 << 20) - 1


class PasidAllocator:
    """Hands out unique PASIDs and recycles released ones."""

    def __init__(self) -> None:
        self._next = 1
        self._free: list[int] = []
        self._live: set[int] = set()

    def allocate(self) -> int:
        """Allocate a fresh PASID."""
        if self._free:
            pasid = self._free.pop()
        else:
            if self._next > MAX_PASID:
                raise ConfigurationError("PASID space exhausted")
            pasid = self._next
            self._next += 1
        self._live.add(pasid)
        return pasid

    def release(self, pasid: int) -> None:
        """Return *pasid* to the pool."""
        if pasid not in self._live:
            raise ConfigurationError(f"PASID {pasid} is not allocated")
        self._live.remove(pasid)
        self._free.append(pasid)

    def is_live(self, pasid: int) -> bool:
        """Return ``True`` while *pasid* is allocated."""
        return pasid in self._live

    @property
    def live_count(self) -> int:
        """Number of currently allocated PASIDs."""
        return len(self._live)


class PasidTable:
    """Binds PASIDs to process page tables (the scalable-mode PASID table).

    One table exists per IOMMU; the hypervisor installs entries when a VM's
    process opens the device.
    """

    def __init__(self) -> None:
        self._entries: dict[int, AddressSpace] = {}

    def bind(self, pasid: int, address_space: AddressSpace) -> None:
        """Install the page-table binding for *pasid*."""
        if pasid in self._entries:
            raise ConfigurationError(f"PASID {pasid} is already bound")
        self._entries[pasid] = address_space

    def unbind(self, pasid: int) -> None:
        """Remove the binding for *pasid*."""
        if self._entries.pop(pasid, None) is None:
            raise ConfigurationError(f"PASID {pasid} is not bound")

    def lookup(self, pasid: int) -> AddressSpace:
        """Return the page table bound to *pasid*."""
        try:
            return self._entries[pasid]
        except KeyError:
            raise ConfigurationError(
                f"PASID {pasid} has no page-table binding"
            ) from None

    def is_bound(self, pasid: int) -> bool:
        """Return ``True`` when *pasid* has a binding."""
        return pasid in self._entries

    def __len__(self) -> int:
        return len(self._entries)
