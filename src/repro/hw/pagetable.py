"""Per-process virtual address spaces.

Each guest process owns an :class:`AddressSpace` that maps 4 KiB (or 2 MiB)
virtual pages to physical frames.  The IOMMU's translation agent walks
these same tables when the DSA requests a translation (Section II-B of the
paper: with Shared Virtual Memory the device uses the *process's* page
table, selected by PASID).

The model is a flat page-number map rather than a literal 4-level radix
tree; the radix depth only matters for the *cost* of a walk, which is
captured by :attr:`AddressSpace.walk_cycles`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import TranslationFault
from repro.hw.memory import FrameRange, PhysicalMemory
from repro.hw.units import (
    HUGE_PAGE_SIZE,
    PAGE_SHIFT,
    PAGE_SIZE,
    align_up,
    is_aligned,
)

#: Cycles for a full 4-level page walk by the translation agent.  The paper
#: observes DevTLB misses costing ~500+ extra cycles end-to-end; the walk is
#: the dominant part of that.
DEFAULT_WALK_CYCLES = 420


@dataclass(frozen=True)
class Mapping:
    """One virtual-to-physical mapping at page granularity."""

    virtual_page: int
    physical_frame: int
    huge: bool
    writable: bool = True


class AddressSpace:
    """A process's virtual address space.

    Parameters
    ----------
    memory:
        Backing physical memory; mapped ranges are allocated from it.
    base_va:
        Start of the bump region used by :meth:`mmap`.  Distinct processes
        should use distinct bases only for readability — address spaces are
        fully independent.
    walk_cycles:
        Cost in cycles of one page-table walk (used by the IOMMU model).
    """

    def __init__(
        self,
        memory: PhysicalMemory,
        base_va: int = 0x10_0000_0000,
        walk_cycles: int = DEFAULT_WALK_CYCLES,
    ) -> None:
        self.memory = memory
        self.walk_cycles = walk_cycles
        self._next_va = base_va
        self._pages: dict[int, Mapping] = {}
        self._ranges: list[tuple[int, FrameRange]] = []

    # ------------------------------------------------------------------
    # Mapping
    # ------------------------------------------------------------------
    def map_range(self, va: int, size: int, huge: bool = False, writable: bool = True) -> None:
        """Map ``[va, va+size)`` to freshly allocated physical frames.

        *va* must be aligned to the backing page size and not collide with
        an existing mapping.
        """
        granule = HUGE_PAGE_SIZE if huge else PAGE_SIZE
        if not is_aligned(va, granule):
            raise ValueError(f"va {va:#x} is not aligned to {granule:#x}")
        size = align_up(size, granule)
        frames = self.memory.allocate(size, huge=huge)
        self._ranges.append((va, frames))
        for offset in range(0, size, PAGE_SIZE):
            vpn = (va + offset) >> PAGE_SHIFT
            if vpn in self._pages:
                raise ValueError(f"virtual page {vpn:#x} is already mapped")
            self._pages[vpn] = Mapping(
                virtual_page=vpn,
                physical_frame=(frames.base + offset) >> PAGE_SHIFT,
                huge=huge,
                writable=writable,
            )

    def mmap(self, size: int, huge: bool = False, writable: bool = True) -> int:
        """Allocate and map *size* bytes at a fresh virtual address."""
        granule = HUGE_PAGE_SIZE if huge else PAGE_SIZE
        va = align_up(self._next_va, granule)
        self.map_range(va, size, huge=huge, writable=writable)
        self._next_va = va + align_up(size, granule)
        return va

    def unmap(self, va: int) -> None:
        """Unmap the range previously mapped at *va* and free its frames."""
        for index, (range_va, frames) in enumerate(self._ranges):
            if range_va == va:
                for offset in range(0, frames.size, PAGE_SIZE):
                    self._pages.pop((va + offset) >> PAGE_SHIFT, None)
                self.memory.free(frames)
                del self._ranges[index]
                return
        raise ValueError(f"no mapping starts at {va:#x}")

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def translate(self, va: int, write: bool = False) -> int:
        """Translate virtual address *va* to a physical address.

        Raises :class:`~repro.errors.TranslationFault` for unmapped pages
        and for write access to read-only pages.
        """
        mapping = self._pages.get(va >> PAGE_SHIFT)
        if mapping is None:
            raise TranslationFault(va)
        if write and not mapping.writable:
            raise TranslationFault(va, f"write to read-only page at {va:#x}")
        return (mapping.physical_frame << PAGE_SHIFT) | (va & (PAGE_SIZE - 1))

    def is_mapped(self, va: int) -> bool:
        """Return ``True`` when the page containing *va* is mapped."""
        return (va >> PAGE_SHIFT) in self._pages

    def page_is_huge(self, va: int) -> bool:
        """Return ``True`` when *va* lies in a 2 MiB mapping."""
        mapping = self._pages.get(va >> PAGE_SHIFT)
        if mapping is None:
            raise TranslationFault(va)
        return mapping.huge

    # ------------------------------------------------------------------
    # Data access through the mapping
    # ------------------------------------------------------------------
    def write(self, va: int, data: bytes) -> None:
        """Write *data* at virtual address *va* (may span pages)."""
        size = len(data)
        offset = 0
        while offset < size:
            in_page = (va + offset) & (PAGE_SIZE - 1)
            chunk = PAGE_SIZE - in_page
            if chunk > size - offset:
                chunk = size - offset
            pa = self.translate(va + offset, write=True)
            self.memory.write(pa, data[offset : offset + chunk])
            offset += chunk

    def read(self, va: int, size: int) -> bytes:
        """Read *size* bytes from virtual address *va* (may span pages)."""
        parts: list[bytes] = []
        offset = 0
        while offset < size:
            in_page = (va + offset) & (PAGE_SIZE - 1)
            chunk = min(PAGE_SIZE - in_page, size - offset)
            pa = self.translate(va + offset)
            parts.append(self.memory.read(pa, chunk))
            offset += chunk
        return b"".join(parts)

    @property
    def mapped_pages(self) -> int:
        """Number of mapped 4 KiB virtual pages."""
        return len(self._pages)
