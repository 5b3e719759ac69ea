"""Physical memory and the frame allocator.

The model stores real bytes (sparsely, one ``bytearray`` per touched 4 KiB
frame) so that DSA operations — memcpy, memcmp, dualcast, CRC, delta — have
genuine data semantics and can be checked for correctness, not just timing.

Frames are handed out by a bump allocator with an explicit free list.
Huge (2 MiB) allocations are satisfied from 2 MiB-aligned runs of the same
physical space, mirroring how a host would back transparent huge pages.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import OutOfMemoryError
from repro.hw.units import HUGE_PAGE_SIZE, PAGE_SHIFT, PAGE_SIZE, align_up


@dataclass(frozen=True)
class FrameRange:
    """A contiguous physical allocation.

    Attributes
    ----------
    base:
        Physical address of the first byte.
    size:
        Length in bytes (always a multiple of the backing page size).
    huge:
        Whether the range is backed by 2 MiB pages.
    """

    base: int
    size: int
    huge: bool = False

    @property
    def end(self) -> int:
        """One past the last physical address of the range."""
        return self.base + self.size

    def __contains__(self, pa: int) -> bool:
        return self.base <= pa < self.end


class PhysicalMemory:
    """Byte-addressable physical memory with a frame allocator.

    Parameters
    ----------
    total_bytes:
        Size of the physical address space.  Allocations beyond this raise
        :class:`~repro.errors.OutOfMemoryError`.
    """

    def __init__(self, total_bytes: int = 4 * 1024 * 1024 * 1024) -> None:
        if total_bytes < PAGE_SIZE:
            raise ValueError("physical memory must hold at least one page")
        self.total_bytes = total_bytes
        self._frames: dict[int, bytearray] = {}
        self._next_free = 0
        self._free_small: list[int] = []
        self._allocated: dict[int, FrameRange] = {}

    # ------------------------------------------------------------------
    # Allocation
    # ------------------------------------------------------------------
    def allocate(self, size: int, huge: bool = False) -> FrameRange:
        """Allocate a physically contiguous range of at least *size* bytes.

        The returned range is page-aligned (2 MiB-aligned when *huge*).
        """
        if size <= 0:
            raise ValueError(f"allocation size must be positive, got {size}")
        granule = HUGE_PAGE_SIZE if huge else PAGE_SIZE
        size = align_up(size, granule)
        if not huge and size == PAGE_SIZE and self._free_small:
            base = self._free_small.pop()
        else:
            base = align_up(self._next_free, granule)
            if base + size > self.total_bytes:
                raise OutOfMemoryError(
                    f"cannot allocate {size} bytes: "
                    f"{self.total_bytes - self._next_free} bytes remain"
                )
            self._next_free = base + size
        rng = FrameRange(base=base, size=size, huge=huge)
        self._allocated[base] = rng
        return rng

    def free(self, rng: FrameRange) -> None:
        """Return *rng* to the allocator and drop its backing bytes."""
        if self._allocated.pop(rng.base, None) is None:
            raise ValueError(f"range at {rng.base:#x} was not allocated")
        for frame in range(rng.base >> 12, rng.end >> 12):
            self._frames.pop(frame, None)
        if not rng.huge and rng.size == PAGE_SIZE:
            self._free_small.append(rng.base)

    @property
    def allocated_bytes(self) -> int:
        """Total bytes currently allocated."""
        return sum(r.size for r in self._allocated.values())

    # ------------------------------------------------------------------
    # Data access
    # ------------------------------------------------------------------
    def write(self, pa: int, data: bytes) -> None:
        """Write *data* starting at physical address *pa*."""
        size = len(data)
        if pa < 0 or pa + size > self.total_bytes:
            raise self._bounds_error(pa, size)
        frames = self._frames
        offset = 0
        while offset < size:
            address = pa + offset
            in_frame = address & (PAGE_SIZE - 1)
            chunk = PAGE_SIZE - in_frame
            if chunk > size - offset:
                chunk = size - offset
            frame = frames.get(address >> PAGE_SHIFT)
            if frame is None:
                frame = frames[address >> PAGE_SHIFT] = bytearray(PAGE_SIZE)
            frame[in_frame : in_frame + chunk] = data[offset : offset + chunk]
            offset += chunk

    def read(self, pa: int, size: int) -> bytes:
        """Read *size* bytes starting at physical address *pa*."""
        if pa < 0 or size < 0 or pa + size > self.total_bytes:
            raise self._bounds_error(pa, size)
        frames = self._frames
        parts: list[bytes] = []
        offset = 0
        while offset < size:
            address = pa + offset
            in_frame = address & (PAGE_SIZE - 1)
            chunk = PAGE_SIZE - in_frame
            if chunk > size - offset:
                chunk = size - offset
            frame = frames.get(address >> PAGE_SHIFT)
            if frame is None:
                parts.append(bytes(chunk))
            else:
                parts.append(bytes(frame[in_frame : in_frame + chunk]))
            offset += chunk
        return b"".join(parts)

    def fill(self, pa: int, size: int, value: int) -> None:
        """Set *size* bytes at *pa* to *value* (memset semantics)."""
        if not 0 <= value <= 0xFF:
            raise ValueError(f"fill value must be a byte, got {value}")
        self.write(pa, bytes([value]) * size)

    def _bounds_error(self, pa: int, size: int) -> ValueError:
        return ValueError(
            f"physical access [{pa:#x}, {pa + size:#x}) is out of bounds "
            f"for {self.total_bytes:#x}-byte memory"
        )
