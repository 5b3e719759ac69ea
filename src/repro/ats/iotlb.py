"""The IOMMU's IOTLB.

Under VT-d scalable mode the IOTLB is tagged with the PASID, which is
exactly the isolation the paper says mitigates *traditional* IOTLB attacks
(DevIOus-style).  The model is a set-associative cache with true-LRU
replacement within each set, indexed by the low bits of the virtual page
number, and supports the per-PASID invalidations VT-d exposes.

DSAssassin works *despite* this structure being safe — the leak lives in
the DevTLB, which sits on the device side of the link.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class IoTlbStats:
    """Hit/miss counters."""

    hits: int = 0
    misses: int = 0
    invalidations: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups that hit (0 when no lookups yet)."""
        return self.hits / self.lookups if self.lookups else 0.0


class IoTlb:
    """PASID-tagged set-associative IOTLB with LRU replacement.

    Parameters
    ----------
    sets:
        Number of sets (power of two).
    ways:
        Associativity.
    lookup_cycles:
        Cost of one IOTLB lookup inside the translation agent.
    """

    def __init__(self, sets: int = 64, ways: int = 8, lookup_cycles: int = 28) -> None:
        if sets <= 0 or sets & (sets - 1):
            raise ValueError(f"sets must be a positive power of two, got {sets}")
        if ways <= 0:
            raise ValueError(f"ways must be positive, got {ways}")
        self.sets = sets
        self.ways = ways
        self.lookup_cycles = lookup_cycles
        # One insertion-ordered dict per set, keyed ``(pasid, vpn)``: the
        # PASID tag makes entries per-process, and key order is the LRU
        # order (first key = LRU, last = MRU).
        self._sets: list[dict[tuple[int, int], int]] = [{} for _ in range(sets)]
        self.stats = IoTlbStats()

    def lookup(self, pasid: int, virtual_page: int) -> int | None:
        """Look up a translation; return the physical frame or ``None``."""
        cache_set = self._sets[virtual_page & (self.sets - 1)]
        key = (pasid, virtual_page)
        frame = cache_set.pop(key, None)
        if frame is None:
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        cache_set[key] = frame  # re-inserted: now the MRU key
        return frame

    def insert(self, pasid: int, virtual_page: int, physical_frame: int) -> None:
        """Install a translation as MRU, evicting the set's LRU entry if full."""
        cache_set = self._sets[virtual_page & (self.sets - 1)]
        key = (pasid, virtual_page)
        if cache_set.pop(key, None) is None and len(cache_set) >= self.ways:
            del cache_set[next(iter(cache_set))]
        cache_set[key] = physical_frame

    def invalidate_pasid(self, pasid: int) -> int:
        """Drop every entry of *pasid* (VT-d PASID-selective invalidation)."""
        dropped = 0
        for cache_set in self._sets:
            for key in [key for key in cache_set if key[0] == pasid]:
                del cache_set[key]
                dropped += 1
        self.stats.invalidations += dropped
        return dropped

    def invalidate_all(self) -> None:
        """Global invalidation."""
        for cache_set in self._sets:
            self.stats.invalidations += len(cache_set)
            cache_set.clear()

    @property
    def occupancy(self) -> int:
        """Number of valid entries."""
        return sum(len(cache_set) for cache_set in self._sets)
