"""Unit and property tests for the PASID-tagged IOTLB."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ats.iotlb import IoTlb


class TestIoTlbBasics:
    def test_miss_then_hit(self):
        tlb = IoTlb()
        assert tlb.lookup(1, 0x100) is None
        tlb.insert(1, 0x100, 0x55)
        assert tlb.lookup(1, 0x100) == 0x55
        assert tlb.stats.hits == 1
        assert tlb.stats.misses == 1

    def test_pasid_isolation(self):
        """VT-d scalable mode: entries of one PASID are invisible to another."""
        tlb = IoTlb()
        tlb.insert(1, 0x100, 0x55)
        assert tlb.lookup(2, 0x100) is None

    def test_invalidate_pasid_is_selective(self):
        tlb = IoTlb()
        tlb.insert(1, 0x100, 0x55)
        tlb.insert(2, 0x200, 0x66)
        assert tlb.invalidate_pasid(1) == 1
        assert tlb.lookup(1, 0x100) is None
        assert tlb.lookup(2, 0x200) == 0x66

    def test_invalidate_all(self):
        tlb = IoTlb()
        tlb.insert(1, 0x100, 0x55)
        tlb.insert(2, 0x200, 0x66)
        tlb.invalidate_all()
        assert tlb.occupancy == 0

    def test_lru_eviction_within_set(self):
        tlb = IoTlb(sets=1, ways=2)
        tlb.insert(1, 0xA, 1)
        tlb.insert(1, 0xB, 2)
        tlb.lookup(1, 0xA)  # A becomes MRU
        tlb.insert(1, 0xC, 3)  # evicts B
        assert tlb.lookup(1, 0xA) == 1
        assert tlb.lookup(1, 0xB) is None
        assert tlb.lookup(1, 0xC) == 3
        # Re-inserting an existing key makes it MRU, like a hit does.
        tlb.insert(1, 0xA, 4)  # C is now LRU
        tlb.insert(1, 0xD, 5)  # evicts C
        assert tlb.lookup(1, 0xC) is None
        assert tlb.lookup(1, 0xA) == 4
        assert tlb.lookup(1, 0xD) == 5

    def test_reinsert_updates_frame(self):
        tlb = IoTlb()
        tlb.insert(1, 0x100, 0x55)
        tlb.insert(1, 0x100, 0x77)
        assert tlb.lookup(1, 0x100) == 0x77
        assert tlb.occupancy == 1

    def test_set_indexing_uses_low_bits(self):
        tlb = IoTlb(sets=4, ways=1)
        tlb.insert(1, 0b000, 1)
        tlb.insert(1, 0b100, 2)  # same set (low 2 bits), evicts first
        assert tlb.lookup(1, 0b000) is None
        assert tlb.lookup(1, 0b100) == 2

    def test_hit_rate(self):
        tlb = IoTlb()
        assert tlb.stats.hit_rate == 0.0
        tlb.insert(1, 5, 9)
        tlb.lookup(1, 5)
        tlb.lookup(1, 6)
        assert tlb.stats.hit_rate == pytest.approx(0.5)

    @pytest.mark.parametrize("sets", [0, 3, -4])
    def test_invalid_sets_rejected(self, sets):
        with pytest.raises(ValueError):
            IoTlb(sets=sets)

    def test_invalid_ways_rejected(self):
        with pytest.raises(ValueError):
            IoTlb(ways=0)


class TestIoTlbProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=3),  # pasid
                st.integers(min_value=0, max_value=255),  # vpn
            ),
            min_size=1,
            max_size=200,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_occupancy_never_exceeds_capacity(self, accesses):
        tlb = IoTlb(sets=4, ways=2)
        for pasid, vpn in accesses:
            tlb.insert(pasid, vpn, vpn + 1000)
        assert tlb.occupancy <= 4 * 2

    @given(
        st.lists(
            st.tuples(st.integers(1, 3), st.integers(0, 63)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_lookup_returns_last_inserted_frame(self, inserts):
        tlb = IoTlb(sets=64, ways=64)  # large enough: no evictions
        latest = {}
        for i, (pasid, vpn) in enumerate(inserts):
            tlb.insert(pasid, vpn, i)
            latest[(pasid, vpn)] = i
        for (pasid, vpn), frame in latest.items():
            assert tlb.lookup(pasid, vpn) == frame
