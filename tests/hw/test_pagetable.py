"""Unit and property tests for virtual address spaces."""

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import TranslationFault
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import AddressSpace
from repro.hw.units import HUGE_PAGE_SIZE, MIB, PAGE_SIZE


@pytest.fixture
def memory():
    return PhysicalMemory(total_bytes=256 * MIB)


@pytest.fixture
def space(memory):
    return AddressSpace(memory)


class TestMapping:
    def test_mmap_returns_aligned_va(self, space):
        va = space.mmap(PAGE_SIZE)
        assert va % PAGE_SIZE == 0

    def test_mmap_huge_returns_huge_aligned_va(self, space):
        va = space.mmap(HUGE_PAGE_SIZE, huge=True)
        assert va % HUGE_PAGE_SIZE == 0
        assert space.page_is_huge(va)

    def test_translate_unmapped_faults(self, space):
        with pytest.raises(TranslationFault):
            space.translate(0xDEAD_0000)

    def test_translate_preserves_offset(self, space):
        va = space.mmap(PAGE_SIZE)
        pa = space.translate(va + 0x123)
        assert pa % PAGE_SIZE == 0x123

    def test_consecutive_mmaps_disjoint(self, space):
        first = space.mmap(3 * PAGE_SIZE)
        second = space.mmap(PAGE_SIZE)
        assert second >= first + 3 * PAGE_SIZE

    def test_map_range_rejects_unaligned(self, space):
        with pytest.raises(ValueError):
            space.map_range(0x1001, PAGE_SIZE)

    def test_map_range_rejects_overlap(self, space):
        space.map_range(0x10_0000, PAGE_SIZE)
        with pytest.raises(ValueError):
            space.map_range(0x10_0000, PAGE_SIZE)

    def test_colliding_map_range_changes_nothing(self, space, memory):
        space.map_range(0x20_2000, PAGE_SIZE)
        before = (space.mapped_pages, memory.allocated_bytes, len(space._ranges))
        with pytest.raises(ValueError, match="virtual page 0x202 is already mapped"):
            space.map_range(0x20_0000, 4 * PAGE_SIZE)
        assert (space.mapped_pages, memory.allocated_bytes, len(space._ranges)) == before
        assert not space.is_mapped(0x20_0000)

    def test_mapping_cost_does_not_grow_with_size(self, memory):
        """Mapping is per range: 32 MiB costs no more Python calls than 8 KiB."""

        def calls_to_map(size):
            space = AddressSpace(memory)
            calls = 0

            def count(frame, event, arg):
                nonlocal calls
                if event == "call":
                    calls += 1

            sys.setprofile(count)
            try:
                space.mmap(size)
            finally:
                sys.setprofile(None)
            assert space.mapped_pages == size // PAGE_SIZE
            return calls

        assert calls_to_map(32 * MIB) <= calls_to_map(2 * PAGE_SIZE)

    def test_unmap_releases_pages(self, space):
        va = space.mmap(2 * PAGE_SIZE)
        assert space.is_mapped(va)
        space.unmap(va)
        assert not space.is_mapped(va)
        with pytest.raises(TranslationFault):
            space.translate(va)

    def test_unmap_unknown_va_rejected(self, space):
        with pytest.raises(ValueError):
            space.unmap(0x123000)

    def test_read_only_mapping_rejects_write(self, space):
        va = space.mmap(PAGE_SIZE, writable=False)
        space.translate(va)  # read is fine
        with pytest.raises(TranslationFault):
            space.translate(va, write=True)

    def test_page_is_huge_faults_when_unmapped(self, space):
        with pytest.raises(TranslationFault):
            space.page_is_huge(0x999000)

    def test_mapped_pages_counts_4k_units(self, space):
        space.mmap(HUGE_PAGE_SIZE, huge=True)
        assert space.mapped_pages == HUGE_PAGE_SIZE // PAGE_SIZE


class TestDataThroughMapping:
    def test_write_read_roundtrip(self, space):
        va = space.mmap(PAGE_SIZE)
        space.write(va, b"payload")
        assert space.read(va, 7) == b"payload"

    def test_cross_page_write(self, space):
        va = space.mmap(2 * PAGE_SIZE)
        data = b"z" * 200
        space.write(va + PAGE_SIZE - 100, data)
        assert space.read(va + PAGE_SIZE - 100, 200) == data

    def test_distinct_spaces_are_isolated(self, memory):
        a = AddressSpace(memory, base_va=0x10_0000_0000)
        b = AddressSpace(memory, base_va=0x10_0000_0000)
        va_a = a.mmap(PAGE_SIZE)
        va_b = b.mmap(PAGE_SIZE)
        assert va_a == va_b  # same VA ...
        a.write(va_a, b"AAAA")
        b.write(va_b, b"BBBB")
        assert a.read(va_a, 4) == b"AAAA"  # ... different frames
        assert b.read(va_b, 4) == b"BBBB"


class TestAddressSpaceProperties:
    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=10))
    @settings(max_examples=30, deadline=None)
    def test_every_mapped_page_translates(self, page_counts):
        memory = PhysicalMemory(total_bytes=256 * MIB)
        space = AddressSpace(memory)
        for pages in page_counts:
            va = space.mmap(pages * PAGE_SIZE)
            for i in range(pages):
                pa = space.translate(va + i * PAGE_SIZE)
                assert pa % PAGE_SIZE == 0

    @given(st.binary(min_size=1, max_size=2048), st.integers(min_value=0, max_value=4096))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_any_payload(self, payload, offset):
        memory = PhysicalMemory(total_bytes=64 * MIB)
        space = AddressSpace(memory)
        va = space.mmap(2 * PAGE_SIZE)
        space.write(va + offset, payload)
        assert space.read(va + offset, len(payload)) == payload
