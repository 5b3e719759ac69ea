"""Unit and property tests for the reverse-engineered DevTLB.

These tests encode the paper's Takeaways 1 and 2 directly: field-type
indexing, single-slot sub-entries, no cross-field interference, page-size
blindness, and the absent PASID isolation that enables the attack.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ats.devtlb import (
    SUB_ENTRIES_PER_ENGINE,
    DevTlb,
    DevTlbConfig,
    FieldType,
)
from repro.faults.canary import CANARY_DEVTLB_EVICT, CANARY_ENV


@pytest.fixture
def tlb():
    return DevTlb()


class TestIndexing:
    def test_five_field_types(self):
        assert SUB_ENTRIES_PER_ENGINE == 5
        assert {f.value for f in FieldType} == {"src", "src2", "dst", "dst2", "comp"}

    def test_miss_then_hit_same_page(self, tlb):
        assert not tlb.access(0, FieldType.SRC, 0x100, pasid=1)
        assert tlb.access(0, FieldType.SRC, 0x100, pasid=1)

    def test_single_slot_eviction(self, tlb):
        """Listing 2: accessing a second page evicts the first directly."""
        tlb.access(0, FieldType.COMP, 0x100, pasid=1)
        tlb.access(0, FieldType.COMP, 0x101, pasid=1)
        assert not tlb.access(0, FieldType.COMP, 0x100, pasid=1)

    def test_fields_are_independent_sub_entries(self, tlb):
        """Listing 3: dst survives although src changed page."""
        tlb.access(0, FieldType.SRC, 0x100, pasid=1)
        tlb.access(0, FieldType.DST, 0x200, pasid=1)
        tlb.access(0, FieldType.SRC, 0x300, pasid=1)  # new src page
        assert tlb.access(0, FieldType.DST, 0x200, pasid=1)  # dst still hits

    def test_src2_and_dst_do_not_interfere(self, tlb):
        """Listing 4: same page via src2 then dst gives only one hit (src)."""
        tlb.access(0, FieldType.SRC, 0x100, pasid=1)
        tlb.access(0, FieldType.SRC2, 0x200, pasid=1)
        # memcpy: src hits, dst misses even though dst page == src2 page
        assert tlb.access(0, FieldType.SRC, 0x100, pasid=1)
        assert not tlb.access(0, FieldType.DST, 0x200, pasid=1)

    def test_engines_are_isolated(self, tlb):
        """E2: separate engines never share sub-entries."""
        tlb.access(0, FieldType.SRC, 0x100, pasid=1)
        assert not tlb.access(1, FieldType.SRC, 0x100, pasid=2)
        assert tlb.access(0, FieldType.SRC, 0x100, pasid=1)

    def test_dualcast_dst_and_dst2_separate(self, tlb):
        tlb.access(0, FieldType.DST, 0x10, pasid=1)
        tlb.access(0, FieldType.DST2, 0x20, pasid=1)
        assert tlb.access(0, FieldType.DST, 0x10, pasid=1)
        assert tlb.access(0, FieldType.DST2, 0x20, pasid=1)


class TestPasidIsolation:
    def test_no_pasid_isolation_by_default(self, tlb):
        """Takeaway 2: a different PASID hits the same sub-entry."""
        tlb.access(0, FieldType.COMP, 0x100, pasid=1)
        assert tlb.access(0, FieldType.COMP, 0x100, pasid=2)

    def test_cross_pasid_eviction(self, tlb):
        """E0/E1: the victim's access evicts the attacker's entry."""
        tlb.access(0, FieldType.COMP, 0x100, pasid=1)  # attacker primes
        tlb.access(0, FieldType.COMP, 0x999, pasid=2)  # victim evicts
        assert not tlb.access(0, FieldType.COMP, 0x100, pasid=1)

    def test_partitioned_config_blocks_cross_pasid_hit(self):
        tlb = DevTlb(DevTlbConfig(pasid_partitioned=True))
        tlb.access(0, FieldType.COMP, 0x100, pasid=1)
        assert not tlb.access(0, FieldType.COMP, 0x100, pasid=2)

    def test_partitioned_config_same_pasid_still_hits(self):
        tlb = DevTlb(DevTlbConfig(pasid_partitioned=True))
        tlb.access(0, FieldType.COMP, 0x100, pasid=1)
        # the cross-PASID access above replaced nothing for pasid 1 ...
        tlb2 = DevTlb(DevTlbConfig(pasid_partitioned=True, slots_per_subentry=2))
        tlb2.access(0, FieldType.COMP, 0x100, pasid=1)
        tlb2.access(0, FieldType.COMP, 0x100, pasid=2)
        assert tlb2.access(0, FieldType.COMP, 0x100, pasid=1)


class TestPageSizes:
    def test_huge_page_evicts_small_entry(self, tlb):
        """No dedicated entries per page size (Section IV-B)."""
        tlb.access(0, FieldType.SRC, 0x100, pasid=1)
        tlb.access(0, FieldType.SRC, 0x8000, pasid=1, huge=True)
        assert not tlb.access(0, FieldType.SRC, 0x100, pasid=1)

    def test_huge_entry_covers_whole_huge_page(self, tlb):
        tlb.access(0, FieldType.SRC, 0x200, pasid=1, huge=True)
        base = 0x200 - (0x200 % 512)
        assert tlb.access(0, FieldType.SRC, base + 511, pasid=1)

    def test_page_granularity_ignores_low_bits(self, tlb):
        """Offsets below 4 KiB map to the same page: two hits in Listing 2."""
        tlb.access(0, FieldType.COMP, 0x100, pasid=1)
        assert tlb.access(0, FieldType.COMP, 0x100, pasid=1)
        assert tlb.access(0, FieldType.COMP, 0x100, pasid=1)


class TestCounters:
    def test_counters_match_events(self, tlb):
        tlb.access(0, FieldType.SRC, 1, pasid=1)  # miss -> alloc
        tlb.access(0, FieldType.SRC, 1, pasid=1)  # hit
        tlb.access(0, FieldType.SRC, 2, pasid=1)  # miss -> alloc
        assert tlb.stats.alloc_requests == 3  # EV_ATC_ALLOC: all requests
        assert tlb.stats.hits == 1  # EV_ATC_HIT_PREV
        assert tlb.stats.no_alloc == 1  # EV_ATC_NO_ALLOC: no replacement

    def test_per_engine_counters(self, tlb):
        tlb.access(0, FieldType.SRC, 1, pasid=1)
        tlb.access(1, FieldType.SRC, 1, pasid=1)
        tlb.access(1, FieldType.SRC, 1, pasid=1)
        assert tlb.engine_stats(0).alloc_requests == 1
        assert tlb.engine_stats(1).hits == 1

    def test_snapshot_delta(self, tlb):
        tlb.access(0, FieldType.SRC, 1, pasid=1)
        before = tlb.stats.snapshot()
        tlb.access(0, FieldType.SRC, 1, pasid=1)
        delta = tlb.stats.delta(before)
        assert delta.hits == 1
        assert delta.alloc_requests == 1

    def test_fill_counts_skipped_pages_and_caches_the_last(self, tlb):
        """A 3-page stream: access counts page 1, fill the other two."""
        tlb.access(0, FieldType.SRC, 1, pasid=1, stream_pages=3)
        tlb.fill(0, FieldType.SRC, 3, pasid=1, skipped=2)
        assert tlb.stats.alloc_requests == 3  # EV_ATC_ALLOC: every page
        assert tlb.engine_stats(0).alloc_requests == 3
        assert tlb.stats.hits == tlb.stats.no_alloc == 0
        assert tlb.cached_pages(0, FieldType.SRC) == [3]

    def test_peek_does_not_mutate(self, tlb):
        tlb.access(0, FieldType.SRC, 1, pasid=1)
        before = tlb.stats.snapshot()
        assert tlb.peek(0, FieldType.SRC, 1, pasid=1)
        assert not tlb.peek(0, FieldType.SRC, 2, pasid=1)
        assert tlb.stats.delta(before).alloc_requests == 0


class TestInvalidation:
    def test_invalidate_engine(self, tlb):
        tlb.access(0, FieldType.SRC, 1, pasid=1)
        tlb.access(1, FieldType.SRC, 1, pasid=1)
        tlb.invalidate_engine(0)
        assert not tlb.peek(0, FieldType.SRC, 1, pasid=1)
        assert tlb.peek(1, FieldType.SRC, 1, pasid=1)

    def test_invalidate_all(self, tlb):
        tlb.access(0, FieldType.SRC, 1, pasid=1)
        tlb.invalidate_all()
        assert tlb.occupancy == 0

    def test_cached_pages(self, tlb):
        tlb.access(0, FieldType.SRC, 0x42, pasid=1)
        assert tlb.cached_pages(0, FieldType.SRC) == [0x42]
        assert tlb.cached_pages(0, FieldType.DST) == []
        assert tlb.cached_pages(9, FieldType.SRC) == []


class TestConfig:
    def test_invalid_slot_count_rejected(self):
        with pytest.raises(ValueError):
            DevTlbConfig(slots_per_subentry=0)

    def test_multi_slot_lru(self):
        tlb = DevTlb(DevTlbConfig(slots_per_subentry=2))
        tlb.access(0, FieldType.SRC, 1, pasid=1)
        tlb.access(0, FieldType.SRC, 2, pasid=1)
        tlb.access(0, FieldType.SRC, 1, pasid=1)  # 1 becomes MRU
        tlb.access(0, FieldType.SRC, 3, pasid=1)  # evicts 2
        assert tlb.peek(0, FieldType.SRC, 1, pasid=1)
        assert not tlb.peek(0, FieldType.SRC, 2, pasid=1)
        assert tlb.peek(0, FieldType.SRC, 3, pasid=1)


class TestCanaryArming:
    def test_devtlb_evict_canary_is_read_at_construction(self, monkeypatch):
        monkeypatch.setenv(CANARY_ENV, CANARY_DEVTLB_EVICT)
        armed = DevTlb()
        monkeypatch.delenv(CANARY_ENV)
        clean = DevTlb()
        monkeypatch.setenv(CANARY_ENV, CANARY_DEVTLB_EVICT)
        for tlb in (armed, clean):
            tlb.access(0, FieldType.SRC, 1, pasid=1)
            tlb.access(0, FieldType.SRC, 2, pasid=1)
        assert armed.occupancy == 2  # the armed off-by-one overfills
        assert clean.occupancy == 1


class TestDevTlbProperties:
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 3),  # engine
                st.sampled_from(list(FieldType)),
                st.integers(0, 50),  # page
                st.integers(1, 4),  # pasid
            ),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_occupancy_bounded_by_structure(self, accesses):
        tlb = DevTlb()
        engines = {engine for engine, *_ in accesses}
        for engine, ftype, page, pasid in accesses:
            tlb.access(engine, ftype, page, pasid=pasid)
        assert tlb.occupancy <= len(engines) * SUB_ENTRIES_PER_ENGINE

    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(1, 4)),
            min_size=2,
            max_size=100,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_hit_iff_same_page_as_previous_access(self, accesses):
        """Single-slot sub-entry: a hit happens iff the page repeats."""
        tlb = DevTlb()
        previous_page = None
        for page, pasid in accesses:
            hit = tlb.access(0, FieldType.COMP, page, pasid=pasid)
            assert hit == (page == previous_page)
            previous_page = page

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(1, 3)),
            min_size=1,
            max_size=100,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_counter_invariants(self, accesses):
        tlb = DevTlb()
        for page, pasid in accesses:
            tlb.access(0, FieldType.SRC, page, pasid=pasid)
        stats = tlb.stats
        assert stats.alloc_requests == len(accesses)
        assert stats.hits == stats.no_alloc  # single-slot: hit <=> no replace
        assert stats.hits <= stats.alloc_requests
