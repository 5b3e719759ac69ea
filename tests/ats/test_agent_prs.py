"""Unit tests for the Translation Agent and the Page Request Service."""

import pytest

from repro.ats.agent import TranslationAgent
from repro.ats.pasid import PasidTable
from repro.ats.prs import PAGE_REQUEST_CYCLES, PageRequestService
from repro.errors import ConfigurationError, TranslationFault
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import AddressSpace
from repro.hw.units import PAGE_SIZE


@pytest.fixture
def memory():
    return PhysicalMemory()


@pytest.fixture
def space(memory):
    return AddressSpace(memory)


@pytest.fixture
def agent(space):
    table = PasidTable()
    table.bind(1, space)
    return TranslationAgent(table)


class TestTranslationAgent:
    def test_translation_matches_page_table(self, agent, space):
        va = space.mmap(PAGE_SIZE)
        result = agent.translate(1, va + 0x40)
        assert result.physical_address == space.translate(va + 0x40)

    def test_first_translation_walks(self, agent, space):
        va = space.mmap(PAGE_SIZE)
        result = agent.translate(1, va)
        assert not result.iotlb_hit
        assert result.cycles >= space.walk_cycles
        assert agent.walks == 1

    def test_second_translation_hits_iotlb(self, agent, space):
        va = space.mmap(PAGE_SIZE)
        agent.translate(1, va)
        result = agent.translate(1, va)
        assert result.iotlb_hit
        assert result.cycles == agent.iotlb.lookup_cycles
        assert agent.walks == 1

    def test_unknown_pasid_rejected(self, agent):
        with pytest.raises(ConfigurationError):
            agent.translate(99, 0x1000)

    def test_unmapped_address_faults_without_handler(self, agent):
        with pytest.raises(TranslationFault):
            agent.translate(1, 0xDEAD_BEEF_000)

    def test_prs_handler_resolves_fault(self, space):
        table = PasidTable()
        table.bind(1, space)

        def handler(pasid, va, write):
            space.map_range(va & ~(PAGE_SIZE - 1), PAGE_SIZE)
            return True

        agent = TranslationAgent(table, prs=PageRequestService(handler))
        result = agent.translate(1, 0x7000_0000)
        assert result.faulted
        assert result.cycles >= PAGE_REQUEST_CYCLES
        assert agent.prs.resolved == 1

    def test_invalidate_pasid_forces_rewalk(self, agent, space):
        va = space.mmap(PAGE_SIZE)
        agent.translate(1, va)
        agent.invalidate_pasid(1)
        result = agent.translate(1, va)
        assert not result.iotlb_hit
        assert agent.walks == 2

    def test_write_to_readonly_page_faults(self, space):
        table = PasidTable()
        table.bind(1, space)
        agent = TranslationAgent(table)
        va = space.mmap(PAGE_SIZE, writable=False)
        agent.translate(1, va, write=False)
        agent.invalidate_pasid(1)
        with pytest.raises(TranslationFault):
            agent.translate(1, va, write=True)


class TestPageRequestService:
    def test_unhandled_fault_raises_and_logs(self):
        prs = PageRequestService()
        with pytest.raises(TranslationFault):
            prs.report(1, 0x1000, False, timestamp=5)
        assert prs.failed == 1
        assert len(prs.log) == 1
        assert prs.log[0].virtual_address == 0x1000

    def test_handler_returning_false_fails(self):
        prs = PageRequestService(lambda *args: False)
        with pytest.raises(TranslationFault):
            prs.report(1, 0x1000, True, timestamp=0)

    def test_resolved_fault_returns_stall_cycles(self):
        prs = PageRequestService(lambda *args: True)
        assert prs.report(1, 0x1000, False, timestamp=0) == PAGE_REQUEST_CYCLES
        assert prs.resolved == 1

    def test_set_handler_after_construction(self):
        prs = PageRequestService()
        prs.set_handler(lambda *args: True)
        assert prs.report(2, 0x2000, True, timestamp=1) == PAGE_REQUEST_CYCLES
