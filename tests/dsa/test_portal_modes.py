"""Tests for portal submission modes, drain, and device bookkeeping."""

import pytest

from repro.dsa.completion import CompletionStatus
from repro.dsa.descriptor import Descriptor, make_memcpy, make_noop
from repro.dsa.device import DsaDeviceConfig, GroupConfig
from repro.dsa.opcodes import Opcode
from repro.dsa.portal import Portal
from repro.dsa.wq import WorkQueueConfig, WqMode
from repro.errors import ConfigurationError, QueueConfigurationError, QueueFullError

from tests.conftest import build_host


def build_dedicated_host():
    host = build_host()
    host.device.configure_wq(
        WorkQueueConfig(wq_id=1, size=8, mode=WqMode.DEDICATED, group_id=0)
    )
    return host


class TestDedicatedQueues:
    def test_movdir64b_submits(self):
        host = build_dedicated_host()
        proc = host.new_process(wq_id=1)
        comp = proc.comp_record()
        proc.portal.movdir64b(make_noop(proc.pasid, comp))
        assert proc.portal.last_ticket is not None
        proc.portal.wait(proc.portal.last_ticket)
        assert proc.portal.last_ticket.record.status is CompletionStatus.SUCCESS

    def test_enqcmd_to_dedicated_rejected(self):
        host = build_dedicated_host()
        proc = host.new_process(wq_id=1)
        with pytest.raises(ConfigurationError):
            proc.portal.enqcmd(make_noop(proc.pasid, proc.comp_record()))

    def test_movdir64b_to_shared_rejected(self):
        host = build_host()
        proc = host.new_process(wq_id=0)
        with pytest.raises(ConfigurationError):
            proc.portal.movdir64b(make_noop(proc.pasid, proc.comp_record()))

    def test_movdir64b_to_full_queue_raises(self):
        host = build_dedicated_host()
        proc = host.new_process(wq_id=1)
        comp = proc.comp_record()
        big = make_memcpy(
            proc.pasid, proc.buffer(1 << 22), proc.buffer(1 << 22), 1 << 22, comp
        )
        for _ in range(8):
            proc.portal.movdir64b(big)
        with pytest.raises(QueueFullError):
            proc.portal.movdir64b(big)

    def test_submit_uses_native_instruction(self):
        host = build_dedicated_host()
        proc = host.new_process(wq_id=1)
        ticket = proc.portal.submit(make_noop(proc.pasid, proc.comp_record()))
        proc.portal.wait(ticket)
        assert ticket.completed


class TestDrain:
    def test_drain_waits_for_prior_work(self):
        host = build_host()
        proc = host.new_process()
        comp = proc.comp_record()
        big = make_memcpy(
            proc.pasid, proc.buffer(1 << 21), proc.buffer(1 << 21), 1 << 21, comp
        )
        big_ticket = proc.portal.submit(big)
        drain = Descriptor(
            opcode=Opcode.DRAIN, pasid=proc.pasid, completion_addr=proc.comp_record()
        )
        drain_ticket = proc.portal.submit(drain)
        proc.portal.wait(drain_ticket)
        assert big_ticket.completed
        assert drain_ticket.completion_time >= big_ticket.completion_time


class TestDeviceBookkeeping:
    def test_stats_counters(self):
        host = build_host(wq_size=1)
        proc = host.new_process()
        comp = proc.comp_record()
        big = make_memcpy(
            proc.pasid, proc.buffer(1 << 22), proc.buffer(1 << 22), 1 << 22, comp
        )
        proc.portal.enqcmd(big)
        proc.portal.enqcmd(big)  # ZF (slot held until completion)
        stats = host.device.stats
        assert stats.submissions_accepted == 1
        assert stats.submissions_retried == 1

    def test_group_validation(self):
        host = build_host()
        with pytest.raises(ConfigurationError):
            host.device.configure_group(5, (99,))
        with pytest.raises(QueueConfigurationError):
            host.device.configure_group(1, (0,))  # engine 0 is in group 0
        with pytest.raises(QueueConfigurationError):
            GroupConfig(group_id=2, engine_ids=())

    def test_wq_needs_existing_group(self):
        host = build_host()
        with pytest.raises(QueueConfigurationError):
            host.device.configure_wq(WorkQueueConfig(wq_id=7, size=4, group_id=9))

    def test_group_of_wq(self):
        host = build_host()
        assert host.device.group_of_wq(0).group_id == 0

    def test_ticket_metadata(self):
        host = build_host()
        proc = host.new_process()
        comp = proc.comp_record()
        result = proc.portal.submit_wait(make_noop(proc.pasid, comp))
        ticket = result.ticket
        assert ticket.engine_id == 0
        assert ticket.dispatch_time >= ticket.enqueue_time
        assert ticket.completion_time > ticket.dispatch_time
        assert ticket.devtlb_misses == 1  # fresh comp page

    def test_environment_switch_propagates(self):
        from repro.hw.noise import Environment

        host = build_host()
        host.device.set_environment(Environment.CLOUD_NOISE)
        assert host.device.environment is Environment.CLOUD_NOISE
        for engine in host.device.engines.values():
            assert engine.noise.environment is Environment.CLOUD_NOISE


class TestPrivilegedPortal:
    def test_privileged_portal_sees_zf_under_mitigation(self):
        from repro.mitigation.partitioning import privileged_dmwr_config

        host = build_host(config=privileged_dmwr_config(DsaDeviceConfig(engine_count=2)))
        proc = host.new_process()
        comp = proc.comp_record()
        root_portal = Portal(host.device, wq_id=0, pasid=proc.pasid, privileged=True)
        big = make_memcpy(
            proc.pasid, proc.buffer(1 << 22), proc.buffer(1 << 22), 1 << 22, comp
        )
        results = [root_portal.enqcmd(big) for _ in range(17)]
        assert any(results)  # a privileged submitter still reads real ZF
