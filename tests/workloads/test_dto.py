"""Tests for the DTO transparent-offload shim."""

import pytest

from repro.virt.system import AttackTopology, CloudSystem
from repro.workloads.dto import DTO_MIN_BYTES, DtoRuntime


@pytest.fixture
def system():
    system = CloudSystem(seed=21)
    system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
    return system


@pytest.fixture
def victim(system):
    return system.vms["victim-vm"].process("victim")


@pytest.fixture
def dto(victim):
    return DtoRuntime(victim, wq_id=0)


class TestOffloadThreshold:
    def test_large_memcpy_offloaded(self, dto, victim):
        src = victim.buffer(DTO_MIN_BYTES * 2)
        dst = victim.buffer(DTO_MIN_BYTES * 2)
        dto.memcpy(dst, src, DTO_MIN_BYTES)
        assert dto.stats.offloaded_calls == 1
        assert dto.stats.cpu_calls == 0

    def test_small_memcpy_stays_on_cpu(self, dto, victim):
        src = victim.buffer()
        dst = victim.buffer()
        victim.write(src, b"tiny")
        dto.memcpy(dst, src, 4)
        assert dto.stats.offloaded_calls == 0
        assert dto.stats.cpu_calls == 1
        assert victim.read(dst, 4) == b"tiny"

    def test_offloaded_copy_lands_after_completion(self, dto, victim, system):
        src = victim.buffer(DTO_MIN_BYTES * 2)
        dst = victim.buffer(DTO_MIN_BYTES * 2)
        victim.write(src, b"payload!" * 1024)
        dto.memcpy(dst, src, DTO_MIN_BYTES)
        system.clock.advance(2_000_000)
        system.device.advance_to(system.clock.now)
        assert victim.read(dst, DTO_MIN_BYTES) == (b"payload!" * 1024)[:DTO_MIN_BYTES]

    def test_memset_offload(self, dto, victim, system):
        dst = victim.buffer(DTO_MIN_BYTES * 2)
        dto.memset(dst, 0x5A, DTO_MIN_BYTES)
        system.clock.advance(2_000_000)
        system.device.advance_to(system.clock.now)
        assert victim.read(dst, 16) == b"\x5a" * 16
        assert dto.stats.offloaded_calls == 1

    def test_memcmp_offload_equal(self, dto, victim):
        a = victim.buffer(DTO_MIN_BYTES * 2)
        b = victim.buffer(DTO_MIN_BYTES * 2)
        assert dto.memcmp(a, b, DTO_MIN_BYTES) == 0
        assert dto.stats.offloaded_calls == 1

    def test_memcmp_cpu_path_differs(self, dto, victim):
        a = victim.buffer()
        b = victim.buffer()
        victim.write(a, b"x")
        assert dto.memcmp(a, b, 1) == 1

    def test_custom_threshold(self, victim):
        dto = DtoRuntime(victim, wq_id=0, min_bytes=64)
        src = victim.buffer()
        dst = victim.buffer()
        dto.memcpy(dst, src, 64)
        assert dto.stats.offloaded_calls == 1

    def test_invalid_threshold_rejected(self, victim):
        with pytest.raises(ValueError):
            DtoRuntime(victim, wq_id=0, min_bytes=0)

    def test_offload_timestamps_recorded(self, dto, victim):
        src = victim.buffer(DTO_MIN_BYTES * 2)
        dst = victim.buffer(DTO_MIN_BYTES * 2)
        dto.memcpy(dst, src, DTO_MIN_BYTES)
        dto.memcpy(dst, src, DTO_MIN_BYTES)
        assert len(dto.stats.offload_timestamps) == 2
        assert dto.stats.offload_timestamps[0] < dto.stats.offload_timestamps[1]


class TestFullQueueBehavior:
    def test_degrades_to_cpu_when_queue_stays_full(self):
        system = CloudSystem(seed=5)
        handles = system.setup_topology(
            AttackTopology.E0_SHARED_WQ_SHARED_ENGINE, wq_size=4
        )
        attacker = handles.attacker
        from repro.core.swq_attack import DsaSwqAttack

        attack = DsaSwqAttack(attacker, wq_id=0, anchor_bytes=1 << 22)
        attack.congest()
        attack.probe()  # queue now completely full for the anchor's span

        victim = handles.victim
        dto = DtoRuntime(victim, wq_id=0, retries=1, retry_backoff_cycles=500)
        src = victim.buffer(DTO_MIN_BYTES * 2)
        dst = victim.buffer(DTO_MIN_BYTES * 2)
        victim.write(src, b"Z" * DTO_MIN_BYTES)
        dto.memcpy(dst, src, DTO_MIN_BYTES)
        assert dto.stats.dropped_submissions == 1
        # Correctness is preserved by the CPU fallback.
        assert victim.read(dst, DTO_MIN_BYTES) == b"Z" * DTO_MIN_BYTES
