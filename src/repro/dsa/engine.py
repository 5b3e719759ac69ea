"""DSA engines: descriptor execution, timing, and DevTLB traffic.

Calibration targets (all from the paper):

* **Fig. 4** — a noop probe completes in ~500 cycles on a DevTLB hit and
  >1000 cycles on a miss, with the 600-900 cycle threshold valid in all
  four environments.  The model achieves this with a fixed engine cost
  plus a translation cost that is cheap on a DevTLB hit and pays an ATS
  round trip to the Translation Agent on a miss (the paper warms the
  IOTLB, so the miss path's dominant term is the ATS request itself).
* **Fig. 6** — completion latency grows linearly with transfer size
  (bandwidth-limited streaming at ~30 GB/s) while submission latency
  stays flat (charged by the portal, not the engine).
* **Section V-C** — each engine contains **one processing unit** (Fig. 2
  of the paper) and therefore executes descriptors serially; a large
  memcpy "anchor" keeps the engine busy while the queued descriptors
  behind it hold their SWQ slots, which is the congestion the SWQ attack
  arms.  (The ``concurrent_descriptors`` knob exists for the ablation
  benchmark only.)

Cross-page streams are split into per-page segments.  Each segment is a
separate DevTLB request and only the final page stays cached — both
properties the paper establishes with ``EV_ATC_ALLOC`` counts.  For
*latency*, only the first page's translation is charged: the engine
prefetches subsequent translations behind the data streaming, which is
also what keeps the paper's completion-latency curve bandwidth-shaped
rather than walk-shaped.  (Approximation documented in DESIGN.md: pages
past the first skip the per-page IOTLB simulation.)
"""

from __future__ import annotations

import bisect
import zlib
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from repro.ats.agent import TranslationAgent
from repro.ats.devtlb import DevTlb, FieldType
from repro.dsa.completion import CompletionRecord, CompletionStatus
from repro.dsa.descriptor import Descriptor
from repro.dsa.opcodes import Opcode
from repro.errors import TranslationFault
from repro.faults.plan import FaultSite
from repro.hw.noise import NoiseModel
from repro.hw.units import PAGE_SHIFT


@dataclass(frozen=True)
class EngineTiming:
    """Calibrated timing knobs of one engine.

    The defaults reproduce the paper's latency landmarks at a 2 GHz TSC;
    see the module docstring for the mapping.
    """

    fixed_cycles: int = 260
    devtlb_hit_cycles: int = 25
    ats_request_cycles: int = 540
    completion_write_cycles: int = 110
    #: Per-stream streaming cost; a memcpy reads one stream and writes
    #: another, so its aggregate throughput is ~30 GB/s at 2 GHz.
    cycles_per_stream_byte: float = 1.0 / 30.0
    poll_detect_cycles: int = 80
    #: Processing units per engine (the real device has one; >1 is an
    #: ablation that breaks the SWQ anchor, see benchmarks).
    concurrent_descriptors: int = 1
    #: Above this size, byte contents are not physically copied (timing
    #: and completion metadata are unaffected).
    data_move_limit: int = 1 << 20


_completion_key = attrgetter("completion_time")

#: The record of every successful noop and drain (records are immutable).
_SUCCESS = CompletionRecord(status=CompletionStatus.SUCCESS)


@dataclass
class EngineStats:
    """Aggregate per-engine counters."""

    descriptors_executed: int = 0
    bytes_processed: int = 0
    faults: int = 0
    busy_cycles: int = 0
    injected_faults: int = 0
    injected_stall_cycles: int = 0


class Engine:
    """One DSA engine: processing unit(s) plus its DevTLB view.

    Parameters
    ----------
    engine_id:
        Index used for DevTLB sub-entry selection.
    devtlb:
        The (shared) device TLB.
    agent:
        Translation agent used on DevTLB misses.
    noise:
        Environment noise model applied once per descriptor.
    rng:
        Shared random generator.
    timing:
        Calibrated cost model.
    """

    def __init__(
        self,
        engine_id: int,
        devtlb: DevTlb,
        agent: TranslationAgent,
        noise: NoiseModel,
        rng: np.random.Generator,
        timing: EngineTiming | None = None,
    ) -> None:
        self.engine_id = engine_id
        self.devtlb = devtlb
        self.agent = agent
        self.noise = noise
        self.rng = rng
        self.timing = timing or EngineTiming()
        #: Executing descriptors' tokens (anything with a
        #: ``completion_time``), sorted by completion time; equal times
        #: keep admission order.
        self.inflight: list = []
        self.stats = EngineStats()
        self.fault_injector = None
        self.invariant_monitor = None

    # ------------------------------------------------------------------
    # Processing-unit admission
    # ------------------------------------------------------------------
    def earliest_start(self, after: int, needs_idle: bool = False) -> int:
        """Earliest time >= *after* a descriptor could start executing.

        With one processing unit this is simply "when the current
        descriptor finishes".  *needs_idle* forces an empty engine (used
        by ``drain``).
        """
        limit = 0 if needs_idle else self.timing.concurrent_descriptors - 1
        inflight = self.inflight
        if len(inflight) <= limit:
            return after
        return max(after, inflight[len(inflight) - 1 - limit].completion_time)

    def admit(self, token) -> None:
        """Record *token* as executing until its ``completion_time``."""
        bisect.insort(self.inflight, token, key=_completion_key)

    def retire_due(self, time: int) -> list:
        """Remove and return the tokens of descriptors completed by *time*."""
        inflight = self.inflight
        done = bisect.bisect_right(inflight, time, key=_completion_key)
        tokens = inflight[:done]
        del inflight[:done]
        return tokens

    @property
    def busy(self) -> bool:
        """Whether any processing unit is occupied."""
        return bool(self.inflight)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self, descriptor: Descriptor, timestamp: int
    ) -> tuple[int, CompletionRecord, int, int]:
        """Run *descriptor*: charge timing, move data, build the record.

        Returns ``(cycles, record, devtlb_hits, devtlb_misses)``.  DevTLB
        and IOTLB state mutate here, at dispatch order — which is what
        makes cross-descriptor eviction visible to later probes.
        """
        timing = self.timing
        cycles = timing.fixed_cycles
        injector = self.fault_injector
        if injector is not None:
            cycles += self._pre_execution_faults(descriptor, timestamp)

        hits = misses = translate_total = data_total = 0
        fault: TranslationFault | None = None
        streams = descriptor.streams()
        if streams:
            pasid = descriptor.pasid
            space = self.agent.pasid_table.lookup(pasid)
            for field_type, address, size, write in streams:
                try:
                    stream_cycles, stream_hits, stream_misses = self._translate_stream(
                        space, pasid, field_type, address, size, write, timestamp
                    )
                except TranslationFault as exc:
                    fault = exc
                    self.stats.faults += 1
                    self._narrate_fault(descriptor, timestamp, "translation")
                    break
                hits += stream_hits
                misses += stream_misses
                translate_total += stream_cycles
                if field_type is not FieldType.COMP:
                    data_total += int(size * timing.cycles_per_stream_byte)
        # Translation overlaps with data streaming: the descriptor costs
        # the longer of the two plus a small serialization residue.
        # Small transfers stay translation-bound (the Fig. 4 hit/miss
        # gap); large ones become bandwidth-bound (the Fig. 6 slope),
        # which also makes DevTLB disturbance cheap for bulk copies
        # (the Fig. 14 shape).
        if data_total > translate_total:
            cycles += data_total + int(0.2 * translate_total)
        else:
            cycles += translate_total + int(0.2 * data_total)

        if descriptor.wants_completion:
            cycles += timing.completion_write_cycles
        noise = self.noise.sample(self.rng)
        if noise > 0:
            cycles += noise

        injected_error = None
        if fault is None and injector is not None:
            injected_error = injector.fire(
                FaultSite.COMPLETION_ERROR,
                timestamp=timestamp,
                pasid=descriptor.pasid,
                engine_id=self.engine_id,
            )
        if fault is not None:
            record = CompletionRecord(
                status=CompletionStatus.PAGE_FAULT,
                bytes_completed=0,
                fault_address=fault.address,
            )
        elif injected_error is not None:
            # The descriptor dies with an error status and moves no data.
            self._narrate_fault(descriptor, timestamp, "injected")
            self.stats.faults += 1
            self.stats.injected_faults += 1
            status = (
                CompletionStatus.INVALID_FLAGS
                if injected_error.kind == "invalid_flags"
                else CompletionStatus.PAGE_FAULT
            )
            record = CompletionRecord(
                status=status,
                bytes_completed=0,
                fault_address=descriptor.src if status is CompletionStatus.PAGE_FAULT else 0,
            )
            injector.acknowledge(injected_error, action="error-record")
        elif descriptor.opcode is Opcode.NOOP or descriptor.opcode is Opcode.DRAIN:
            record = _SUCCESS
        else:
            record = self._perform_operation(descriptor)

        stats = self.stats
        stats.descriptors_executed += 1
        stats.bytes_processed += descriptor.size
        stats.busy_cycles += cycles
        return cycles, record, hits, misses

    def _narrate_fault(self, descriptor: Descriptor, timestamp: int, cause: str) -> None:
        if self.invariant_monitor is not None:
            self.invariant_monitor.note(
                "fault", timestamp, engine_id=self.engine_id, pasid=descriptor.pasid, cause=cause
            )

    def _pre_execution_faults(self, descriptor: Descriptor, timestamp: int) -> int:
        """Apply injected faults that strike before translation.

        Spurious DevTLB/IOTLB invalidations (a hostile or buggy ATS
        invalidate-all) and engine stalls; returns the stall cycles to
        charge to the descriptor.
        """
        injector = self.fault_injector
        stall = 0
        devtlb_inval = injector.fire(
            FaultSite.DEVTLB_INVALIDATE,
            timestamp=timestamp,
            pasid=descriptor.pasid,
            engine_id=self.engine_id,
        )
        if devtlb_inval is not None:
            self.stats.injected_faults += 1
            self.devtlb.invalidate_all()
            injector.acknowledge(devtlb_inval, action="devtlb-invalidated")
        iotlb_inval = injector.fire(
            FaultSite.IOTLB_INVALIDATE,
            timestamp=timestamp,
            pasid=descriptor.pasid,
            engine_id=self.engine_id,
        )
        if iotlb_inval is not None:
            self.stats.injected_faults += 1
            self.agent.iotlb.invalidate_all()
            injector.acknowledge(iotlb_inval, action="iotlb-invalidated")
        event = injector.fire(
            FaultSite.ENGINE_STALL,
            timestamp=timestamp,
            pasid=descriptor.pasid,
            engine_id=self.engine_id,
        )
        if event is not None:
            self.stats.injected_faults += 1
            stall = event.magnitude_cycles
            self.stats.injected_stall_cycles += stall
            injector.acknowledge(event, action="engine-stalled")
        return stall

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def _translate_stream(
        self,
        space,
        pasid: int,
        field_type: FieldType,
        address: int,
        size: int,
        write: bool,
        timestamp: int,
    ) -> tuple[int, int, int]:
        """Translate the page segments of one field stream.

        Returns ``(cycles, devtlb_hits, devtlb_misses)``.

        * The **first** page goes through the precise DevTLB + ATS path
          and its cost is charged (this is the entire stream for every
          probe descriptor).
        * Later pages update the DevTLB counters and leave the **final**
          page cached (single-slot eviction), but their translation
          latency hides behind data streaming and the per-page IOTLB
          walk is skipped.
        """
        first = address >> PAGE_SHIFT
        last = (address + size - 1) >> PAGE_SHIFT if size else first
        extra = last - first
        huge = space.is_mapped(address) and space.page_is_huge(address)
        devtlb = self.devtlb
        if devtlb.access(
            self.engine_id, field_type, first, pasid, huge=huge, stream_pages=extra + 1
        ):
            cycles = self.timing.devtlb_hit_cycles
            hits = 1
            misses = 0
        else:
            hits = 0
            misses = 1
            cycles = self.timing.ats_request_cycles + self.agent.translate(
                pasid, address, write=write, timestamp=timestamp
            ).cycles

        if extra > 0:
            last_va = last << PAGE_SHIFT
            if not space.is_mapped(last_va):
                # Surface faults on the stream's tail even though the
                # middle pages are charged arithmetically.
                self.agent.translate(pasid, last_va, write=write, timestamp=timestamp)
            misses += extra
            devtlb.stats.alloc_requests += extra
            devtlb.engine_stats(self.engine_id).alloc_requests += extra
            devtlb.fill(self.engine_id, field_type, last, pasid)
        return cycles, hits, misses

    # ------------------------------------------------------------------
    # Data semantics
    # ------------------------------------------------------------------
    def _perform_operation(self, descriptor: Descriptor) -> CompletionRecord:
        """Execute the data operation and build its completion record.

        Noops and drains never get here: :meth:`execute` gives them the
        shared success record without a PASID lookup.
        """
        space = self.agent.pasid_table.lookup(descriptor.pasid)
        op = descriptor.opcode
        size = descriptor.size
        move_data = size <= self.timing.data_move_limit

        if op is Opcode.MEMMOVE:
            if move_data:
                space.write(descriptor.dst, space.read(descriptor.src, size))
            return CompletionRecord(status=CompletionStatus.SUCCESS, bytes_completed=size)

        if op is Opcode.FILL:
            if move_data:
                space.write(descriptor.dst, bytes([descriptor.src & 0xFF]) * size)
            return CompletionRecord(status=CompletionStatus.SUCCESS, bytes_completed=size)

        if op in (Opcode.COMPARE, Opcode.COMPVAL):
            left = space.read(descriptor.src, size)
            right = space.read(descriptor.src2, size)
            if left == right:
                return CompletionRecord(
                    status=CompletionStatus.SUCCESS, result=0, bytes_completed=size
                )
            mismatch = next(i for i, (a, b) in enumerate(zip(left, right)) if a != b)
            return CompletionRecord(
                status=CompletionStatus.SUCCESS, result=1, bytes_completed=mismatch
            )

        if op is Opcode.DUALCAST:
            if move_data:
                data = space.read(descriptor.src, size)
                space.write(descriptor.dst, data)
                space.write(descriptor.dst2, data)
            return CompletionRecord(status=CompletionStatus.SUCCESS, bytes_completed=size)

        if op is Opcode.CRCGEN:
            crc = zlib.crc32(space.read(descriptor.src, size))
            return CompletionRecord(
                status=CompletionStatus.SUCCESS, result=crc, bytes_completed=size
            )

        if op is Opcode.COPY_CRC:
            data = space.read(descriptor.src, size)
            if move_data:
                space.write(descriptor.dst, data)
            return CompletionRecord(
                status=CompletionStatus.SUCCESS,
                result=zlib.crc32(data),
                bytes_completed=size,
            )

        if op is Opcode.CREATE_DELTA:
            return self._create_delta(descriptor, space)

        if op is Opcode.APPLY_DELTA:
            return self._apply_delta(descriptor, space)

        if op in (Opcode.DIF_CHECK, Opcode.DIF_INSERT, Opcode.DIF_STRIP):
            return self._dif_operation(descriptor, space)

        return CompletionRecord(status=CompletionStatus.INVALID_DESCRIPTOR)

    # ------------------------------------------------------------------
    # T10-DIF data-integrity operations
    # ------------------------------------------------------------------
    #: Data block and protection-information sizes (T10 PI).
    DIF_BLOCK = 512
    DIF_PI = 8

    @classmethod
    def _dif_guard(cls, block: bytes) -> bytes:
        """8-byte PI tuple for one block: guard (16-bit CRC model), app
        tag (zero), reference tag (block index filled by the caller)."""
        guard = zlib.crc32(block) & 0xFFFF
        return guard.to_bytes(2, "little")

    def _dif_operation(self, descriptor: Descriptor, space) -> CompletionRecord:
        op = descriptor.opcode
        block = self.DIF_BLOCK
        stride = block + self.DIF_PI
        size = descriptor.size

        if op is Opcode.DIF_INSERT:
            if size % block:
                return CompletionRecord(status=CompletionStatus.INVALID_DESCRIPTOR)
            data = space.read(descriptor.src, size)
            out = bytearray()
            for index in range(size // block):
                chunk = data[index * block : (index + 1) * block]
                out += chunk
                out += self._dif_guard(chunk)
                out += b"\x00\x00"  # application tag
                out += index.to_bytes(4, "little")  # reference tag
            space.write(descriptor.dst, bytes(out))
            return CompletionRecord(status=CompletionStatus.SUCCESS, bytes_completed=size)

        if size % stride:
            return CompletionRecord(status=CompletionStatus.INVALID_DESCRIPTOR)
        data = space.read(descriptor.src, size)
        blocks = size // stride
        if op is Opcode.DIF_STRIP:
            out = b"".join(
                data[index * stride : index * stride + block] for index in range(blocks)
            )
            space.write(descriptor.dst, out)
            return CompletionRecord(status=CompletionStatus.SUCCESS, bytes_completed=size)

        # DIF_CHECK: validate guard and reference tags.
        for index in range(blocks):
            chunk = data[index * stride : index * stride + block]
            pi = data[index * stride + block : (index + 1) * stride]
            guard_ok = pi[:2] == self._dif_guard(chunk)
            ref_ok = int.from_bytes(pi[4:8], "little") == index
            if not (guard_ok and ref_ok):
                return CompletionRecord(
                    status=CompletionStatus.SUCCESS,
                    result=1,
                    bytes_completed=index * stride,
                )
        return CompletionRecord(
            status=CompletionStatus.SUCCESS, result=0, bytes_completed=size
        )

    @staticmethod
    def _create_delta(descriptor: Descriptor, space) -> CompletionRecord:
        """Diff src against src2 in 8-byte words; write the delta to dst2.

        Delta entry wire format: ``<IQ`` — a 32-bit word offset followed by
        the 8-byte replacement value from ``src2``.
        """
        import struct

        size = descriptor.size - descriptor.size % 8
        left = space.read(descriptor.src, size)
        right = space.read(descriptor.src2, size)
        entries = []
        for offset in range(0, size, 8):
            if left[offset : offset + 8] != right[offset : offset + 8]:
                entries.append(
                    struct.pack(
                        "<IQ",
                        offset // 8,
                        int.from_bytes(right[offset : offset + 8], "little"),
                    )
                )
        delta = b"".join(entries)
        if delta:
            space.write(descriptor.dst2, delta)
        return CompletionRecord(
            status=CompletionStatus.SUCCESS, result=len(delta), bytes_completed=size
        )

    @staticmethod
    def _apply_delta(descriptor: Descriptor, space) -> CompletionRecord:
        """Apply a delta record at ``src`` (length ``size``) onto ``dst``."""
        import struct

        raw = space.read(descriptor.src, descriptor.size - descriptor.size % 12)
        for start in range(0, len(raw), 12):
            word_offset, value = struct.unpack("<IQ", raw[start : start + 12])
            space.write(descriptor.dst + word_offset * 8, value.to_bytes(8, "little"))
        return CompletionRecord(
            status=CompletionStatus.SUCCESS, bytes_completed=len(raw)
        )
