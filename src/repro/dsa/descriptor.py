"""The 64-byte DSA work descriptor (Fig. 3 of the paper).

Layout (little-endian, byte offsets):

======  ==========================================================
0-3     PASID (bits 0-19), reserved bits, privilege bit (bit 31)
4-5     reserved
6       flags
7       opcode
8-15    completion record address
16-23   source address (``src``)
24-31   destination address (``dst``) / second source (``src2``)
32-35   transfer size
36-37   interrupt handle
38-39   reserved
40-47   second destination (``dst2``) / delta record address
48-63   reserved / unused
======  ==========================================================

``dst`` and ``src2`` share bytes 24-31 and are distinguished only by the
opcode — the encoding overlap probed by Listing 4 of the paper.  The
DevTLB nevertheless indexes them as *different* field types, which
:meth:`Descriptor.streams` reflects.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

from repro.ats.devtlb import FieldType
from repro.dsa.opcodes import (
    READS_SRC,
    STANDARD_COMPLETION_FLAGS,
    USES_SRC2,
    WRITES_DST,
    WRITES_DST2,
    DescriptorFlags,
    Opcode,
)
from repro.errors import InvalidDescriptorError

#: Serialized descriptor size in bytes.
DESCRIPTOR_SIZE = 64

#: Completion records must be 32-byte aligned.
COMPLETION_ALIGN = 32

_PACK = struct.Struct("<I H B B Q Q Q I H H Q 16x")

_INTERRUPT = int(DescriptorFlags.REQUEST_COMPLETION_INTERRUPT)


@dataclass(frozen=True)
class Descriptor:
    """One DSA work descriptor.

    ``dst`` doubles as ``src2`` for the compare/delta opcodes, exactly as
    in the hardware encoding; use :attr:`src2` for readability.
    """

    opcode: Opcode
    pasid: int = 0
    flags: DescriptorFlags = STANDARD_COMPLETION_FLAGS
    completion_addr: int = 0
    src: int = 0
    dst: int = 0
    size: int = 0
    dst2: int = 0
    interrupt_handle: int = 0
    privileged: bool = False

    def __post_init__(self) -> None:
        # Cache the flag tests as plain bools: IntFlag arithmetic is
        # surprisingly expensive and these predicates run on every
        # submission, dispatch, and completion (hot attack loop).
        flags = int(self.flags)
        object.__setattr__(self, "_wants_completion", (flags & 0x0C) == 0x0C)
        object.__setattr__(self, "_wants_interrupt", (flags & _INTERRUPT) != 0)

    @property
    def src2(self) -> int:
        """Second source address (aliases :attr:`dst`, per the encoding)."""
        return self.dst

    @property
    def wants_completion(self) -> bool:
        """Whether the engine must write a completion record."""
        return self._wants_completion

    @property
    def wants_interrupt(self) -> bool:
        """Whether completion raises an interrupt."""
        return self._wants_interrupt

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Raise :class:`InvalidDescriptorError` on malformed descriptors."""
        if self.pasid <= 0:
            raise InvalidDescriptorError(f"descriptor has invalid PASID {self.pasid}")
        if self._wants_completion and self.completion_addr % COMPLETION_ALIGN:
            raise InvalidDescriptorError(
                f"completion record address {self.completion_addr:#x} "
                f"is not {COMPLETION_ALIGN}-byte aligned"
            )
        if self.opcode in (Opcode.NOOP, Opcode.DRAIN, Opcode.BATCH):
            return
        if self.size <= 0:
            raise InvalidDescriptorError(
                f"{self.opcode.name} descriptor requires a positive transfer "
                f"size, got {self.size}"
            )

    # ------------------------------------------------------------------
    # Memory streams
    # ------------------------------------------------------------------
    def streams(self) -> list[tuple[FieldType, int, int, bool]]:
        """The memory streams this descriptor generates, in engine order,
        as ``(field_type, address, size, write)`` tuples.

        The completion-record write is always last; it is the *only*
        stream of a noop descriptor, which is why the paper's attack
        probes with noops.
        """
        opcode = self.opcode
        if opcode is Opcode.BATCH:
            # The batch fetcher's reads bypass the DevTLB entirely; the
            # batch engine model handles them out-of-band.
            return []
        streams = []
        if opcode in READS_SRC:
            streams.append((FieldType.SRC, self.src, self.size, False))
        if opcode in USES_SRC2:
            streams.append((FieldType.SRC2, self.dst, self.size, False))
        elif opcode in WRITES_DST:
            streams.append((FieldType.DST, self.dst, self.size, True))
        if opcode in WRITES_DST2:
            streams.append((FieldType.DST2, self.dst2, self.size, True))
        if self._wants_completion:
            streams.append((FieldType.COMP, self.completion_addr, 0, True))
        return streams

    def pages_touched(self) -> int:
        """Total page translations the engine will request."""
        return sum(spans_pages(address, size) for _, address, size, _ in self.streams())

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def encode(self) -> bytes:
        """Serialize to the 64-byte wire format."""
        word0 = (self.pasid & 0xFFFFF) | (0x8000_0000 if self.privileged else 0)
        return _PACK.pack(
            word0,
            0,
            int(self.flags) & 0xFF,
            int(self.opcode),
            self.completion_addr,
            self.src,
            self.dst,
            self.size,
            self.interrupt_handle,
            0,
            self.dst2,
        )

    @classmethod
    def decode(cls, raw: bytes) -> "Descriptor":
        """Parse the 64-byte wire format back into a :class:`Descriptor`."""
        if len(raw) != DESCRIPTOR_SIZE:
            raise InvalidDescriptorError(
                f"descriptor must be {DESCRIPTOR_SIZE} bytes, got {len(raw)}"
            )
        (word0, _r0, flags, opcode, comp, src, dst, size, ihandle, _r1, dst2) = (
            _PACK.unpack(raw)
        )
        try:
            op = Opcode(opcode)
        except ValueError as exc:
            raise InvalidDescriptorError(f"unknown opcode {opcode:#x}") from exc
        return cls(
            opcode=op,
            pasid=word0 & 0xFFFFF,
            flags=DescriptorFlags(flags),
            completion_addr=comp,
            src=src,
            dst=dst,
            size=size,
            dst2=dst2,
            interrupt_handle=ihandle,
            privileged=bool(word0 & 0x8000_0000),
        )


@dataclass(frozen=True)
class BatchDescriptor:
    """A batch descriptor: points at an array of work descriptors.

    The batch fetcher reads ``count`` serialized 64-byte descriptors
    starting at ``desc_list_addr`` (in the submitter's address space) and
    feeds them to the engine's batch buffer.
    """

    pasid: int
    desc_list_addr: int
    count: int
    completion_addr: int = 0
    flags: DescriptorFlags = STANDARD_COMPLETION_FLAGS
    opcode: Opcode = field(default=Opcode.BATCH, init=False)
    #: A batch parent raises no completion interrupt (not a field).
    wants_interrupt = False

    def validate(self) -> None:
        """Raise :class:`InvalidDescriptorError` on malformed batches."""
        if self.pasid <= 0:
            raise InvalidDescriptorError(f"batch has invalid PASID {self.pasid}")
        if self.count < 1:
            raise InvalidDescriptorError("batch must contain at least one descriptor")
        if self.completion_addr % COMPLETION_ALIGN:
            raise InvalidDescriptorError("batch completion record is misaligned")

    @property
    def wants_completion(self) -> bool:
        """Whether the batch's own record is written: iff it has an address."""
        return self.completion_addr != 0

    def list_bytes(self) -> int:
        """Size of the descriptor array the fetcher reads."""
        return self.count * DESCRIPTOR_SIZE


def make_noop(pasid: int, completion_addr: int) -> Descriptor:
    """The paper's ``probe_noop`` descriptor: writes only the completion
    record, making it the minimal single-sub-entry DevTLB probe."""
    return Descriptor(
        opcode=Opcode.NOOP, pasid=pasid, completion_addr=completion_addr
    )


def make_memcpy(pasid: int, src: int, dst: int, size: int, completion_addr: int) -> Descriptor:
    """``probe_memcpy``: reads ``src``, writes ``dst``."""
    return Descriptor(
        opcode=Opcode.MEMMOVE,
        pasid=pasid,
        src=src,
        dst=dst,
        size=size,
        completion_addr=completion_addr,
    )


def make_memcmp(pasid: int, src: int, src2: int, size: int, completion_addr: int) -> Descriptor:
    """``probe_memcmp`` (Listing 1): reads ``src`` and ``src2``."""
    return Descriptor(
        opcode=Opcode.COMPVAL,
        pasid=pasid,
        src=src,
        dst=src2,
        size=size,
        completion_addr=completion_addr,
    )


def make_dualcast(
    pasid: int, src: int, dst: int, dst2: int, size: int, completion_addr: int
) -> Descriptor:
    """``probe_dualcast``: reads ``src``, writes ``dst`` and ``dst2``."""
    return Descriptor(
        opcode=Opcode.DUALCAST,
        pasid=pasid,
        src=src,
        dst=dst,
        dst2=dst2,
        size=size,
        completion_addr=completion_addr,
    )


def spans_pages(address: int, size: int) -> int:
    """Number of 4 KiB pages a ``[address, address+size)`` stream touches."""
    if size <= 0:
        return 1
    return ((address + size - 1) >> 12) - (address >> 12) + 1


__all__ = [
    "BatchDescriptor",
    "COMPLETION_ALIGN",
    "DESCRIPTOR_SIZE",
    "Descriptor",
    "make_dualcast",
    "make_memcmp",
    "make_memcpy",
    "make_noop",
    "spans_pages",
]
