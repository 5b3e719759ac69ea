"""Unit and property tests for descriptor encode/decode and field streams."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ats.devtlb import FieldType
from repro.dsa.descriptor import (
    DESCRIPTOR_SIZE,
    BatchDescriptor,
    Descriptor,
    make_dualcast,
    make_memcmp,
    make_memcpy,
    make_noop,
    spans_pages,
)
from repro.dsa.opcodes import DescriptorFlags, Opcode
from repro.errors import InvalidDescriptorError


class TestFieldAccesses:
    def test_noop_touches_only_comp(self):
        desc = make_noop(pasid=1, completion_addr=0x1000)
        fields = [stream[0] for stream in desc.streams()]
        assert fields == [FieldType.COMP]

    def test_memcpy_fields(self):
        desc = make_memcpy(pasid=1, src=0x1000, dst=0x2000, size=64, completion_addr=0x3000)
        fields = [(stream[0], stream[3]) for stream in desc.streams()]
        assert fields == [
            (FieldType.SRC, False),
            (FieldType.DST, True),
            (FieldType.COMP, True),
        ]

    def test_memcmp_uses_src2_not_dst(self):
        """The byte-24 slot is src2 for compares (Listing 4's overlap)."""
        desc = make_memcmp(pasid=1, src=0x1000, src2=0x2000, size=64, completion_addr=0x3000)
        fields = [stream[0] for stream in desc.streams()]
        assert FieldType.SRC2 in fields
        assert FieldType.DST not in fields

    def test_dualcast_has_two_destinations(self):
        desc = make_dualcast(
            pasid=1, src=0x1000, dst=0x2000, dst2=0x4000, size=64, completion_addr=0x3000
        )
        fields = [stream[0] for stream in desc.streams()]
        assert fields == [
            FieldType.SRC,
            FieldType.DST,
            FieldType.DST2,
            FieldType.COMP,
        ]

    def test_comp_always_last(self):
        desc = make_memcpy(pasid=1, src=0, dst=0x2000, size=8, completion_addr=0x3000)
        assert desc.streams()[-1][0] == FieldType.COMP

    def test_batch_has_no_devtlb_streams(self):
        batch = BatchDescriptor(pasid=1, desc_list_addr=0x1000, count=4)
        # batches bypass the DevTLB; Descriptor.streams only covers
        # work descriptors, and BatchDescriptor never reaches an engine PU.
        assert batch.opcode is Opcode.BATCH

    def test_no_completion_record_flag_drops_comp_stream(self):
        desc = Descriptor(
            opcode=Opcode.NOOP, pasid=1, flags=DescriptorFlags.NONE
        )
        assert desc.streams() == []

    def test_pages_touched_counts_cross_page(self):
        desc = make_memcpy(
            pasid=1, src=0x1F00, dst=0x5000, size=0x200, completion_addr=0x9000
        )
        # src spans 2 pages, dst 1, comp 1
        assert desc.pages_touched() == 4

    def test_field_access_pages(self):
        desc = make_memcpy(pasid=1, src=0xFFF, dst=0x5000, size=2, completion_addr=0x9000)
        field_type, address, size, write = desc.streams()[0]
        assert (field_type, write) == (FieldType.SRC, False)
        assert address >> 12 == 0
        assert spans_pages(address, size) == 2


class TestValidation:
    def test_zero_pasid_rejected(self):
        with pytest.raises(InvalidDescriptorError):
            make_noop(pasid=0, completion_addr=0x1000).validate()

    def test_misaligned_completion_rejected(self):
        with pytest.raises(InvalidDescriptorError):
            make_noop(pasid=1, completion_addr=0x1001).validate()

    def test_zero_size_data_op_rejected(self):
        with pytest.raises(InvalidDescriptorError):
            make_memcpy(pasid=1, src=0, dst=0x1000, size=0, completion_addr=0x2000).validate()

    def test_noop_zero_size_allowed(self):
        make_noop(pasid=1, completion_addr=0x1000).validate()

    def test_batch_count_validated(self):
        with pytest.raises(InvalidDescriptorError):
            BatchDescriptor(pasid=1, desc_list_addr=0x1000, count=0).validate()

    def test_batch_list_bytes(self):
        batch = BatchDescriptor(pasid=1, desc_list_addr=0x1000, count=4)
        assert batch.list_bytes() == 4 * DESCRIPTOR_SIZE


class TestWireFormat:
    def test_encode_is_64_bytes(self):
        desc = make_noop(pasid=1, completion_addr=0x1000)
        assert len(desc.encode()) == DESCRIPTOR_SIZE

    def test_roundtrip(self):
        desc = make_dualcast(
            pasid=42, src=0x1234000, dst=0x2345000, dst2=0x3456000, size=4096,
            completion_addr=0x7777000,
        )
        assert Descriptor.decode(desc.encode()) == desc

    def test_decode_wrong_length_rejected(self):
        with pytest.raises(InvalidDescriptorError):
            Descriptor.decode(b"\x00" * 32)

    def test_decode_unknown_opcode_rejected(self):
        raw = bytearray(make_noop(pasid=1, completion_addr=0).encode())
        raw[7] = 0xEE
        with pytest.raises(InvalidDescriptorError):
            Descriptor.decode(bytes(raw))

    def test_src2_aliases_dst(self):
        desc = make_memcmp(pasid=1, src=0x1000, src2=0xBEEF000, size=8, completion_addr=0)
        assert desc.dst == 0xBEEF000
        assert desc.src2 == 0xBEEF000

    @given(
        opcode=st.sampled_from([Opcode.NOOP, Opcode.MEMMOVE, Opcode.COMPVAL, Opcode.DUALCAST]),
        pasid=st.integers(1, (1 << 20) - 1),
        src=st.integers(0, 2**48),
        dst=st.integers(0, 2**48),
        size=st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_property(self, opcode, pasid, src, dst, size):
        desc = Descriptor(
            opcode=opcode, pasid=pasid, src=src, dst=dst, size=size, completion_addr=0x40
        )
        assert Descriptor.decode(desc.encode()) == desc


class TestSpansPages:
    @pytest.mark.parametrize(
        "address,size,expected",
        [
            (0, 1, 1),
            (0, 4096, 1),
            (0, 4097, 2),
            (4095, 2, 2),
            (0x1000, 0x2000, 2),
            (0x1800, 0x2000, 3),
            (0, 0, 1),
        ],
    )
    def test_page_span(self, address, size, expected):
        assert spans_pages(address, size) == expected

    @given(st.integers(0, 2**40), st.integers(1, 2**24))
    @settings(max_examples=100, deadline=None)
    def test_span_bounds(self, address, size):
        pages = spans_pages(address, size)
        assert pages >= (size + 4095) // 4096
        assert pages <= size // 4096 + 2
