"""Tests for completion interrupts."""

from repro.dsa.descriptor import Descriptor, make_noop
from repro.dsa.opcodes import (
    STANDARD_COMPLETION_FLAGS,
    DescriptorFlags,
    Opcode,
)

from tests.conftest import build_host


def interrupting_noop(pasid, comp, handle=7):
    return Descriptor(
        opcode=Opcode.NOOP,
        pasid=pasid,
        flags=STANDARD_COMPLETION_FLAGS | DescriptorFlags.REQUEST_COMPLETION_INTERRUPT,
        completion_addr=comp,
        interrupt_handle=handle,
    )


class TestCompletionInterrupts:
    def test_interrupt_raised_at_completion(self):
        host = build_host()
        proc = host.new_process()
        comp = proc.comp_record()
        ticket = proc.portal.submit(interrupting_noop(proc.pasid, comp))
        assert host.device.interrupt_log == []  # not completed yet
        proc.portal.wait(ticket)
        assert len(host.device.interrupt_log) == 1
        event = host.device.interrupt_log[0]
        assert event.pasid == proc.pasid
        assert event.interrupt_handle == 7
        assert event.timestamp == ticket.completion_time
        assert host.device.stats.interrupts_raised == 1

    def test_plain_descriptor_raises_no_interrupt(self):
        host = build_host()
        proc = host.new_process()
        comp = proc.comp_record()
        proc.portal.submit_wait(make_noop(proc.pasid, comp))
        assert host.device.interrupt_log == []

    def test_interrupts_ordered_by_completion(self):
        host = build_host()
        proc = host.new_process()
        tickets = [
            proc.portal.submit(
                interrupting_noop(proc.pasid, proc.comp_record(), handle=i)
            )
            for i in range(4)
        ]
        for ticket in tickets:
            proc.portal.wait(ticket)
        handles = [e.interrupt_handle for e in host.device.interrupt_log]
        times = [e.timestamp for e in host.device.interrupt_log]
        assert handles == [0, 1, 2, 3]
        assert times == sorted(times)

    def test_interrupt_wire_flag_roundtrips(self):
        descriptor = interrupting_noop(1, 0x40, handle=99)
        decoded = Descriptor.decode(descriptor.encode())
        assert decoded.interrupt_handle == 99
        assert decoded.flags & DescriptorFlags.REQUEST_COMPLETION_INTERRUPT
