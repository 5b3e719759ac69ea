"""MMIO portals: ``enqcmd`` (DMWr) and ``movdir64b`` submission.

The portal is the software-visible submission interface.  For shared work
queues, ``enqcmd`` issues a **Deferrable Memory Write**: a non-posted MMIO
write whose completion carries the device's accept/retry answer, which the
CPU exposes in ``EFLAGS.ZF`` (Section IV-C).  Two properties matter for
the attacks:

* submission latency is ~700 cycles and **does not depend on queue
  state** — retry and accept cost the same, so timing leaks nothing
  (Fig. 6, Takeaway 3);
* the ZF answer itself leaks the queue-full condition to any unprivileged
  submitter, which is the entire ``DSA_SWQ`` side channel.

The PASID travels with the submission (from the process context that
mapped the portal), so a submitter can never impersonate another process —
the leak is the *accept/retry* bit, not the payload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from repro.dsa.descriptor import BatchDescriptor, Descriptor
from repro.dsa.device import DsaDevice, SubmissionTicket
from repro.dsa.wq import WqMode
from repro.errors import CompletionTimeoutError, ConfigurationError, QueueFullError
from repro.faults.plan import FaultSite
from repro.hw.pcie import TransactionKind

#: Core-side cost of the enqcmd instruction path, excluding the DMWr
#: round trip (which the PCIe link charges).  Total lands near the
#: paper's ~700-cycle constant submission latency.
ENQCMD_SW_CYCLES = 510

#: movdir64b is a posted write: cheaper, no answer.
MOVDIR_SW_CYCLES = 160

#: Privileged-DMWr mitigation: the constant submission slot unprivileged
#: enqcmd is padded to, and the internal hardware retry budget inside it.
HIDDEN_DMWR_SLOT_CYCLES = 3600
HIDDEN_DMWR_RETRIES = 4


@dataclass(frozen=True)
class ProbeResult:
    """Outcome of a polled submission (Listing 1 semantics)."""

    ticket: SubmissionTicket
    latency_cycles: int

    @property
    def record(self):
        """The completion record (written by the time the poll returned)."""
        return self.ticket.record


class Portal:
    """One process's mapping of a work-queue portal page.

    Parameters
    ----------
    device:
        The DSA.
    wq_id:
        The portal's work queue.
    pasid:
        The opener's PASID — stamped into every submission, as ``enqcmd``
        does from the IA32_PASID MSR.
    """

    def __init__(
        self, device: DsaDevice, wq_id: int, pasid: int, privileged: bool = False
    ) -> None:
        self.device = device
        self.wq_id = wq_id
        self.pasid = pasid
        self.privileged = privileged
        self.clock = device.clock
        self.last_ticket: SubmissionTicket | None = None
        self.hidden_dmwr_drops = 0
        self.faults_injected = 0
        #: Set when the opener is destroyed: the mapping is gone.
        self.closed = False

    def _submission_fault(self, descriptor: Descriptor | BatchDescriptor) -> bool:
        """Consult the device's fault injector (callers check it has one)
        at the portal-write site.

        Applies an injected delay, then reports whether the write was
        dropped outright.  A dropped write looks *accepted* to software
        (ZF clear / posted write) — the loss is only observable through
        the never-arriving completion record.
        """
        injector = self.device.fault_injector
        delay = injector.fire(
            FaultSite.SUBMISSION_DELAY,
            timestamp=self.clock.now,
            pasid=self.pasid,
            wq_id=self.wq_id,
        )
        if delay is not None:
            self.faults_injected += 1
            self.clock.advance(delay.magnitude_cycles)
            injector.acknowledge(delay, action="submission-delayed")
        drop = injector.fire(
            FaultSite.SUBMISSION_DROP,
            timestamp=self.clock.now,
            pasid=self.pasid,
            wq_id=self.wq_id,
        )
        if drop is None:
            return False
        self.faults_injected += 1
        self.device.advance_to(self.clock.now)
        self.last_ticket = None
        injector.acknowledge(drop, action="submission-dropped")
        return True

    # ------------------------------------------------------------------
    # Raw submission instructions
    # ------------------------------------------------------------------
    def enqcmd(self, descriptor: Descriptor | BatchDescriptor) -> bool:
        """Submit via DMWr; return the ``EFLAGS.ZF`` value.

        ``True`` (ZF set) means *retry*: the queue was full and nothing
        was enqueued.  Latency is charged identically either way.
        """
        if self.closed:
            raise self._closed_error()
        device = self.device
        if device.queue_space.get(self.wq_id).config.mode is not WqMode.SHARED:
            self._narrate("reject", instruction="enqcmd")
            raise ConfigurationError(
                f"enqcmd targets shared queues; WQ {self.wq_id} is dedicated"
            )
        if descriptor.pasid != self.pasid:
            descriptor = self._stamp_pasid(descriptor)
        if device.config.dmwr_privileged and not self.privileged:
            return self._enqcmd_hidden(descriptor)
        now = self.clock.advance(
            ENQCMD_SW_CYCLES + device.link.transaction_cycles(TransactionKind.DMWR)
        )
        if device.fault_injector is not None:
            if self._submission_fault(descriptor):
                return False
            now = self.clock.now  # an injected delay moved the clock
        zf, ticket = device.submit(self.wq_id, descriptor, now)
        self.last_ticket = ticket
        return zf

    def _enqcmd_hidden(self, descriptor: Descriptor | BatchDescriptor) -> bool:
        """The privileged-DMWr mitigation path (Section VII).

        The hardware retries internally inside a fixed time slot and the
        architectural ZF always reads 0, so queue state never reaches an
        unprivileged submitter.  A submission that still cannot be placed
        is dropped silently (software notices via the missing completion
        record), which is the mitigation's compatibility cost.
        """
        slot_cycles = HIDDEN_DMWR_SLOT_CYCLES
        start = self.clock.now
        accepted = False
        for _ in range(HIDDEN_DMWR_RETRIES):
            cycles = ENQCMD_SW_CYCLES + self.device.link.transaction_cycles(
                TransactionKind.DMWR
            )
            self.clock.advance(cycles)
            zf, ticket = self.device.submit(self.wq_id, descriptor, self.clock.now)
            if not zf:
                self.last_ticket = ticket
                accepted = True
                break
        if not accepted:
            self.hidden_dmwr_drops += 1
            self.last_ticket = None
        # Pad to the constant slot so the retry count leaks no timing.
        self.clock.advance_to(start + slot_cycles)
        self.device.advance_to(self.clock.now)
        return False

    def movdir64b(self, descriptor: Descriptor | BatchDescriptor) -> None:
        """Submit via a posted 64-byte write (dedicated queues only).

        Real hardware gives no feedback; software tracks occupancy.  A
        full queue therefore raises :class:`QueueFullError` to flag the
        software bug the model cannot otherwise express.
        """
        if self.closed:
            raise self._closed_error()
        wq = self.device.wq(self.wq_id)
        if wq.config.mode is not WqMode.DEDICATED:
            self._narrate("reject", instruction="movdir64b")
            raise ConfigurationError(
                f"movdir64b targets dedicated queues; WQ {self.wq_id} is shared"
            )
        if descriptor.pasid != self.pasid:
            descriptor = self._stamp_pasid(descriptor)
        cycles = MOVDIR_SW_CYCLES + self.device.link.transaction_cycles(
            TransactionKind.POSTED_WRITE
        )
        self.clock.advance(cycles)
        if self.device.fault_injector is not None and self._submission_fault(descriptor):
            return
        zf, ticket = self.device.submit(self.wq_id, descriptor, self.clock.now)
        if zf:
            wq = self.device.wq(self.wq_id)
            raise QueueFullError(
                f"movdir64b to full dedicated WQ {self.wq_id} (undefined on "
                f"real hardware)",
                wq_id=self.wq_id,
                occupancy=wq.occupancy,
                capacity=wq.config.size,
            )
        self.last_ticket = ticket

    # ------------------------------------------------------------------
    # Convenience paths
    # ------------------------------------------------------------------
    def submit(self, descriptor: Descriptor | BatchDescriptor) -> SubmissionTicket:
        """Submit through the queue's native instruction; raise when full."""
        wq = self.device.queue_space.get(self.wq_id)
        if wq.config.mode is WqMode.DEDICATED:
            self.movdir64b(descriptor)
        else:
            if self.enqcmd(descriptor):
                raise QueueFullError(
                    f"WQ {self.wq_id} is full",
                    wq_id=self.wq_id,
                    occupancy=wq.occupancy,
                    capacity=wq.config.size,
                )
        if self.last_ticket is None:
            # The portal write was lost in flight (injected fault): hand
            # back a ticket that will never complete, exactly what the
            # submitting software believes it owns.
            self.last_ticket = SubmissionTicket(
                descriptor=descriptor, wq_id=self.wq_id, enqueue_time=self.clock.now
            )
        return self.last_ticket

    def submit_wait(
        self,
        descriptor: Descriptor | BatchDescriptor,
        spin_cycles: int = 200,
        timeout_cycles: int | None = None,
    ) -> ProbeResult:
        """Submit and poll the completion record (Listing 1).

        Returns the completion and the *polled latency*: the cycles from
        just after submission to the poll observing a non-zero status —
        the quantity every timing attack in the paper thresholds.
        *timeout_cycles* bounds the poll (see :meth:`wait`).
        """
        ticket = self.submit(descriptor)
        start = self.clock.rdtsc()
        self.wait(ticket, spin_cycles=spin_cycles, timeout_cycles=timeout_cycles)
        end = self.clock.rdtsc()
        return ProbeResult(ticket=ticket, latency_cycles=end - start)

    def wait(
        self,
        ticket: SubmissionTicket,
        spin_cycles: int = 200,
        timeout_cycles: int | None = None,
    ) -> None:
        """Poll until *ticket* completes (advances the shared clock).

        With *timeout_cycles* set, the poll gives up after that many
        cycles and raises :class:`~repro.errors.CompletionTimeoutError` —
        the only way software can observe a lost submission.

        The poll spins every *spin_cycles*, but a spin that ends before
        the device's :attr:`~repro.dsa.device.DsaDevice.next_event` (or
        the deadline) cannot see a change, so the spins up to the first
        one that reaches it are taken in one clock step and one replay
        call.  The clock values and device state are those of spinning
        one by one; with neither an event nor a deadline ahead, it spins
        one at a time, so a lost write without a timeout still hangs.
        """
        device = self.device
        clock = self.clock
        now = clock.now
        deadline = None if timeout_cycles is None else now + timeout_cycles
        while ticket.completion_time is None:
            if deadline is not None and now >= deadline:
                self._narrate("timeout")
                raise CompletionTimeoutError(
                    f"WQ {self.wq_id}: no completion record after "
                    f"{timeout_cycles} cycles",
                    wq_id=self.wq_id,
                    waited_cycles=timeout_cycles,
                )
            target = device.next_event
            if deadline is not None and deadline < target:
                target = deadline
            # Take every spin up to the first one that reaches the target.
            spins = 1 if target == math.inf else max(1, -((now - target) // spin_cycles))
            now = clock.advance(spins * spin_cycles)
            device.advance_to(now)
        detect = device.config.timing.poll_detect_cycles
        device.advance_to(clock.advance_to(ticket.completion_time + detect))

    def _closed_error(self) -> ConfigurationError:
        return ConfigurationError(
            f"portal for WQ {self.wq_id} is closed: PASID {self.pasid}'s"
            " process was destroyed"
        )

    def _narrate(self, kind: str, **context: str) -> None:
        monitor = self.device.invariant_monitor
        if monitor is not None:
            monitor.note(kind, self.clock.now, wq_id=self.wq_id, pasid=self.pasid, **context)

    def _stamp_pasid(
        self, descriptor: Descriptor | BatchDescriptor
    ) -> Descriptor | BatchDescriptor:
        """The submission as the portal sends it: with the opener's PASID."""
        return replace(descriptor, pasid=self.pasid)
