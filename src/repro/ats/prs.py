"""Page Request Service.

ATS lets the device report major page faults to the OS instead of failing
the transfer (Section II-B).  The model queues page requests and hands
them to a registered handler — in the reproduction the handler is usually
the owning process's "OS", which maps the page on demand.

The request log is bounded (``max_log`` entries, oldest dropped first)
so million-submission runs do not grow memory without limit; ``dropped``
counts rotated-out entries.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import TranslationFault
from repro.faults.plan import FaultSite

#: Round-trip cost of a page request: interrupt the host, run the fault
#: handler, respond to the device.  Page faults are catastrophically slower
#: than any TLB effect, which is why attack buffers are always pre-faulted.
PAGE_REQUEST_CYCLES = 12_000

#: Default bound on the retained request log.
DEFAULT_MAX_LOG = 65_536

PageRequestHandler = Callable[[int, int, bool], bool]


@dataclass(frozen=True)
class PageRequest:
    """One queued device page fault."""

    pasid: int
    virtual_address: int
    write: bool
    timestamp: int


class PageRequestService:
    """Queues device page faults and dispatches them to a handler.

    Parameters
    ----------
    handler:
        The OS-side fault handler (installable later via
        :meth:`set_handler`).
    max_log:
        Retained-log bound; ``None`` keeps every request (unbounded).
    """

    def __init__(
        self,
        handler: PageRequestHandler | None = None,
        max_log: int | None = DEFAULT_MAX_LOG,
    ) -> None:
        if max_log is not None and max_log < 1:
            raise ValueError(f"max_log must be positive or None, got {max_log}")
        self._handler = handler
        self._log: deque[PageRequest] = deque(maxlen=max_log)
        self.resolved = 0
        self.failed = 0
        self.dropped = 0
        self.fault_injector = None
        self.invariant_monitor = None

    def set_handler(self, handler: PageRequestHandler) -> None:
        """Install the OS-side fault handler."""
        self._handler = handler

    def report(self, pasid: int, virtual_address: int, write: bool, timestamp: int) -> int:
        """Report a fault; return the cycles the device stalled.

        Raises :class:`~repro.errors.TranslationFault` when no handler is
        installed or the handler cannot resolve the fault — matching a
        descriptor completing with a page-fault status.  Narrated as one
        ``prs`` event.
        """
        request = PageRequest(pasid, virtual_address, write, timestamp)
        if self._log.maxlen is not None and len(self._log) == self._log.maxlen:
            self.dropped += 1
        self._log.append(request)
        if self.fault_injector is not None:
            drop = self.fault_injector.fire(
                FaultSite.PRS_DROP,
                timestamp=timestamp,
                pasid=pasid,
                address=virtual_address,
            )
        else:
            drop = None
        if drop is not None:
            self.failed += 1
            self.fault_injector.acknowledge(drop, action="prs-request-dropped")
            self._narrate(pasid, "injected-drop")
            raise TranslationFault(
                virtual_address,
                f"injected unresolved device page fault at {virtual_address:#x} "
                f"(PASID {pasid})",
                pasid=pasid,
            )
        if self._handler is not None and self._handler(pasid, virtual_address, write):
            self.resolved += 1
            self._narrate(pasid, "resolved")
            return PAGE_REQUEST_CYCLES
        self.failed += 1
        self._narrate(pasid, "unresolved")
        raise TranslationFault(
            virtual_address,
            f"unresolved device page fault at {virtual_address:#x} (PASID {pasid})",
            pasid=pasid,
        )

    def _narrate(self, pasid: int, outcome: str) -> None:
        if self.invariant_monitor is not None:
            self.invariant_monitor.note("prs", pasid=pasid, outcome=outcome)

    @property
    def log(self) -> tuple[PageRequest, ...]:
        """The retained requests, oldest first (see ``dropped``)."""
        return tuple(self._log)
