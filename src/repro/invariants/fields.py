"""Monitor-guarded state fields and their owning modules.

The runtime checkers in :mod:`repro.invariants.checkers` verify
conservation laws over a handful of model state fields (queue occupancy
registers, completion records, DevTLB slot lists, the TSC counter).
Those laws are only as strong as the guarantee that the fields mutate in
exactly one place: a stray ``ticket.record = ...`` in an experiment
module would bypass both the slot-release accounting and the
exactly-once completion check.

:data:`FIELD_OWNERS` is the static half of that guarantee — the same
pattern as :data:`repro.faults.sites.SITE_OWNERS` — and the SIM002 lint
rule (:mod:`repro.lint.rules.sim002_guarded_fields`) enforces it over
the tree.  The runtime half is the
:class:`~repro.invariants.monitor.InvariantMonitor` itself, which audits
the fields' *values* at model step points.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping

#: Guarded field name -> modules allowed to mutate it (assignment,
#: augmented assignment, item assignment or deletion, a mutating
#: container-method call, or a mutating module function).  Every other
#: module may only read.
FIELD_OWNERS: Mapping[str, tuple[str, ...]] = MappingProxyType(
    {
        # WQ credit conservation: the per-queue occupancy register.
        "_outstanding": ("repro.dsa.wq",),
        # Entry storage: the WQ deque, the DevTLB sub-entry map, and the
        # PASID/IOTLB tables all use this conventional name.
        "_entries": (
            "repro.dsa.wq",
            "repro.ats.devtlb",
            "repro.ats.iotlb",
            "repro.ats.pasid",
        ),
        # Dispatch gate: entries awaiting dispatch across all queues.
        "_pending_work": ("repro.dsa.device",),
        # Replay gate: lower bound on the next replay event; an outside
        # write could make advance_to skip a dispatch or retirement.
        "_wake": ("repro.dsa.device",),
        # Batch-buffer count: an outside write could make the replay
        # gate skip a buffered batch child's availability.
        "_buffered": ("repro.dsa.device",),
        # Cached earliest completion and queued-batch count: an outside
        # write could make advance_to skip a retirement, or a dispatch
        # pass skip a busy engine while a batch parent waits.
        "_next_completion": ("repro.dsa.device",),
        "_queued_batches": ("repro.dsa.device",),
        # Lane choice: a lock's live-waiter count; an outside write
        # would steer sessions to the wrong lane queue.
        "_live_waiters": ("repro.service.loop",),
        # Exactly-once completion: only the device writes records and
        # ticket lifecycle timestamps.
        "record": ("repro.dsa.device",),
        "pending_record": ("repro.dsa.device",),
        "completion_time": ("repro.dsa.device",),
        "dispatch_time": ("repro.dsa.device",),
        "children_pending": ("repro.dsa.device",),
        # Engine occupancy: the in-flight descriptor list, kept sorted
        # by completion time.
        "inflight": ("repro.dsa.engine",),
        # DevTLB slot lists inside each sub-entry.
        "slots": ("repro.ats.devtlb",),
        # Timeline monotonicity: the TSC counter itself.
        "_now": ("repro.hw.clock",),
    }
)

#: Container-method calls that mutate their receiver.  ``X.field.append(...)``
#: counts as a mutation of ``field`` when the method is listed here.
MUTATING_METHODS: frozenset[str] = frozenset(
    {
        "append",
        "appendleft",
        "clear",
        "extend",
        "insert",
        "pop",
        "popitem",
        "popleft",
        "remove",
        "setdefault",
        "update",
    }
)

#: Module functions that mutate their first argument in place.
#: ``bisect.insort(X.field, ...)`` counts as a mutation of ``field``.
MUTATING_FUNCTIONS: frozenset[str] = frozenset(
    {
        "bisect.insort",
        "bisect.insort_left",
        "bisect.insort_right",
        "heapq.heapify",
        "heapq.heappop",
        "heapq.heappush",
        "heapq.heappushpop",
        "heapq.heapreplace",
    }
)
