"""The reverse-engineered DSA Device TLB (Address Translation Cache).

Section IV-B of the paper establishes, via the Perfmon events of Table I,
that DSA's DevTLB:

* is indexed first by **engine ID**, then by the **descriptor field type**
  the access belongs to — ``src``, ``src2``, ``dst``, ``dst2``, or the
  completion-record address ``comp`` (Takeaways 1 and 2);
* holds exactly **one slot** per ``(engine, field)`` sub-entry, so any
  access to a different page directly evicts the previous entry;
* caches translations at page granularity (the low 12 bits are ignored)
  and keeps **no dedicated entries per page size** — a huge-page access
  evicts a 4 KiB entry in the same sub-entry;
* carries **no PASID tag**: processes in different VMs sharing an engine
  share the sub-entries, which is the vulnerability behind
  ``DSA_DevTLB``;
* caches only the translation of the **final page segment** of a
  cross-page transfer (the engine model enforces this by issuing one
  :meth:`DevTlb.access` per page segment in order);
* is bypassed entirely by the batch fetcher's descriptor reads and
  completion writes (enforced by the batch-engine model).

The three Perfmon events are modeled exactly as the paper uses them:
``EV_ATC_ALLOC`` counts every translation request, ``EV_ATC_NO_ALLOC``
counts requests that did *not* replace an entry (i.e. hits), and
``EV_ATC_HIT_PREV`` counts hits on a previously cached entry.

:class:`DevTlbConfig` also exposes the two knobs the mitigation study
(Section VII) and the ablation benchmarks need: PASID partitioning (the
proposed hardware fix) and the number of slots per sub-entry.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.faults.canary import CANARY_DEVTLB_EVICT, canary_active


class FieldType(enum.Enum):
    """The five descriptor fields that own DevTLB sub-entries (Fig. 3)."""

    SRC = "src"
    SRC2 = "src2"
    DST = "dst"
    DST2 = "dst2"
    COMP = "comp"

    # Members are singletons that compare by identity, so the identity
    # hash is consistent with equality; it spares every sub-entry lookup
    # the Python-level ``Enum.__hash__``.
    __hash__ = object.__hash__


#: Number of sub-entries per engine — one per field type.
SUB_ENTRIES_PER_ENGINE = len(FieldType)


@dataclass(frozen=True)
class DevTlbConfig:
    """Structural configuration of the DevTLB.

    The defaults model the real device as reverse-engineered.  The other
    settings exist for the mitigation study and ablations:

    ``pasid_partitioned``
        When ``True``, entries are tagged by PASID (the hardware defense
        proposed in Section VII); cross-PASID eviction and cross-PASID hits
        both disappear.
    ``slots_per_subentry``
        Associativity of each sub-entry (the real device has 1); eviction
        within a sub-entry is LRU when more than one slot exists.
    """

    pasid_partitioned: bool = False
    slots_per_subentry: int = 1

    def __post_init__(self) -> None:
        if self.slots_per_subentry < 1:
            raise ValueError("slots_per_subentry must be at least 1")


@dataclass
class DevTlbStats:
    """The Table I Perfmon events, as raw counters."""

    alloc_requests: int = 0  # EV_ATC_ALLOC  (0x2 / 0x40)
    no_alloc: int = 0  # EV_ATC_NO_ALLOC (0x2 / 0x80)
    hits: int = 0  # EV_ATC_HIT_PREV (0x2 / 0x100)

    def snapshot(self) -> "DevTlbStats":
        """Return a copy (used to diff counters around an experiment)."""
        return DevTlbStats(self.alloc_requests, self.no_alloc, self.hits)

    def delta(self, before: "DevTlbStats") -> "DevTlbStats":
        """Return the counter increase since *before*."""
        return DevTlbStats(
            alloc_requests=self.alloc_requests - before.alloc_requests,
            no_alloc=self.no_alloc - before.no_alloc,
            hits=self.hits - before.hits,
        )


@dataclass
class _Slot:
    """One cached translation."""

    base_vpn: int  # first 4 KiB page covered
    pages: int  # coverage in 4 KiB pages (1 or 512)
    pasid: int  # only compared when partitioned


@dataclass
class _SubEntry:
    """The slot list of one (engine, field) sub-entry; front = LRU."""

    slots: list[_Slot] = field(default_factory=list)


class DevTlb:
    """The device-side TLB shared by all work queues of each engine."""

    def __init__(self, config: DevTlbConfig | None = None) -> None:
        self.config = config or DevTlbConfig()
        self._entries: dict[tuple, _SubEntry] = {}
        self.stats = DevTlbStats()
        self._per_engine: dict[int, DevTlbStats] = {}
        self.invariant_monitor = None

    def _evict_limit(self) -> int:
        """Slot count at which a miss evicts the sub-entry's LRU slot."""
        limit = self.config.slots_per_subentry
        if canary_active(CANARY_DEVTLB_EVICT):
            # Seeded canary bug (REPRO_FUZZ_CANARY=devtlb-evict): the
            # eviction check runs one slot too late, letting a sub-entry
            # exceed its associativity — the devtlb census audit must
            # catch the oversized slot list.
            limit += 1
        return limit

    # ------------------------------------------------------------------
    # Lookup / fill
    # ------------------------------------------------------------------
    def _sub_entry(self, engine_id: int, field_type: FieldType, pasid: int) -> _SubEntry:
        # The proposed hardware fix partitions the structure by PASID:
        # each PASID owns private sub-entries, so no cross-tenant hit
        # *or eviction* is possible.  The real device has one shared
        # sub-entry per (engine, field).
        if self.config.pasid_partitioned:
            key: tuple = (engine_id, field_type, pasid)
        else:
            key = (engine_id, field_type)
        sub = self._entries.get(key)
        if sub is None:
            sub = _SubEntry()
            self._entries[key] = sub
        return sub

    def _engine_stats(self, engine_id: int) -> DevTlbStats:
        stats = self._per_engine.get(engine_id)
        if stats is None:
            stats = DevTlbStats()
            self._per_engine[engine_id] = stats
        return stats

    def _hit_index(self, slots: list[_Slot], vpn: int, pasid: int) -> int:
        """Index of the slot that translates *vpn* for *pasid*, or -1."""
        partitioned = self.config.pasid_partitioned
        for index, slot in enumerate(slots):
            if slot.base_vpn <= vpn < slot.base_vpn + slot.pages and (
                not partitioned or slot.pasid == pasid
            ):
                return index
        return -1

    def access(
        self,
        engine_id: int,
        field_type: FieldType,
        virtual_page: int,
        pasid: int,
        huge: bool = False,
        stream_pages: int = 1,
    ) -> bool:
        """One translation request from an engine's processing unit.

        Returns ``True`` on a DevTLB hit.  On a miss, the new translation
        replaces the sub-entry's LRU slot, which models the paper's
        "the new entry evicts the old one directly" (Takeaway 1).
        *stream_pages*, the page count of the stream this request
        starts, only feeds the ``devtlb`` event.
        """
        slots = self._sub_entry(engine_id, field_type, pasid).slots
        engine_stats = self._engine_stats(engine_id)
        stats = self.stats
        stats.alloc_requests += 1
        engine_stats.alloc_requests += 1

        index = self._hit_index(slots, virtual_page, pasid)
        if index >= 0:
            stats.hits += 1
            stats.no_alloc += 1
            engine_stats.hits += 1
            engine_stats.no_alloc += 1
            if index != len(slots) - 1:
                slots.append(slots.pop(index))  # mark MRU
            outcome = "hit"
        else:
            pages = 512 if huge else 1
            base_vpn = virtual_page - (virtual_page % pages) if huge else virtual_page
            new_slot = _Slot(base_vpn=base_vpn, pages=pages, pasid=pasid)
            outcome = "miss"
            if len(slots) >= self._evict_limit():
                evicted = slots.pop(0)
                outcome = "evict" if evicted.pasid == pasid else "evict-xpasid"
            slots.append(new_slot)
        if self.invariant_monitor is not None:
            # ``_value_``: the ``.value`` property costs a Python call.
            self.invariant_monitor.note(
                "devtlb",
                engine_id=engine_id,
                pasid=pasid,
                field=field_type._value_,
                span="multi" if stream_pages > 1 else "single",
                outcome=outcome,
            )
        return outcome == "hit"

    def fill(
        self,
        engine_id: int,
        field_type: FieldType,
        virtual_page: int,
        pasid: int,
        huge: bool = False,
    ) -> None:
        """Install a translation without touching the event counters.

        Used by the engine's bulk cross-page path: the counters for the
        skipped pages are adjusted arithmetically, and this leaves the
        final page cached (the paper's cross-page takeaway).
        """
        sub = self._sub_entry(engine_id, field_type, pasid)
        pages = 512 if huge else 1
        base_vpn = virtual_page - (virtual_page % pages) if huge else virtual_page
        if len(sub.slots) >= self._evict_limit():
            sub.slots.pop(0)
        sub.slots.append(_Slot(base_vpn=base_vpn, pages=pages, pasid=pasid))
        if self.invariant_monitor is not None:
            self.invariant_monitor.note(
                "devtlb", engine_id=engine_id, pasid=pasid, field=field_type._value_, outcome="fill"
            )

    def peek(
        self, engine_id: int, field_type: FieldType, virtual_page: int, pasid: int
    ) -> bool:
        """Non-mutating "would this hit" check (testing/diagnostics only)."""
        key = (
            (engine_id, field_type, pasid)
            if self.config.pasid_partitioned
            else (engine_id, field_type)
        )
        sub = self._entries.get(key)
        return sub is not None and self._hit_index(sub.slots, virtual_page, pasid) >= 0

    # ------------------------------------------------------------------
    # Invalidation and inspection
    # ------------------------------------------------------------------
    def invalidate_engine(self, engine_id: int) -> None:
        """Drop every sub-entry of *engine_id* (device reset path)."""
        for key, sub in self._entries.items():
            if key[0] == engine_id:
                sub.slots.clear()

    def invalidate_all(self) -> None:
        """Drop everything (ATS global invalidate)."""
        for sub in self._entries.values():
            sub.slots.clear()

    def engine_stats(self, engine_id: int) -> DevTlbStats:
        """Return (and lazily create) the counter block of one engine."""
        return self._engine_stats(engine_id)

    def cached_pages(
        self, engine_id: int, field_type: FieldType, pasid: int | None = None
    ) -> list[int]:
        """Base page numbers currently cached in one sub-entry (LRU first).

        With a partitioned DevTLB the sub-entry is per-PASID, so *pasid*
        selects whose partition to inspect.
        """
        if self.config.pasid_partitioned:
            if pasid is None:
                pages = []
                for key, sub in self._entries.items():
                    if key[0] == engine_id and key[1] is field_type:
                        pages.extend(slot.base_vpn for slot in sub.slots)
                return pages
            sub = self._entries.get((engine_id, field_type, pasid))
        else:
            sub = self._entries.get((engine_id, field_type))
        if sub is None:
            return []
        return [slot.base_vpn for slot in sub.slots]

    def census(self) -> "list[tuple[int, str, int | None, tuple[int, ...]]]":
        """A read-only walk over every sub-entry for the invariant audit.

        Yields ``(engine_id, field_name, key_pasid, slot_pasids)`` per
        sub-entry; ``key_pasid`` is ``None`` on the real (unpartitioned)
        device, where sub-entries carry no PASID tag.
        """
        rows = []
        for key, sub in self._entries.items():
            key_pasid = key[2] if self.config.pasid_partitioned else None
            rows.append(
                (
                    key[0],
                    key[1].value,
                    key_pasid,
                    tuple(slot.pasid for slot in sub.slots),
                )
            )
        return rows

    @property
    def occupancy(self) -> int:
        """Total valid slots across all sub-entries."""
        return sum(len(sub.slots) for sub in self._entries.values())
