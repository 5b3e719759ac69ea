"""Section IV reverse-engineering experiments.

Re-runs, against the model, every microbenchmark the paper used to
reverse-engineer the DSA — each returns the observation the paper
reports, so the suite doubles as a regression test of the
reverse-engineered microarchitecture:

* **Listing 2** — single-slot, page-granular DevTLB sub-entries.
* **Listing 3** — ``dst`` indexed independently of ``src``.
* **Listing 4** — ``src2`` and ``dst`` share encoding bits but not
  sub-entries.
* huge-page conflict — no dedicated entries per page size.
* cross-page — ``EV_ATC_ALLOC`` rises per page, only the final page
  stays cached.
* batch fetcher — bypasses the DevTLB entirely.
* **Fig. 5 / E0, E1, E2** — PASID/engine indexing of the DevTLB.
* **Listing 5** — the arbiter prioritizes work descriptors over batches.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ats.devtlb import FieldType
from repro.core.primitives import Prober
from repro.dsa.batch import write_batch_list
from repro.dsa.descriptor import BatchDescriptor, make_memcpy, make_noop
from repro.dsa.perfmon import Perfmon
from repro.experiments.runner import (
    ExperimentPlan,
    TrialSpec,
    require_all,
)
from repro.hw.units import HUGE_PAGE_SIZE, PAGE_SIZE
from repro.virt.system import AttackTopology, CloudSystem


@dataclass
class ReverseEngineeringResults:
    """One boolean (did the model reproduce the paper's observation?) and
    one description per experiment."""

    observations: dict[str, bool] = field(default_factory=dict)
    details: dict[str, str] = field(default_factory=dict)

    def record(self, name: str, observed: bool, detail: str) -> None:
        """Store one experiment's outcome."""
        self.observations[name] = observed
        self.details[name] = detail

    @property
    def all_reproduced(self) -> bool:
        """True when every observation matches the paper."""
        return all(self.observations.values())


def _fresh_system(seed: int = 11) -> tuple[CloudSystem, Prober, Perfmon]:
    system = CloudSystem(seed=seed)
    system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
    attacker = system.vms["attacker-vm"].process("attacker")
    prober = Prober(attacker, wq_id=0)
    perfmon = Perfmon(system.device, privileged=True)
    return system, prober, perfmon


def listing2_single_slot(results: ReverseEngineeringResults) -> None:
    """Listing 2: base / base+OFFSET / base — hit only within the page."""
    system, prober, perfmon = _fresh_system()
    base = prober.fresh_comp()

    # OFFSET < 4 KiB: two hits on re-probes of the same page.
    before = perfmon.snapshot()
    prober.probe_noop(base)
    prober.probe_noop(base + 0x40)
    prober.probe_noop(base)
    hits_same_page = perfmon.snapshot()["EV_ATC_HIT_PREV"] - before["EV_ATC_HIT_PREV"]

    # OFFSET >= 4 KiB: the second access evicts, the third misses.
    # (Counting starts after the prime, as in the paper's listing.)
    base2 = prober.fresh_comp()
    evictor = prober.fresh_comp()
    prober.probe_noop(base2)
    before = perfmon.snapshot()
    prober.probe_noop(evictor)
    prober.probe_noop(base2)
    hits_cross_page = perfmon.snapshot()["EV_ATC_HIT_PREV"] - before["EV_ATC_HIT_PREV"]

    observed = hits_same_page == 2 and hits_cross_page == 0
    results.record(
        "listing2_single_slot",
        observed,
        f"same-page hits={hits_same_page} (paper: 2), "
        f"cross-page hits={hits_cross_page} (paper: 0) -> direct-mapped, "
        f"single slot, page granularity",
    )


def listing3_independent_fields(results: ReverseEngineeringResults) -> None:
    """Listing 3: changing src does not evict the dst sub-entry."""
    system, prober, perfmon = _fresh_system()
    src0, src1, dst0 = prober.fresh_page(), prober.fresh_page(), prober.fresh_page()
    comp = prober.fresh_comp()
    prober.probe_memcpy(src0, dst0, comp)  # prime
    before = perfmon.snapshot()
    prober.probe_memcpy(src1, dst0, comp)  # new src page, same dst
    delta = perfmon.snapshot()["EV_ATC_HIT_PREV"] - before["EV_ATC_HIT_PREV"]
    # dst hits, comp hits; src misses.
    observed = delta == 2
    results.record(
        "listing3_independent_fields",
        observed,
        f"hits on re-probe with changed src = {delta} (dst+comp; src misses) "
        f"-> dst has its own sub-entry",
    )


def listing4_src2_dst_no_interference(results: ReverseEngineeringResults) -> None:
    """Listing 4: src2 and dst share encoding bits, not sub-entries."""
    system, prober, perfmon = _fresh_system()
    src = prober.fresh_page()
    shared_page = prober.fresh_page()  # used as src2 then as dst
    comp = prober.fresh_comp()
    prober.probe_memcmp(src, shared_page, comp)
    before = perfmon.snapshot()
    prober.probe_memcpy(src, shared_page, comp)
    delta = perfmon.snapshot()["EV_ATC_HIT_PREV"] - before["EV_ATC_HIT_PREV"]
    # Expected hits: src and comp only — the dst access misses although the
    # same page sits in the src2 sub-entry.
    observed = delta == 2
    results.record(
        "listing4_no_interference",
        observed,
        f"hits={delta} (src+comp; dst missed despite page cached as src2) "
        f"-> no cross-field interference",
    )


def huge_page_conflict(results: ReverseEngineeringResults) -> None:
    """A 2 MiB-page access evicts a 4 KiB entry in the same sub-entry."""
    system, prober, perfmon = _fresh_system()
    base = prober.fresh_comp()
    attacker = system.vms["attacker-vm"].process("attacker")
    huge = attacker.space.mmap(HUGE_PAGE_SIZE, huge=True)
    prober.probe_noop(base)
    prober.probe_noop(huge)  # huge-page completion record
    before = perfmon.snapshot()
    prober.probe_noop(base)
    delta = perfmon.snapshot()["EV_ATC_HIT_PREV"] - before["EV_ATC_HIT_PREV"]
    results.record(
        "huge_page_conflict",
        delta == 0,
        f"hits after huge-page conflict = {delta} (paper: eviction) "
        f"-> no dedicated entries per page size",
    )


def cross_page_behavior(results: ReverseEngineeringResults) -> None:
    """Cross-page transfers: one translation request per page; only the
    final page remains cached."""
    system, prober, perfmon = _fresh_system()
    attacker = system.vms["attacker-vm"].process("attacker")
    src = attacker.buffer(4 * PAGE_SIZE)
    dst = attacker.buffer(4 * PAGE_SIZE)
    comp = prober.fresh_comp()
    portal = attacker.portal(0)

    before = perfmon.snapshot()
    portal.submit_wait(make_memcpy(attacker.pasid, src, dst, 3 * PAGE_SIZE, comp))
    delta_alloc = perfmon.snapshot()["EV_ATC_ALLOC"] - before["EV_ATC_ALLOC"]
    # 3 pages src + 3 pages dst + 1 comp = 7 requests.
    requests_ok = delta_alloc == 7

    # Final-page caching: a follow-up descriptor reading the last src page
    # hits; reading the first src page misses.
    last_page_hit = system.device.devtlb.peek(
        0, FieldType.SRC, (src + 2 * PAGE_SIZE) >> 12, attacker.pasid
    )
    first_page_cached = system.device.devtlb.peek(
        0, FieldType.SRC, src >> 12, attacker.pasid
    )
    observed = requests_ok and last_page_hit and not first_page_cached
    results.record(
        "cross_page_behavior",
        observed,
        f"EV_ATC_ALLOC +{delta_alloc} for a 3-page memcpy (paper: per-page "
        f"requests); final page cached={last_page_hit}, first page "
        f"cached={first_page_cached}",
    )


def batch_fetcher_bypass(results: ReverseEngineeringResults) -> None:
    """Batch fetcher reads and its completion write bypass the DevTLB."""
    system, prober, perfmon = _fresh_system()
    attacker = system.vms["attacker-vm"].process("attacker")
    portal = attacker.portal(0)
    list_addr = attacker.buffer(PAGE_SIZE)
    batch_comp = attacker.comp_record()
    children = [make_noop(attacker.pasid, attacker.comp_record())]
    write_batch_list(attacker.space, list_addr, children)
    batch = BatchDescriptor(
        pasid=attacker.pasid, desc_list_addr=list_addr, count=1,
        completion_addr=batch_comp,
    )
    ticket = portal.submit(batch)
    portal.wait(ticket)
    devtlb = system.device.devtlb
    cached = set()
    for ftype in FieldType:
        cached.update(devtlb.cached_pages(0, ftype))
    observed = (list_addr >> 12) not in cached and (batch_comp >> 12) not in cached
    results.record(
        "batch_fetcher_bypass",
        observed,
        "neither the descriptor-list page nor the batch completion page "
        "was cached -> batch fetcher bypasses the DevTLB",
    )


def fig5_indexing(results: ReverseEngineeringResults) -> None:
    """E0/E1/E2: the DevTLB is engine-indexed and not PASID-isolated."""
    outcomes = {}
    for topology, expect_eviction in (
        (AttackTopology.E0_SHARED_WQ_SHARED_ENGINE, True),
        (AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE, True),
        (AttackTopology.E2_SEPARATE_WQ_SEPARATE_ENGINE, False),
    ):
        system = CloudSystem(seed=13)
        handles = system.setup_topology(topology)
        attacker, victim = handles.attacker, handles.victim
        a_portal = attacker.portal(handles.attacker_wq)
        v_portal = victim.portal(handles.victim_wq)
        a_comp = attacker.comp_record()
        v_comp = victim.comp_record()
        a_portal.submit_wait(make_noop(attacker.pasid, a_comp))  # prime
        v_portal.submit_wait(make_noop(victim.pasid, v_comp))  # victim acts
        probe = a_portal.submit_wait(make_noop(attacker.pasid, a_comp))
        evicted = probe.latency_cycles >= 750
        outcomes[topology.value] = evicted == expect_eviction
    results.record(
        "fig5_indexing",
        all(outcomes.values()),
        f"E0 eviction, E1 eviction, E2 no eviction reproduced: {outcomes} "
        f"-> indexed by engine, not isolated by PASID or WQ",
    )


def listing5_arbiter(results: ReverseEngineeringResults) -> None:
    """Listing 5: work-descriptor latency is order-independent w.r.t. a
    concurrently submitted batch descriptor."""
    def work_latency(batch_first: bool) -> float:
        system = CloudSystem(seed=17)
        system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        attacker = system.vms["attacker-vm"].process("attacker")
        portal = attacker.portal(0)
        list_addr = attacker.buffer(PAGE_SIZE)
        children = [make_noop(attacker.pasid, attacker.comp_record()) for _ in range(4)]
        write_batch_list(attacker.space, list_addr, children)
        batch = BatchDescriptor(
            pasid=attacker.pasid, desc_list_addr=list_addr, count=4,
            completion_addr=attacker.comp_record(),
        )
        work = make_noop(attacker.pasid, attacker.comp_record())
        latencies = []
        for _ in range(20):
            if batch_first:
                portal.enqcmd(batch)
                work_ticket = portal.submit(work)
            else:
                work_ticket = portal.submit(work)
                portal.enqcmd(batch)
            portal.wait(work_ticket)
            latencies.append(work_ticket.completion_time - work_ticket.enqueue_time)
            system.clock.advance(200_000)
            system.device.advance_to(system.clock.now)
        return float(sum(latencies) / len(latencies))

    batch_first = work_latency(batch_first=True)
    work_first = work_latency(batch_first=False)
    ratio = batch_first / work_first if work_first else float("inf")
    observed = 0.5 <= ratio <= 2.0  # "nearly identical across permutations"
    results.record(
        "listing5_arbiter",
        observed,
        f"work-descriptor latency with batch first {batch_first:.0f} vs "
        f"work first {work_first:.0f} cycles (ratio {ratio:.2f}) -> the "
        f"arbiter prioritizes work descriptors regardless of arrival order",
    )


def listing6_swq_arithmetic(results: ReverseEngineeringResults) -> None:
    """Listing 6 / Takeaway 3: wq_size-1 descriptors leave exactly one
    free slot; the victim's single submission makes the probe's ZF fire;
    submission latency stays flat either way."""
    from repro.core.swq_attack import DsaSwqAttack
    from repro.dsa.descriptor import Descriptor
    from repro.dsa.opcodes import DescriptorFlags, Opcode
    from repro.hw.units import us_to_cycles

    def run_round(victim_submits: bool) -> tuple[bool, float]:
        system = CloudSystem(seed=19)
        handles = system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
        attack = DsaSwqAttack(handles.attacker, wq_id=0, anchor_bytes=1 << 21)
        victim = handles.victim
        portal = victim.portal(0)
        noop = Descriptor(
            opcode=Opcode.NOOP, pasid=victim.pasid, flags=DescriptorFlags.NONE
        )
        submission_cycles = float("nan")
        if victim_submits:
            def submit():
                nonlocal submission_cycles
                before = system.clock.now
                portal.enqcmd(noop)
                submission_cycles = system.clock.now - before

            system.timeline.schedule_after_us(20, submit)
        result = attack.run_round(
            idle_cycles=us_to_cycles(40), timeline=system.timeline
        )
        return result.victim_detected, submission_cycles

    detected_active, latency_active = run_round(victim_submits=True)
    detected_quiet, _ = run_round(victim_submits=False)
    observed = detected_active and not detected_quiet and 500 < latency_active < 900
    results.record(
        "listing6_swq_arithmetic",
        observed,
        f"victim submission detected={detected_active}, quiet round "
        f"detected={detected_quiet}, victim submission latency "
        f"{latency_active:.0f} cycles (flat ~700 even into a congested "
        f"queue) -> ZF is the only observable",
    )


#: The Section IV microbenchmarks, in paper order.
MICROBENCHMARKS = (
    listing2_single_slot,
    listing3_independent_fields,
    listing4_src2_dst_no_interference,
    huge_page_conflict,
    cross_page_behavior,
    batch_fetcher_bypass,
    fig5_indexing,
    listing5_arbiter,
    listing6_swq_arithmetic,
)


def _run_microbenchmark(bench) -> ReverseEngineeringResults:
    results = ReverseEngineeringResults()
    bench(results)
    return results


def trial_plan() -> ExperimentPlan:
    """One checkpointable trial per microbenchmark (each builds its own
    fresh system); all are required — the suite is a regression test."""
    keys = [f"bench/{bench.__name__}" for bench in MICROBENCHMARKS]
    trials = tuple(
        TrialSpec(
            key=key,
            fn=lambda bench=bench: _run_microbenchmark(bench),
        )
        for key, bench in zip(keys, MICROBENCHMARKS)
    )

    def finalize(results: dict) -> ReverseEngineeringResults:
        merged = ReverseEngineeringResults()
        for partial in require_all(results, keys, "re"):
            merged.observations.update(partial.observations)
            merged.details.update(partial.details)
        return merged

    return ExperimentPlan(
        name="re",
        seed=11,
        config=dict(),
        trials=trials,
        finalize=finalize,
        min_successes=len(trials),
    )


def report(results: ReverseEngineeringResults) -> str:
    """Text report of the suite."""
    lines = ["Section IV reverse-engineering observations:"]
    for name, observed in results.observations.items():
        status = "reproduced" if observed else "NOT REPRODUCED"
        lines.append(f"  [{status}] {name}: {results.details[name]}")
    return "\n".join(lines)
