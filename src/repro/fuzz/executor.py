"""Case execution and the fuzzer's oracles.

One case = a fresh :class:`~repro.virt.system.CloudSystem` configured
from the campaign topology, a strict-mode
:class:`~repro.invariants.monitor.InvariantMonitor`, and the case's
operation list applied through per-process portals.  Three oracles judge
the run:

* **Invariant oracle** — any :class:`~repro.errors.InvariantViolation`
  (ledger drift, duplicate completion, DevTLB census breach, ...) is a
  finding.
* **Conformance oracle** — typed :class:`~repro.errors.ReproError`
  subclasses are *handled* pipeline outcomes (queue full, poll timeout,
  invalid descriptor, translation fault); any **other** exception
  escaping the model is a finding — the structured-exception catalog
  (docs/errors) promised it could not happen.
* **Fault-contract oracle** — when a fault plan is armed, every injected
  fault must be acknowledged by the component that owns its site
  (the chaos suite's handled-or-detected contract); an unacknowledged
  fault is a finding.

Results carry a stable ``signature`` (kind + detail) used by the
campaign for dedup and by :func:`shrink_case` as its preservation
predicate.  This is the only case runner: the fuzz campaign and the
invariant soak (:mod:`repro.invariants.soak`) are two generators over it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable, Sequence

from repro.dsa.batch import write_batch_list
from repro.dsa.descriptor import (
    COMPLETION_ALIGN,
    BatchDescriptor,
    Descriptor,
    make_noop,
)
from repro.dsa.opcodes import Opcode
from repro.dsa.wq import WorkQueueConfig, WqMode
from repro.errors import InvariantViolation, ReproError
from repro.faults.plan import FaultPlan, FaultSite
from repro.fuzz.coverage import CoverageMap
from repro.fuzz.gen import BUFFER_BYTES, wq_owner
from repro.hw.units import PAGE_SIZE
from repro.invariants.checkers import default_checkers
from repro.invariants.monitor import InvariantMonitor
from repro.invariants.shrink import ddmin
from repro.virt.system import CloudSystem

#: Poll bound for every wait: generous at simulated 2 GHz, but finite so
#: a lost completion surfaces as a handled CompletionTimeoutError.
WAIT_TIMEOUT_CYCLES = 5_000_000

#: Raw descriptors decode 32-bit sizes; transfers are clamped here so a
#: wild size costs bounded simulation work while still overrunning every
#: mapped buffer.
RAW_SIZE_LIMIT = 1 << 18

#: Sites armed by ``FuzzConfig.fault_rate`` (each with the same
#: per-opportunity probability; magnitudes for the duration sites).
FAULT_SITES: "tuple[FaultSite, ...]" = (
    FaultSite.SUBMISSION_DROP,
    FaultSite.SUBMISSION_DELAY,
    FaultSite.COMPLETION_ERROR,
    FaultSite.ENGINE_STALL,
    FaultSite.DEVTLB_INVALIDATE,
    FaultSite.IOTLB_INVALIDATE,
    FaultSite.WQ_DRAIN,
    FaultSite.PRS_DROP,
)
_MAGNITUDE_SITES = (FaultSite.SUBMISSION_DELAY, FaultSite.ENGINE_STALL)
_FAULT_MAGNITUDE_CYCLES = 20_000


@dataclass(frozen=True)
class Finding:
    """One oracle failure."""

    kind: str  # "invariant" | "exception" | "fault-gap"
    detail: str  # invariant name / exception type / fault site
    message: str

    @property
    def signature(self) -> str:
        """Dedup/shrink identity: same kind and detail = same bug."""
        return f"{self.kind}:{self.detail}"


@dataclass(frozen=True)
class CaseResult:
    """What executing one case observed."""

    finding: "Finding | None"
    ops_executed: int
    submissions: int
    handled_errors: int
    new_features: int = 0
    events_seen: int = 0
    audits_run: int = 0
    #: The caught violation behind an ``invariant`` finding (its
    #: ``describe()`` carries the snapshot, event window and repro line).
    violation: "InvariantViolation | None" = None

    @property
    def ok(self) -> bool:
        return self.finding is None


def build_fault_plan(seed: int, rate: float) -> "FaultPlan | None":
    """The campaign's fault plan: every site at probability *rate*."""
    if rate <= 0:
        return None
    plan = FaultPlan(seed=seed)
    for site in FAULT_SITES:
        magnitude = _FAULT_MAGNITUDE_CYCLES if site in _MAGNITUDE_SITES else 0
        plan = plan.with_site(
            site, probability=rate, magnitude_cycles=magnitude
        )
    return plan


# ----------------------------------------------------------------------
# The workbench
# ----------------------------------------------------------------------
class FuzzBench:
    """Per-process buffers, portals, and submission bookkeeping."""

    def __init__(
        self,
        system: CloudSystem,
        topology: "dict[str, Any]",
        processes: int,
    ) -> None:
        self.system = system
        self.procs = []
        self.comp_slot = 0
        wqs = topology["wqs"]
        for index in range(processes):
            vm = system.create_vm(f"fuzz-vm-{index}")
            proc = vm.spawn_process(f"fuzz-{index}")
            for wq in wqs:
                if wq["mode"] == "shared" or wq_owner(wq, processes) == index:
                    system.open_portal(proc, int(wq["wq_id"]))
            self.procs.append(proc)
        self.src = [proc.buffer(BUFFER_BYTES) for proc in self.procs]
        self.dst = [proc.buffer(BUFFER_BYTES) for proc in self.procs]
        self.comp = [proc.buffer(PAGE_SIZE) for proc in self.procs]
        self.lists = [proc.buffer(PAGE_SIZE) for proc in self.procs]
        self.pending: "list[tuple[int, int, Any]]" = []

    def comp_addr(self, index: int, mode: str = "ok") -> int:
        """A completion-record address in *mode* (see ``COMP_MODES``)."""
        if mode == "misaligned":
            # Deliberately not 32-byte aligned: validate() must reject.
            return self.comp[index] + 8
        if mode == "aliased":
            # Slot 0 is reserved so every aliased descriptor collides.
            return self.comp[index]
        self.comp_slot = (self.comp_slot + 1) % (PAGE_SIZE // COMPLETION_ALIGN)
        if self.comp_slot == 0:
            self.comp_slot = 1
        return self.comp[index] + COMPLETION_ALIGN * self.comp_slot

    def descriptor(self, op: "dict[str, Any]") -> Descriptor:
        """Build the (possibly invalid) descriptor an op describes."""
        index = op["proc"]
        proc = self.procs[index]
        opcode = op.get("opcode", "noop")
        size = int(op.get("size", 0))
        src = self.src[index] + int(op.get("src_off", 0))
        dst = self.dst[index] + int(op.get("dst_off", 0))
        comp = self.comp_addr(index, str(op.get("comp", "ok")))
        if opcode == "drain":
            return Descriptor(
                opcode=Opcode.DRAIN, pasid=proc.pasid, completion_addr=comp
            )
        if opcode == "memmove":
            return Descriptor(
                opcode=Opcode.MEMMOVE,
                pasid=proc.pasid,
                src=src,
                dst=dst,
                size=size,
                completion_addr=comp,
            )
        if opcode == "fill":
            return Descriptor(
                opcode=Opcode.FILL,
                pasid=proc.pasid,
                src=0xA5,
                dst=dst,
                size=size,
                completion_addr=comp,
            )
        if opcode == "compare":
            return Descriptor(
                opcode=Opcode.COMPARE,
                pasid=proc.pasid,
                src=src,
                dst=dst,
                size=size,
                completion_addr=comp,
            )
        return make_noop(proc.pasid, comp)

    def batch(self, op: "dict[str, Any]") -> BatchDescriptor:
        """Build a batch, stamping children per ``child_pasid`` mode."""
        index = op["proc"]
        proc = self.procs[index]
        count = int(op["children"])
        mode = str(op.get("child_pasid", "own"))
        if mode == "zero":
            child_pasid = 0
        elif mode == "other":
            if len(self.procs) > 1:
                child_pasid = self.procs[(index + 1) % len(self.procs)].pasid
            else:
                child_pasid = proc.pasid + 1
        else:
            child_pasid = proc.pasid
        children = []
        for child in range(count):
            if bool(op.get("nested")) and child == 0:
                # A batch-of-batches child: the engine must refuse it
                # with an INVALID_DESCRIPTOR record, never recurse.
                children.append(
                    Descriptor(
                        opcode=Opcode.BATCH,
                        pasid=child_pasid,
                        src=self.lists[index],
                        size=64,
                        completion_addr=self.comp_addr(index),
                    )
                )
            else:
                children.append(make_noop(child_pasid, self.comp_addr(index)))
        if children:
            write_batch_list(proc.space, self.lists[index], children)
        return BatchDescriptor(
            pasid=proc.pasid,
            desc_list_addr=self.lists[index],
            count=count,
            completion_addr=self.comp_addr(index, str(op.get("comp", "ok"))),
        )

    def raw_descriptor(self, op: "dict[str, Any]") -> Descriptor:
        """Decode raw bytes (most raise typed decode errors)."""
        descriptor = Descriptor.decode(bytes.fromhex(op["data"]))
        if descriptor.size > RAW_SIZE_LIMIT:
            descriptor = replace(descriptor, size=descriptor.size % RAW_SIZE_LIMIT)
        return descriptor


def _state_signature(device: Any) -> str:
    """Coarse device-state token folded into coverage after each op."""
    wq_bits = "".join(
        str(min(3, (4 * queue.occupancy) // queue.config.size))
        for queue in device.queue_space.queues()
    )
    busy = sum(1 for engine in device.engines.values() if engine.busy)
    return f"wq{wq_bits}e{busy}d{min(9, device.devtlb.occupancy)}"


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_case(
    ops: "Sequence[dict[str, Any]]",
    topology: "dict[str, Any]",
    seed: int,
    processes: int,
    mode: str = "strict",
    coverage: "CoverageMap | None" = None,
    fault_plan: "FaultPlan | None" = None,
    repro_hint: str = "",
    sample_every: int = 64,
) -> CaseResult:
    """Run one case on a fresh system and judge it with the oracles.

    The system seed is the campaign seed for every case — the only
    varying input is *ops*, so a finding replays from its op list alone.
    """
    system = CloudSystem(seed=seed, invariants="off", fault_plan=fault_plan)
    monitor = InvariantMonitor(
        mode=mode,
        sample_every=sample_every,
        seed=seed,
        repro_hint=repro_hint,
        # Coverage first: it counts an event before a checker can trip on it.
        checkers=None if coverage is None else (coverage, *default_checkers()),
    )
    monitor.attach_system(system)
    device = system.device
    for group_id, engine_ids in enumerate(topology["groups"]):
        device.configure_group(group_id, engine_ids)
    for wq in topology["wqs"]:
        device.configure_wq(
            WorkQueueConfig(
                wq_id=int(wq["wq_id"]),
                size=int(wq["size"]),
                mode=WqMode(wq["mode"]),
                priority=int(wq["priority"]),
                group_id=int(wq["group"]),
            )
        )
    bench = FuzzBench(system, topology, processes)
    if coverage is not None:
        coverage.begin_case()

    executed = 0
    submissions = 0
    handled = 0
    finding: "Finding | None" = None
    violation: "InvariantViolation | None" = None

    def submit_pending(op: "dict[str, Any]", descriptor: Any) -> None:
        nonlocal submissions
        portal = bench.procs[op["proc"]].portal(int(op["wq"]))
        ticket = portal.submit(descriptor)
        submissions += 1
        bench.pending.append((op["proc"], int(op["wq"]), ticket))

    def apply(op: "dict[str, Any]") -> None:
        nonlocal submissions
        kind = op["kind"]
        if kind == "advance":
            system.clock.advance(int(op["cycles"]))
            device.advance_to(system.clock.now)
        elif kind == "drain":
            device.disable_wq(int(op["wq"]))
        elif kind == "wait":
            if bench.pending:
                proc, wq_id, ticket = bench.pending.pop(0)
                bench.procs[proc].portal(wq_id).wait(
                    ticket, timeout_cycles=WAIT_TIMEOUT_CYCLES
                )
        elif kind == "burst":
            # Anchor descriptors: a full-buffer memmove executes slower
            # than the submission interval, so a burst actually fills
            # the queue (a noop would retire before the next submit).
            index = op["proc"]
            for _ in range(int(op["count"])):
                submit_pending(
                    op,
                    Descriptor(
                        opcode=Opcode.MEMMOVE,
                        pasid=bench.procs[index].pasid,
                        src=bench.src[index],
                        dst=bench.dst[index],
                        size=BUFFER_BYTES,
                        completion_addr=bench.comp_addr(index),
                    ),
                )
        elif kind == "submit":
            submit_pending(op, bench.descriptor(op))
        elif kind == "batch":
            submit_pending(op, bench.batch(op))
        elif kind == "raw":
            submit_pending(op, bench.raw_descriptor(op))
        else:  # submit_wait
            portal = bench.procs[op["proc"]].portal(int(op["wq"]))
            descriptor = bench.descriptor(op)
            submissions += 1
            portal.submit_wait(descriptor, timeout_cycles=WAIT_TIMEOUT_CYCLES)

    def contained(step: "Callable[[], None]") -> None:
        """Typed errors are handled outcomes; violations propagate."""
        nonlocal handled
        try:
            step()
        except InvariantViolation:
            raise
        except ReproError:
            handled += 1

    try:
        for op in ops:
            contained(lambda: apply(op))
            executed += 1
            if coverage is not None:
                coverage.probe("state", _state_signature(device))
        # Settle: drain async tickets, then run the final full audit.
        while bench.pending:
            proc, wq_id, ticket = bench.pending.pop(0)
            contained(
                lambda: bench.procs[proc].portal(wq_id).wait(
                    ticket, timeout_cycles=WAIT_TIMEOUT_CYCLES
                )
            )
        monitor.check_all()
    except InvariantViolation as exc:
        violation = exc
        finding = Finding(
            kind="invariant", detail=exc.invariant, message=str(exc)
        )
    except Exception as exc:  # repro-lint: ignore[EXC001]
        # Conformance oracle: the error catalog promises every model
        # failure is a typed ReproError; anything else escaping IS the
        # finding, so the broad catch here is the oracle itself.
        finding = Finding(
            kind="exception", detail=type(exc).__name__, message=str(exc)
        )

    if finding is None and device.fault_injector is not None:
        gaps = device.fault_injector.unacknowledged()
        if gaps:
            site = sorted(gaps)[0]
            finding = Finding(
                kind="fault-gap",
                detail=site,
                message=f"unacknowledged injected faults: {gaps}",
            )

    new_features = coverage.end_case() if coverage is not None else 0
    return CaseResult(
        finding=finding,
        ops_executed=executed,
        submissions=submissions,
        handled_errors=handled,
        new_features=new_features,
        events_seen=monitor.events_seen,
        audits_run=monitor.audits_run,
        violation=violation,
    )


def shrink_case(
    ops: "Sequence[dict[str, Any]]",
    topology: "dict[str, Any]",
    signature: str,
    budget: int,
    **run: Any,
) -> "tuple[list[dict[str, Any]], int]":
    """ddmin *ops* while :func:`execute_case` (called with *topology*
    and the *run* keywords) still reports a finding with *signature*.
    Returns (minimal ops, runs)."""

    def still_fails(candidate: "list[dict[str, Any]]") -> bool:
        finding = execute_case(candidate, topology, **run).finding
        return finding is not None and finding.signature == signature

    return ddmin(ops, still_fails, budget=budget)
