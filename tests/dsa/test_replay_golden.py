"""Golden replay-timing digests for the device's lazy dispatch replay.

:meth:`DsaDevice.advance_to` replays dispatch and retirement only when
software looks at the device.  Each scenario below drives one corner of
that replay -- batch children that become available after their parent
dispatched (under both arbiter policies), a drain stuck behind a busy
engine, two processing units per engine, two groups (also with a queue
torn down in one and another configured in the other mid-run), a queue
disabled while descriptors are in flight, a tenant torn down with work
queued (:meth:`DsaDevice.abort_pasid`), and a polled wait that times
out -- polling the device every 200 cycles, as the paper's probes do.
Three more drive :meth:`Portal.wait` and :meth:`Portal.submit_wait`
themselves rather than the rig's poll loop: one wait behind a memcpy
anchor that crosses several wake points, a wait woken by a batch
child's ``available_time``, and a timeout off the spin grid.  The last
two put batch parents at a queue head while their engine is busy (with
one and with two processing units), the one case where the dispatch
pass may not skip a busy engine.

The SHA-256 covers every ticket's ``(ticket_id, enqueue, dispatch,
completion, engine_id, status)``, the device counters, and what each
poll observed (dispatches, retirements, engine occupancy).  The digests
were pinned on the replay that ran a full dispatch pass on every poll,
so any change here means the replay order changed.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from repro.dsa.accel_config import AccelConfig
from repro.dsa.arbiter import ArbiterPolicy
from repro.dsa.batch import write_batch_list
from repro.dsa.descriptor import BatchDescriptor, Descriptor, make_memcpy, make_noop
from repro.dsa.device import DsaDevice, DsaDeviceConfig
from repro.dsa.engine import EngineTiming
from repro.dsa.opcodes import Opcode
from repro.dsa.portal import Portal
from repro.dsa.wq import WorkQueueConfig
from repro.errors import CompletionTimeoutError
from repro.hw.clock import TscClock
from repro.hw.memory import PhysicalMemory
from repro.hw.pagetable import AddressSpace
from repro.invariants import InvariantMonitor
from repro.invariants.checkers import default_checkers
from repro.invariants.monitor import InvariantChecker

PASID = 1
POLL_CYCLES = 200
MAX_POLLS = 2_000


class _TicketRecorder(InvariantChecker):
    """Collects every completed ticket, batch children included."""

    name = "ticket-recorder"
    kinds = frozenset({"complete"})

    def __init__(self) -> None:
        self.tickets = {}

    def observe(self, monitor, kind, timestamp, context, payload) -> None:
        self.tickets[payload.ticket_id] = payload


class _Rig:
    """A device with one process, a portal per queue, and a poll log."""

    def __init__(
        self,
        policy=ArbiterPolicy.WQ_PRIORITY,
        concurrent=1,
        groups=((0, (0,)),),
        queues=((0, 0, 0),),
        seed=7,
    ):
        memory = PhysicalMemory(total_bytes=1 << 30)
        self.device = DsaDevice(
            memory,
            TscClock(),
            np.random.default_rng(seed),
            DsaDeviceConfig(
                engine_count=4,
                arbiter_policy=policy,
                timing=EngineTiming(concurrent_descriptors=concurrent),
            ),
        )
        for group_id, engine_ids in groups:
            self.device.configure_group(group_id, engine_ids)
        for wq_id, group_id, priority in queues:
            self.device.configure_wq(
                WorkQueueConfig(wq_id=wq_id, size=16, priority=priority, group_id=group_id)
            )
        self.clock = self.device.clock
        self.pasid = PASID
        self.space = AddressSpace(memory)
        self.device.bind_process(self.pasid, self.space)
        self.portals = {
            wq_id: Portal(self.device, wq_id=wq_id, pasid=self.pasid)
            for wq_id, _group, _priority in queues
        }
        self.recorder = _TicketRecorder()
        InvariantMonitor(checkers=(*default_checkers(), self.recorder)).attach_device(
            self.device
        )
        self.held = []
        self.log = hashlib.sha256()

    # -- submissions ----------------------------------------------------
    def _submit(self, wq_id, descriptor):
        ticket = self.portals[wq_id].submit(descriptor)
        self.held.append(ticket)
        return ticket

    def noop(self, wq_id=0):
        return self._submit(wq_id, make_noop(self.pasid, self.space.mmap(4096)))

    def memcpy(self, size, wq_id=0):
        src = self.space.mmap(size)
        dst = self.space.mmap(size)
        return self._submit(
            wq_id, make_memcpy(self.pasid, src, dst, size, self.space.mmap(4096))
        )

    def drain(self, wq_id=0):
        return self._submit(
            wq_id,
            Descriptor(
                opcode=Opcode.DRAIN,
                pasid=self.pasid,
                completion_addr=self.space.mmap(4096),
            ),
        )

    def batch(self, children, wq_id=0):
        """A batch of noops (``0``) and memcpys (their size)."""
        descriptors = []
        for size in children:
            comp = self.space.mmap(4096)
            if size:
                src = self.space.mmap(size)
                dst = self.space.mmap(size)
                descriptors.append(make_memcpy(self.pasid, src, dst, size, comp))
            else:
                descriptors.append(make_noop(self.pasid, comp))
        list_addr = self.space.mmap(4096)
        write_batch_list(self.space, list_addr, descriptors)
        return self._submit(
            wq_id,
            BatchDescriptor(
                pasid=self.pasid,
                desc_list_addr=list_addr,
                count=len(descriptors),
                completion_addr=self.space.mmap(4096),
            ),
        )

    def teardown(self):
        """Destroy the tenant as ``CloudSystem.destroy_process`` does (abort
        its unstarted work, unbind its PASID), then go on as a new one."""
        self.device.advance_to(self.clock.now)
        self.device.abort_pasid(self.pasid)
        self.device.pasid_table.unbind(self.pasid)
        self.pasid += 1
        self.space = AddressSpace(self.device.memory)
        self.device.bind_process(self.pasid, self.space)
        self.portals = {
            wq_id: Portal(self.device, wq_id=wq_id, pasid=self.pasid)
            for wq_id in self.portals
        }

    def probe(self, wq_id=0, **wait_kwargs):
        """A polled noop (Listing 1); logs its latency and the clocks."""
        descriptor = make_noop(self.pasid, self.space.mmap(4096))
        result = self.portals[wq_id].submit_wait(descriptor, **wait_kwargs)
        self.held.append(result.ticket)
        self.note("probe", result.latency_cycles, self.clock.now, self.device.time)
        return result

    def wait(self, ticket, wq_id=0, **wait_kwargs):
        """:meth:`Portal.wait` on *ticket*; logs a timeout and the clocks."""
        try:
            self.portals[wq_id].wait(ticket, **wait_kwargs)
        except CompletionTimeoutError:
            self.note("timeout", self.clock.now)
        self.note("waited", self.clock.now, self.device.time)

    # -- polling --------------------------------------------------------
    def note(self, *event):
        self.log.update(repr(event).encode())

    def poll(self):
        self.clock.advance(POLL_CYCLES)
        self.device.advance_to(self.clock.now)
        self.note(
            self.clock.now,
            self.device.time,
            sum(t.dispatch_time is not None for t in self.held),
            sum(t.completed for t in self.held),
            self.device.stats.descriptors_completed,
            tuple(len(engine.inflight) for engine in self.device.engines.values()),
        )

    def idle(self):
        return all(t.completed for t in self.held) and not any(
            engine.busy for engine in self.device.engines.values()
        )

    def run(self, schedule):
        """Run *schedule* (``{poll index: [action, ...]}``), then drain."""
        last = max(schedule)
        for step in range(MAX_POLLS):
            for action in schedule.get(step, ()):
                action()
            self.poll()
            if step >= last and self.idle():
                break
        else:
            raise AssertionError("scenario did not go idle")
        return self.digest()

    def digest(self):
        tickets = dict(self.recorder.tickets)
        tickets.update((t.ticket_id, t) for t in self.held)
        for ticket_id in sorted(tickets):
            ticket = tickets[ticket_id]
            self.note(
                ticket_id,
                ticket.enqueue_time,
                ticket.dispatch_time,
                ticket.completion_time,
                ticket.engine_id,
                None if ticket.record is None else ticket.record.status.name,
            )
        self.note(dataclasses.astuple(self.device.stats))
        return self.log.hexdigest()


def _batch_children_late(policy):
    rig = _Rig(policy=policy)
    return rig.run(
        {
            0: [lambda: rig.memcpy(64 * 1024), lambda: rig.batch([0, 4096, 0, 0])],
            3: [rig.noop],
            10: [rig.noop],
            12: [lambda: rig.batch([0, 0])],
            # A batch on an idle engine: its children wake the replay.
            90: [lambda: rig.batch([0, 8192, 0])],
        }
    )


def _drain_behind_busy_engine():
    rig = _Rig()
    return rig.run(
        {
            0: [lambda: rig.memcpy(32 * 1024), rig.drain, rig.noop, rig.noop],
            40: [rig.drain],
            41: [rig.noop],
        }
    )


def _two_processing_units():
    rig = _Rig(concurrent=2)
    return rig.run(
        {
            0: [
                lambda: rig.memcpy(16 * 1024),
                lambda: rig.memcpy(4096),
                rig.noop,
                rig.noop,
                rig.noop,
            ],
            5: [rig.drain, rig.noop],
            30: [lambda: rig.batch([0, 0, 4096])],
        }
    )


def _two_groups():
    rig = _Rig(
        groups=((0, (0,)), (1, (1, 2))),
        queues=((0, 0, 0), (1, 1, 3), (2, 1, 7)),
    )
    return rig.run(
        {
            0: [
                lambda: rig.memcpy(16 * 1024, wq_id=0),
                lambda: rig.memcpy(16 * 1024, wq_id=1),
                lambda: rig.noop(wq_id=1),
                lambda: rig.noop(wq_id=2),
                lambda: rig.noop(wq_id=0),
            ],
            2: [lambda: rig.batch([0, 0, 0], wq_id=1), lambda: rig.noop(wq_id=2)],
            20: [lambda: rig.memcpy(8192, wq_id=2), lambda: rig.noop(wq_id=1)],
        }
    )


def _reconfigure_across_groups():
    """Tear down an emptied queue in one group mid-run and configure a
    new one in the other, while both groups still have work queued."""
    rig = _Rig(
        groups=((0, (0,)), (1, (1, 2))),
        queues=((0, 0, 0), (1, 1, 3), (2, 1, 7)),
    )

    def reconfigure():
        accel = AccelConfig(rig.device, privileged=True)
        assert rig.device.wq(2).occupancy == 0
        accel.remove_wq(2)
        del rig.portals[2]
        accel.configure_wq(3, size=16, priority=5, group_id=0)
        rig.portals[3] = Portal(rig.device, wq_id=3, pasid=rig.pasid)

    return rig.run(
        {
            0: [
                lambda: rig.memcpy(64 * 1024, wq_id=1),
                lambda: rig.noop(wq_id=2),
                lambda: rig.memcpy(32 * 1024, wq_id=0),
                lambda: rig.noop(wq_id=1),
                lambda: rig.noop(wq_id=0),
            ],
            6: [reconfigure],
            7: [
                lambda: rig.noop(wq_id=0),
                lambda: rig.noop(wq_id=3),
                lambda: rig.memcpy(4096, wq_id=3),
                lambda: rig.noop(wq_id=1),
            ],
            40: [lambda: rig.noop(wq_id=3), lambda: rig.noop(wq_id=0)],
        }
    )


def _disable_wq_in_flight():
    rig = _Rig()
    return rig.run(
        {
            0: [lambda: rig.memcpy(32 * 1024), rig.noop, rig.noop, rig.noop],
            2: [lambda: rig.device.disable_wq(0)],
            4: [rig.noop],
        }
    )


def _disable_unblocks_batch_child():
    """Disabling a queue whose head is a blocked drain frees the engine's
    second processing unit for a batch child already in the buffer."""
    rig = _Rig(concurrent=2)
    return rig.run(
        {
            0: [lambda: rig.memcpy(256 * 1024), lambda: rig.batch([0]), rig.drain],
            30: [lambda: rig.device.disable_wq(0)],
            31: [rig.noop],
        }
    )


def _teardown_with_queued_work():
    """A tenant torn down with a memcpy on the engine, two descriptors in
    the work queue and batch children in the buffer: the unstarted ones
    abort, the memcpy completes with its record write dropped, and the
    next tenant's work runs behind it."""
    rig = _Rig()
    return rig.run(
        {
            0: [
                lambda: rig.memcpy(64 * 1024),
                lambda: rig.batch([0, 4096, 0]),
                rig.noop,
                lambda: rig.memcpy(16 * 1024),
            ],
            2: [rig.teardown],
            3: [rig.noop, lambda: rig.memcpy(4096)],
        }
    )


def _timeout_poll():
    rig = _Rig()

    def wait_with_timeout():
        ticket = rig.noop()
        try:
            rig.portals[0].wait(ticket, timeout_cycles=1_000)
        except CompletionTimeoutError:
            rig.note("timeout", rig.clock.now)
        rig.note("waited", rig.clock.now, rig.device.time)

    return rig.run(
        {
            0: [lambda: rig.memcpy(64 * 1024), wait_with_timeout],
            3: [wait_with_timeout],
        }
    )


def _wait_across_wake_points():
    """One wait behind a 64 KiB anchor: the anchor and each noop queued
    ahead of the waited one retire inside the same wait."""
    rig = _Rig()

    def wait_behind_anchor():
        rig.memcpy(64 * 1024)
        tickets = [rig.noop() for _ in range(4)]
        rig.wait(tickets[-1])
        rig.note("dispatched", tuple(t.dispatch_time for t in tickets))

    def probes_behind_anchor():
        rig.memcpy(16 * 1024)
        rig.noop()
        rig.probe()
        rig.probe(spin_cycles=150)

    return rig.run({0: [wait_behind_anchor], 3: [probes_behind_anchor]})


def _wait_on_batch_child():
    """Waits on batch parents whose next wake point is a child's
    ``available_time`` (an idle engine, then one behind an anchor)."""
    rig = _Rig()

    def wait_on_idle_batch():
        rig.wait(rig.batch([0, 4096, 0]))

    def wait_on_batch_behind_anchor():
        rig.memcpy(32 * 1024)
        rig.wait(rig.batch([0, 0]), spin_cycles=170)

    return rig.run({0: [wait_on_idle_batch], 2: [wait_on_batch_behind_anchor]})


def _timeout_off_spin_grid():
    """Timeouts that are not a multiple of the spin (1_050 over 200 and
    over 150 cycles), then a deadline the completion beats."""
    rig = _Rig()

    def timeouts():
        rig.memcpy(64 * 1024)
        ticket = rig.noop()
        rig.wait(ticket, timeout_cycles=1_050)
        rig.wait(ticket, spin_cycles=150, timeout_cycles=1_050)
        rig.wait(ticket, timeout_cycles=40_000)

    return rig.run({0: [timeouts], 2: [lambda: rig.probe(timeout_cycles=1_050)]})


def _batch_waits_behind_busy_engine(concurrent):
    """Batch parents reach a queue head while every processing unit of
    the engine is busy: the fetcher takes them anyway, so a dispatch pass
    must not skip a busy engine while a batch waits in a work queue."""
    rig = _Rig(concurrent=concurrent, queues=((0, 0, 0), (1, 0, 3)))
    return rig.run(
        {
            0: [
                lambda: rig.memcpy(64 * 1024),
                lambda: rig.memcpy(32 * 1024),
                lambda: rig.batch([0, 4096, 0]),
                rig.noop,
                lambda: rig.noop(wq_id=1),
            ],
            4: [lambda: rig.batch([0, 0], wq_id=1), rig.noop],
            30: [
                lambda: rig.memcpy(64 * 1024),
                lambda: rig.batch([0], wq_id=1),
                lambda: rig.noop(wq_id=1),
            ],
        }
    )


SCENARIOS = {
    "batch-children-late-wq-priority": lambda: _batch_children_late(
        ArbiterPolicy.WQ_PRIORITY
    ),
    "batch-children-late-fifo": lambda: _batch_children_late(ArbiterPolicy.FIFO),
    "drain-behind-busy-engine": _drain_behind_busy_engine,
    "two-processing-units": _two_processing_units,
    "two-groups": _two_groups,
    "reconfigure-across-groups": _reconfigure_across_groups,
    "disable-wq-in-flight": _disable_wq_in_flight,
    "disable-unblocks-batch-child": _disable_unblocks_batch_child,
    "teardown-with-queued-work": _teardown_with_queued_work,
    "timeout-poll": _timeout_poll,
    "wait-across-wake-points": _wait_across_wake_points,
    "wait-on-batch-child": _wait_on_batch_child,
    "timeout-off-spin-grid": _timeout_off_spin_grid,
    "batch-waits-behind-busy-engine": lambda: _batch_waits_behind_busy_engine(1),
    "batch-waits-behind-busy-engine-2pu": lambda: _batch_waits_behind_busy_engine(2),
}

GOLDEN = {
    "batch-children-late-wq-priority": "a50e45eba641875aee552e73f0a32a8122359ce5ce5f89d7fabaf4bd65b0c588",
    "batch-children-late-fifo": "437349aca9fa40ff828ddd8d1b39a85ce0c588218800b9ca9d834722dff6f224",
    "drain-behind-busy-engine": "307ea486271080349c49e51a15c043033ed19b80e7e6198a4a40cf1daf8c3b11",
    "two-processing-units": "13f821dcf09d4f59d1037862114cd5fe901293ed00d45d8791aae3892a95e37a",
    "two-groups": "db49fb786cb628d35c7a51919a9c81c5a3d2d16fca613bf3438c1db6a2fdd8cb",
    "reconfigure-across-groups": "93cfdf8cf64e579e29beec231af8a3664c96351bf55992e1d5b19977c60c4078",
    "disable-wq-in-flight": "886bb8b9a50f1219d5270f8fe60ced6eb06a4077b122243700434767b12d759d",
    "disable-unblocks-batch-child": "ef1027d0a6d686492ca6a32590dce5b1f50c5686395eeacebfe808054bebb73e",
    "teardown-with-queued-work": "5284a044588d9b3d2890c79a9300f86abcd137718335cd160787abb8c3c805b7",
    "timeout-poll": "d24cff7b37e885a0ba56559adf6fbe68a3d94b73e363bd1ff3b32914b39778fe",
    "wait-across-wake-points": "1eaacf95658090372562a40e7c296f573aca16661ee5952b46c2622e8b46438d",
    "wait-on-batch-child": "5e6637677f5964924e9924f6d3f1443e03cc3436acb6d10f993bcb1ce388ceae",
    "timeout-off-spin-grid": "94d85529e9f688a5cb42198d32004a991159cb1484fb57f1021c388a723e6cdd",
    "batch-waits-behind-busy-engine": "46f0abce684f99b976c75c3cf7368212650393a920ae771429c8a0204e3949fc",
    "batch-waits-behind-busy-engine-2pu": "c07cc4f9a09cd4c8b18be83198e63375651dc71b49fbeae9e89e2eed47672418",
}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_replay_matches_golden_digest(name):
    assert SCENARIOS[name]() == GOLDEN[name]


def test_wait_behind_anchor_replays_only_at_wake_points(monkeypatch):
    """A noop queued behind a 64 KiB anchor waits ~25 spins; only the
    anchor's retirement and the final observation replay the device."""
    rig = _Rig()
    rig.memcpy(64 * 1024)
    ticket = rig.noop()
    calls = []
    advance_to = rig.device.advance_to

    def counting_advance_to(time):
        calls.append(time)
        advance_to(time)

    monkeypatch.setattr(rig.device, "advance_to", counting_advance_to)
    start = rig.clock.now
    rig.portals[0].wait(ticket)
    assert ticket.completed
    assert rig.clock.now - start > 20 * POLL_CYCLES
    assert len(calls) <= 3, calls
