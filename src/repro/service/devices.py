"""The device fleet: lane custody over simulated CloudSystems.

A *lane* is one independent :class:`~repro.virt.system.CloudSystem` on
the E1 topology (separate work queues, shared engine) with a resident
:class:`~repro.core.devtlb_attack.DsaDevTlbAttack`.  Lanes are
expensive (system construction plus threshold calibration runs tens of
milliseconds of host time), so sessions *share* them: custody flows
through a FIFO :class:`~repro.service.loop.VirtualLock`, the holder
runs whole probe rounds, and the lane's calibrated threshold is shared
by every session it serves — a session never pays for calibration the
lane already has (its ``CALIBRATING`` state is a cheap health check of
the lane's :class:`~repro.core.calibration.ThresholdMonitor`).

Revocation and containment: the ``service_device_revoke`` fault fires
here (this module owns the site) at lane hand-out.  A revoked lane is
quarantined — never handed out again — and a replacement is built from
a fresh child seed, so a poisoned lane cannot take down the fleet.  The
session holding the lane sees a typed
:class:`~repro.errors.LaneRevokedError` at its next round and retries
inside its budget; the session that asked and those parked on the lane
queue again without spending an attempt.
"""

from __future__ import annotations

import numpy as np

from repro.core.calibration import CalibrationPolicy, ThresholdMonitor
from repro.core.devtlb_attack import DsaDevTlbAttack
from repro.errors import LaneRevokedError, ServiceError
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultSite
from repro.invariants.service import ServiceStateChecker
from repro.service.loop import DeviceTimeLoop, VirtualLock
from repro.virt.system import AttackTopology, CloudSystem


class DeviceLane:
    """One calibrated attack system plus its custody lock."""

    def __init__(
        self,
        lane_id: int,
        seed: int,
        loop: DeviceTimeLoop,
        calibration_samples: int,
        policy: CalibrationPolicy,
        fault_plan: "object | None" = None,
    ) -> None:
        self.lane_id = lane_id
        self.seed = seed
        self.lock = VirtualLock(loop)
        self.revoked = False
        self.rounds_served = 0
        self.recalibrations = 0
        self._policy = policy
        self._calibration_samples = calibration_samples
        self.system = CloudSystem(seed=seed, fault_plan=fault_plan)
        handles = self.system.setup_topology(
            AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE
        )
        self.attack = DsaDevTlbAttack(
            handles.attacker, wq_id=handles.attacker_wq
        )
        result = self.attack.calibrate(
            samples=calibration_samples, policy=policy
        )
        self.monitor = ThresholdMonitor(result.threshold)

    def ensure_calibrated(self) -> None:
        """Recalibrate if the drift monitor says the threshold decayed."""
        if self.monitor.drifting:
            result = self.attack.calibrate(
                samples=self._calibration_samples, policy=self._policy
            )
            self.monitor.reset(result.threshold)
            self.recalibrations += 1

    def run_round(self, probes: int, idle_us: float) -> int:
        """One prime + idle/probe round, synchronously, on device time.

        Consumes the lane system's own timeline and returns the cycles
        it took; the caller charges them to the service clock (and the
        tenant's budget) afterwards.
        """
        if self.revoked:
            raise LaneRevokedError(lane_id=self.lane_id)
        clock = self.system.clock
        start = clock.now
        self.attack.prime()
        for _ in range(max(1, probes)):
            self.system.timeline.idle_for_us(idle_us)
            self.monitor.observe(self.attack.probe().latency_cycles)
        self.rounds_served += 1
        return clock.now - start


class DeviceFleet:
    """Hands lanes to sessions; quarantines and rebuilds revoked ones."""

    def __init__(
        self,
        loop: DeviceTimeLoop,
        checker: ServiceStateChecker,
        *,
        lanes: int,
        seed: int,
        calibration_samples: int,
        policy: CalibrationPolicy,
        injector: FaultInjector | None = None,
        lane_fault_plan: "object | None" = None,
    ) -> None:
        self._loop = loop
        self._checker = checker
        self._injector = injector
        self._policy = policy
        self._calibration_samples = calibration_samples
        self._lane_fault_plan = lane_fault_plan
        self._seed_seq = np.random.SeedSequence(seed)
        self._next_lane_id = 0
        self._rr = 0
        self.quarantined: list[DeviceLane] = []
        self.lanes: list[DeviceLane] = [
            self._build_lane() for _ in range(lanes)
        ]

    def _build_lane(self) -> DeviceLane:
        (child,) = self._seed_seq.spawn(1)
        # A stable scalar seed derived from the service seed sequence,
        # unique per lane ever built (replacements included).
        seed = int(child.generate_state(1, dtype=np.uint32)[0])
        lane = DeviceLane(
            lane_id=self._next_lane_id,
            seed=seed,
            loop=self._loop,
            calibration_samples=self._calibration_samples,
            policy=self._policy,
            fault_plan=self._lane_fault_plan,
        )
        self._next_lane_id += 1
        return lane

    def _revoke(self, lane: DeviceLane) -> None:
        lane.revoked = True
        self.quarantined.append(lane)
        index = self.lanes.index(lane)
        self.lanes[index] = self._build_lane()
        self._checker.note_lane_rebuilt(lane.lane_id, self.lanes[index].lane_id)

    def _choose(self) -> DeviceLane:
        """The least-loaded lane, ties broken by a deterministic round robin."""
        best = min(
            range(len(self.lanes)),
            key=lambda i: (self.lanes[i].lock.waiting, (i - self._rr) % len(self.lanes)),
        )
        self._rr = (self._rr + 1) % len(self.lanes)
        return self.lanes[best]

    async def acquire(self, session_id: str) -> DeviceLane:
        """Queue for the least-loaded lane; returns it locked.

        The ``service_device_revoke`` opportunity is evaluated once, at
        hand-out: a firing revokes the chosen lane (quarantine +
        rebuild).  Only the lane's holder loses its attempt, at its next
        round.  This session and every session parked on the revoked
        lane queue again on the fleet's next choice, spending nothing.
        """
        if not self.lanes:
            raise ServiceError("device fleet has no lanes")
        lane = self._choose()
        if self._injector is not None:
            event = self._injector.fire(
                FaultSite.SERVICE_DEVICE_REVOKE,
                timestamp=self._loop.now,
                engine_id=lane.lane_id,
            )
            if event is not None:
                self._revoke(lane)
                self._injector.acknowledge(
                    event, "lane-quarantined-and-rebuilt"
                )
                lane = self._choose()
        await lane.lock.acquire()
        while lane.revoked:
            # Revoked while this session was parked in its queue.
            lane.lock.release()
            lane = self._choose()
            await lane.lock.acquire()
        self._checker.note_lane_acquired(session_id, lane.lane_id)
        return lane

    def release(self, lane: DeviceLane, session_id: str) -> None:
        self._checker.note_lane_released(session_id, lane.lane_id)
        lane.lock.release()

    def injectors(self) -> "list[FaultInjector]":
        """Every lane-level injector (for the unacknowledged-fault audit)."""
        found = []
        for lane in (*self.lanes, *self.quarantined):
            if lane.system.fault_injector is not None:
                found.append(lane.system.fault_injector)
        return found
