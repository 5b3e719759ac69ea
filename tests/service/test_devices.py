"""Lane revocation in the device fleet costs at most one session attempt.

One lane, held by one session with ``k`` more parked on its lock; a
later hand-out revokes it.  Only the holder, which was using the
device, fails its attempt (at its next round).  The session that asked
and every parked session queue again on the replacement lane and get
it, without an error.
"""

import pytest

from repro.core.calibration import CalibrationPolicy
from repro.errors import LaneRevokedError
from repro.faults.plan import FaultPlan, FaultSite, FaultSpec
from repro.invariants.service import ServiceStateChecker
from repro.service.devices import DeviceFleet
from repro.service.loop import DeviceTimeLoop

#: The revoke fires at every hand-out from 1 us of device time on, so
#: the sessions that queue at cycle 0 do not trigger it.
REVOKE_FROM_1US = FaultPlan(
    seed=0,
    specs=(
        FaultSpec(
            site=FaultSite.SERVICE_DEVICE_REVOKE, probability=1.0, start_us=1.0
        ),
    ),
)
HOLD_CYCLES = 50_000


def _revoke_under_waiters(parked: int):
    """Run the scenario; returns (failed session ids, acquired, fleet)."""
    loop = DeviceTimeLoop()
    injector = REVOKE_FROM_1US.build_injector()
    fleet = DeviceFleet(
        loop,
        ServiceStateChecker(),
        lanes=1,
        seed=3,
        calibration_samples=20,
        policy=CalibrationPolicy(),
        injector=injector,
    )
    failed: list[str] = []
    acquired: list[tuple[str, int]] = []

    async def session(name: str, start: int) -> None:
        await loop.sleep_until(start)
        try:
            lane = await fleet.acquire(name)
        except LaneRevokedError:
            failed.append(name)
            return
        acquired.append((name, lane.lane_id))
        try:
            await loop.sleep_cycles(HOLD_CYCLES)
            lane.run_round(probes=1, idle_us=1.0)
        except LaneRevokedError:
            failed.append(name)
        finally:
            fleet.release(lane, name)

    async def main() -> None:
        names = ["holder"] + [f"parked{i}" for i in range(parked)]
        tasks = [loop.spawn(session(name, 0), name) for name in names]
        tasks.append(loop.spawn(session("asker", HOLD_CYCLES // 2), "asker"))
        for task in tasks:
            await loop.join(task)

    loop.run(main())
    assert injector.total_fired == 1
    assert injector.unacknowledged() == {}
    return failed, acquired, fleet


@pytest.mark.parametrize("parked", [0, 1, 4])
def test_revoked_lane_fails_only_its_holder(parked):
    failed, acquired, fleet = _revoke_under_waiters(parked)
    assert failed == ["holder"]
    assert [lane.lane_id for lane in fleet.quarantined] == [0]
    # The asker and every parked session ran on the replacement lane.
    replacement = fleet.lanes[0].lane_id
    requeued = ["asker"] + [f"parked{i}" for i in range(parked)]
    assert sorted(acquired) == sorted(
        [("holder", 0)] + [(name, replacement) for name in requeued]
    )
