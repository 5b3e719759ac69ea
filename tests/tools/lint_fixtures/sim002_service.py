# repro-lint-fixture-module: repro.service.devices
"""SIM002 fixture: the fleet reads a lane lock's live-waiter count but
only repro.service.loop may write it."""


def least_loaded(lanes):
    return min(lanes, key=lambda lane: lane.lock.waiting)


def forget_waiter(lane) -> None:
    lane.lock._live_waiters -= 1
