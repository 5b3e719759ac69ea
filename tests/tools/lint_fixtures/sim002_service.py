# repro-lint-fixture-module: repro.service.devices
"""SIM002 fixture: the fleet reads a lane lock's waiter queue depth but
only repro.service.loop may change the queue."""


def least_loaded(lanes):
    return min(lanes, key=lambda lane: lane.lock.waiting)


def forget_waiter(lane) -> None:
    lane.lock._waiters.clear()
