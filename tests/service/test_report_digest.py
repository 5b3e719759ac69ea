"""Golden report digests for two whole service runs.

The service must stay a pure function of ``(config, schedule)``.  The
``slow``-marked end-to-end suite checks that run against run; these
pin the bytes themselves, so a speed-only change to the loop, the lane
fleet or the device replay underneath cannot move a single session.

* ``overload`` — 4 lanes, 32 tenants, 400 sessions at a 4k-cycle mean
  inter-arrival: the controller reaches shedding (about a quarter of
  the sessions are shed, two mode transitions) and lane queues are
  long, so lane choice and shed order are both exercised.
* ``clean`` — the same fleet with 40 sessions at a 20k-cycle mean
  inter-arrival: nothing is shed and every session completes.

Each digest is the SHA-256 of the sorted-key JSON of
:meth:`ServiceReport.to_json`.
"""

import hashlib
import json

import pytest

from repro.service.app import AttackService
from repro.service.config import ServiceConfig, TenantPolicy
from repro.service.loadgen import LoadConfig, build_schedule

SCENARIOS = {
    "overload": (400, 4_000.0),
    "clean": (40, 20_000.0),
}

GOLDEN = {
    "overload": "1cbc4d7560eb0218dab7d39fe15bf15570eb457bc1b83415adce894633a903fa",
    "clean": "408219b3cefeed6eeea4201efd6c1746a6f90de32d66cb41299a32fc2044ddc9",
}


def _report(sessions, interarrival):
    config = ServiceConfig(
        seed=1,
        lanes=4,
        tenant_policy=TenantPolicy(device_cycle_quota=10**11, max_in_flight=512),
    )
    schedule = build_schedule(
        LoadConfig(
            sessions=sessions,
            tenants=32,
            seed=1,
            mean_interarrival_cycles=interarrival,
        )
    )
    return AttackService(config).run(schedule)


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_matches_golden_digest(name):
    report = _report(*SCENARIOS[name])
    assert report.accounting.balances()
    if name == "overload":
        assert report.accounting.shed > 0
    else:
        assert report.accounting.completed == report.accounting.offered
    blob = json.dumps(report.to_json(), sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[name]
