"""Golden report digests for whole service runs, one per exit path.

The service must stay a pure function of ``(config, schedule)``.  The
``slow``-marked end-to-end suite checks that run against run; these
pin the bytes themselves, so a speed-only change to the loop, the lane
fleet or the device replay underneath cannot move a single session,
and a refactor of how sessions end cannot move one exit.

* ``overload`` — 4 lanes, 32 tenants, 400 sessions at a 4k-cycle mean
  inter-arrival: the controller reaches shedding (about a quarter of
  the sessions are shed, two mode transitions) and lane queues are
  long, so lane choice and shed order are both exercised.
* ``clean`` — the same fleet with 40 sessions at a 20k-cycle mean
  inter-arrival: nothing is shed and every session completes.
* ``chaos`` — the overload schedule with every ``SERVICE_SITES`` member
  firing at 0.05 and the session killer at 0.3: ``admission-flap``
  rejections, ``chaos-kill`` failures, revoked and rebuilt lanes and
  sheds in one run.  A revocation fails only the session holding the
  lane, so no session here exhausts its retries.
* ``drain-resume`` — the overload schedule drained at cycle 800,000,
  then resumed twice from its checkpoint: once to completion, once
  draining at its first instant, so every resumed session is
  checkpointed again before it runs.  The digest covers the three
  reports (``checkpoint_path`` blanked: it names a temporary
  directory) and both checkpoint files' bytes.

Each digest is the SHA-256 of the sorted-key JSON of
:meth:`ServiceReport.to_json` (of all five artifacts, for
``drain-resume``).

The quarantine exit has no digest: no schedule reaches it, so
:func:`test_untyped_lane_error_quarantines_one_session` forces it.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.faults.plan import FaultPlan, FaultSpec
from repro.faults.sites import SERVICE_SITES
from repro.service.app import AttackService
from repro.service.config import ServiceConfig, TenantPolicy
from repro.service.devices import DeviceLane
from repro.service.loadgen import LoadConfig, build_schedule, make_session_killer

#: The two fault-free scenarios: ``(sessions, mean inter-arrival)``.
PLAIN = {
    "overload": (400, 4_000.0),
    "clean": (40, 20_000.0),
}

GOLDEN = {
    "chaos": "23fc129d1d7a0c4a51db779bd7514e84b4b8b135546822f5662e2803a48e3337",
    "clean": "408219b3cefeed6eeea4201efd6c1746a6f90de32d66cb41299a32fc2044ddc9",
    "drain-resume": "375ef3ac0372f3fc18a50a19bf01620734112cb82a9693157b240e58011be59d",
    "overload": "1cbc4d7560eb0218dab7d39fe15bf15570eb457bc1b83415adce894633a903fa",
}


def _config(fault_plan=None):
    return ServiceConfig(
        seed=1,
        lanes=4,
        tenant_policy=TenantPolicy(device_cycle_quota=10**11, max_in_flight=512),
        fault_plan=fault_plan,
    )


def _load(sessions, interarrival, kill_probability=0.0):
    return LoadConfig(
        sessions=sessions,
        tenants=32,
        seed=1,
        mean_interarrival_cycles=interarrival,
        kill_probability=kill_probability,
    )


def _report(sessions, interarrival):
    return AttackService(_config()).run(
        build_schedule(_load(sessions, interarrival))
    )


def _chaos_report():
    plan = FaultPlan(
        seed=1,
        specs=tuple(
            FaultSpec(site=site, probability=0.05) for site in SERVICE_SITES
        ),
    )
    load = _load(400, 4_000.0, kill_probability=0.3)
    report = AttackService(_config(plan)).run(
        build_schedule(load), chaos=make_session_killer(load)
    )
    acct = report.accounting
    assert acct.rejected.get("admission-flap", 0) > 0
    assert acct.failed.get("chaos-kill", 0) > 0
    assert set(acct.failed) == {"chaos-kill"}
    assert report.lane_stats["lanes_rebuilt"] > 0
    assert acct.shed > 0
    assert report.unacknowledged_faults == {}
    return report.to_json()


def _drain_at(cycles):
    async def chaos(service):
        await service.loop.sleep_cycles(cycles)
        service.request_drain()

    return chaos


async def _drain_now(service):
    service.request_drain()


def _blanked(report):
    raw = report.to_json()
    raw["checkpoint_path"] = ""
    return raw


def _drain_resume_artifacts(tmp_path):
    drained = AttackService(_config()).run(
        build_schedule(_load(400, 4_000.0)),
        chaos=_drain_at(800_000),
        checkpoint_dir=tmp_path / "drained",
    )
    resumed = AttackService(_config()).run(
        (), resume_from=drained.checkpoint_path, checkpoint_dir=tmp_path
    )
    redrained = AttackService(_config()).run(
        (),
        chaos=_drain_now,
        resume_from=drained.checkpoint_path,
        checkpoint_dir=tmp_path / "redrained",
    )
    assert drained.status == redrained.status == "drained"
    assert resumed.status == "completed"
    assert drained.accounting.checkpointed > 0
    assert resumed.accounting.resumed == drained.accounting.checkpointed
    # Every resumed session went straight back into the checkpoint.
    assert redrained.accounting.completed == 0
    assert redrained.accounting.checkpointed == drained.accounting.checkpointed
    return {
        "drained": _blanked(drained),
        "drained_checkpoint": Path(drained.checkpoint_path).read_text(),
        "resumed": _blanked(resumed),
        "redrained": _blanked(redrained),
        "redrained_checkpoint": Path(redrained.checkpoint_path).read_text(),
    }


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_report_matches_golden_digest(name, tmp_path):
    if name == "chaos":
        artifacts = _chaos_report()
    elif name == "drain-resume":
        artifacts = _drain_resume_artifacts(tmp_path)
    else:
        report = _report(*PLAIN[name])
        assert report.accounting.balances()
        if name == "overload":
            assert report.accounting.shed > 0
        else:
            assert report.accounting.completed == report.accounting.offered
        artifacts = report.to_json()
    blob = json.dumps(artifacts, sort_keys=True).encode()
    assert hashlib.sha256(blob).hexdigest() == GOLDEN[name]


def test_untyped_lane_error_quarantines_one_session(monkeypatch):
    real_run_round = DeviceLane.run_round
    calls = []

    def run_round(self, probes, idle_us):
        calls.append(None)
        if len(calls) == 5:
            raise RuntimeError("lane poisoned")
        return real_run_round(self, probes, idle_us)

    monkeypatch.setattr(DeviceLane, "run_round", run_round)
    service = AttackService(_config())
    report = service.run(build_schedule(_load(40, 20_000.0)))
    acct = report.accounting
    assert acct.quarantined == 1
    assert acct.completed == 39
    assert acct.balances()
    assert report.status == "completed"
    assert not any(lane.lock.locked for lane in service.fleet.lanes)
