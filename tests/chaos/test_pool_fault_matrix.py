"""Chaos matrix for the persistent worker pool: every pool fault site,
fired at probability 1.0 inside real experiment runs, must end in a
*healed* run whose artifact is byte-identical to an undisturbed serial
run — crashed workers respawned, stalled workers SIGKILLed by the
watchdog, a corrupt (unpicklable) result message detected, the worker
failed and its trial requeued.

Also here (all marked ``slow``, run via ``scripts/check.sh full``):

* external ``kill -9`` of a worker mid-trial (fig09 and table3), healed
  byte-identically;
* the same kill with no respawn budget left: the run degrades mid-run
  to the inline serial loop, still byte-identical;
* the SIGTERM drain contract of the pool parent: a SIGTERM mid-run
  exits 130 with the manifest flushed and resumable.
"""

import functools
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import table3_noise
from repro.experiments.checkpoint import (
    MANIFEST_NAME,
    STATUS_COMPLETED,
    STATUS_INTERRUPTED,
    RunManifest,
)
from repro.experiments.pool import get_pool, shutdown_pools
from repro.experiments.runner import ExperimentPlan, TrialSpec, run_experiment
from repro.experiments.supervisor import DEGRADED_SERIAL, PoolConfig
from repro.faults import FaultPlan, FaultSite
from repro.faults.sites import POOL_SITES
from tests.experiments.test_parallel_equivalence import (
    TABLE3_CONFIG,
    _assert_same_artifact,
    _fig09_plan,
)

pytestmark = pytest.mark.slow

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Every pool site with the spec that makes its effect observable.  The
#: stall magnitude (cycles, 1e6/s) far exceeds the watchdog deadline in
#: :data:`_CHAOS_CONFIG`, so detection — not patience — ends the stall.
POOL_MATRIX = {
    FaultSite.POOL_WORKER_CRASH: {},
    FaultSite.POOL_WORKER_STALL: {"magnitude_cycles": 30_000_000},
    FaultSite.POOL_RESULT_CORRUPT: {},
}

#: Tight watchdog so a stalled worker is SIGKILLed in ~1s, not 30.
_CHAOS_CONFIG = PoolConfig(hang_floor_s=1.0, hang_factor=1.0)


@pytest.fixture(autouse=True)
def _fresh_pools():
    shutdown_pools()
    yield
    shutdown_pools()


def _chaos_fig09_plan(site_value: str) -> ExperimentPlan:
    """The tier-1 fig09 plan plus one pool fault site at p=1.0."""
    site = FaultSite(site_value)
    plan = _fig09_plan()
    return ExperimentPlan(
        name=plan.name,
        seed=plan.seed,
        config=plan.config,
        trials=plan.trials,
        finalize=plan.finalize,
        min_successes=plan.min_successes,
        fault_plan=FaultPlan(seed=7).with_site(
            site, probability=1.0, **POOL_MATRIX[site]
        ),
    )


def _kill_once(flag_path: str, fn):
    """SIGKILL the hosting worker the first time this trial runs (an
    external ``kill -9`` mid-trial); behave normally once the flag file
    proves the kill already happened."""
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return fn()


def _kill_once_plan(experiment: str, flag_path: str, k: int) -> ExperimentPlan:
    if experiment == "fig09":
        plan = _fig09_plan()
    else:
        plan = table3_noise.trial_plan(**TABLE3_CONFIG)
    return ExperimentPlan(
        name=plan.name,
        seed=plan.seed,
        config=plan.config,
        trials=tuple(
            TrialSpec(
                key=spec.key,
                fn=functools.partial(_kill_once, flag_path, spec.fn)
                if index == k
                else spec.fn,
            )
            for index, spec in enumerate(plan.trials)
        ),
        finalize=plan.finalize,
        min_successes=plan.min_successes,
    )


def _clean_plan(experiment: str) -> ExperimentPlan:
    return _kill_once_plan(experiment, "/nonexistent-but-unused", -1)


class TestPoolSiteMatrix:
    def test_matrix_covers_every_pool_site(self):
        assert set(POOL_MATRIX) == set(POOL_SITES)

    @pytest.mark.parametrize(
        "site", sorted(POOL_MATRIX, key=lambda s: s.value)
    )
    def test_site_heals_to_serial_identical_bytes(self, site, tmp_path):
        serial_dir = tmp_path / "serial"
        pool_dir = tmp_path / "pool"
        serial = run_experiment(
            _chaos_fig09_plan(site.value), run_dir=serial_dir
        )
        assert serial.status == STATUS_COMPLETED
        healed = get_pool(2, config=_CHAOS_CONFIG).run(
            _chaos_fig09_plan(site.value),
            plan_source=functools.partial(_chaos_fig09_plan, site.value),
            run_dir=pool_dir,
        )
        assert healed.status == STATUS_COMPLETED
        assert healed.pool["respawns"] >= 1, (
            f"{site.value}: supervision never had to intervene — the "
            "chaos site did not bite"
        )
        assert healed.pool["poisoned"] == []
        _assert_same_artifact(serial_dir, pool_dir)


class TestExternalKillMidTrial:
    @pytest.mark.parametrize("experiment", ["fig09", "table3"])
    def test_worker_killed_at_trial_k_heals_byte_identically(
        self, experiment, tmp_path
    ):
        serial_dir = tmp_path / "serial"
        pool_dir = tmp_path / "pool"
        serial = run_experiment(_clean_plan(experiment), run_dir=serial_dir)
        assert serial.status == STATUS_COMPLETED

        flag = tmp_path / "killed.flag"
        healed = get_pool(2).run(
            _kill_once_plan(experiment, str(flag), 1),
            plan_source=functools.partial(
                _kill_once_plan, experiment, str(flag), 1
            ),
            run_dir=pool_dir,
        )
        assert flag.exists(), "the kill never happened"
        assert healed.status == STATUS_COMPLETED
        assert healed.pool["respawns"] == 1
        assert healed.pool["poisoned"] == []
        _assert_same_artifact(serial_dir, pool_dir)


class TestRespawnBudgetDegradation:
    def test_exhausted_budget_degrades_mid_run_byte_identically(
        self, tmp_path
    ):
        """The only degradation that happens after pooled results have
        arrived: the first respawn exceeds a zero budget, and the
        remaining trials run inline on the same ledger."""
        serial_dir = tmp_path / "serial"
        pool_dir = tmp_path / "pool"
        serial = run_experiment(_clean_plan("fig09"), run_dir=serial_dir)
        assert serial.status == STATUS_COMPLETED

        flag = tmp_path / "killed.flag"
        degraded = get_pool(2, config=PoolConfig(respawn_budget=0)).run(
            _kill_once_plan("fig09", str(flag), 1),
            plan_source=functools.partial(
                _kill_once_plan, "fig09", str(flag), 1
            ),
            run_dir=pool_dir,
        )
        assert flag.exists(), "the kill never happened"
        assert degraded.status == STATUS_COMPLETED
        assert degraded.pool["mode"] == DEGRADED_SERIAL
        assert "respawn budget" in degraded.pool["degraded"]
        _assert_same_artifact(serial_dir, pool_dir)


def _pid_after(seconds: float, index: int) -> tuple[int, int]:
    time.sleep(seconds)
    return index, os.getpid()


def _pid_after_kill_once(
    flag_path: str, seconds: float, index: int
) -> tuple[int, int]:
    """Run *seconds*, then SIGKILL the hosting worker the first time."""
    time.sleep(seconds)
    if not os.path.exists(flag_path):
        with open(flag_path, "w") as fh:
            fh.write("killed")
        os.kill(os.getpid(), signal.SIGKILL)
    return index, os.getpid()


def _warm_plan() -> ExperimentPlan:
    return ExperimentPlan(
        name="warm",
        seed=0,
        config={"trials": 2},
        trials=tuple(
            TrialSpec(key=f"warm/{i}", fn=functools.partial(_pid_after, 0.0, i))
            for i in range(2)
        ),
        finalize=dict,
    )


def _idle_requeue_plan(flag_path: str) -> ExperimentPlan:
    """Trials 0 and 1 run 0.9 s each on the two workers, which lifts the
    hang deadline to 3 × 0.9 = 2.7 s.  Trial 2 then runs 2 s and kills
    its worker, so the other worker sits idle for about 2 s — past the
    1 s hang floor — before the requeued trial 2 reaches it and runs
    another 2 s."""
    trials = [
        TrialSpec(
            key=f"idle-requeue/{i}", fn=functools.partial(_pid_after, 0.9, i)
        )
        for i in range(2)
    ]
    trials.append(
        TrialSpec(
            key="idle-requeue/2",
            fn=functools.partial(_pid_after_kill_once, flag_path, 2.0, 2),
        )
    )
    return ExperimentPlan(
        name="idle-requeue",
        seed=0,
        config={"trials": 3},
        trials=tuple(trials),
        finalize=dict,
    )


class TestIdleWorkerGetsRequeuedTrial:
    def test_idle_past_the_hang_floor_is_not_a_hang(self, tmp_path):
        flag = tmp_path / "killed.flag"
        pool = get_pool(
            2, config=PoolConfig(hang_floor_s=1.0, hang_factor=3.0)
        )
        # Both workers warm, so trials 0 and 1 start together.
        assert pool.run(_warm_plan(), plan_source=_warm_plan).pool["mode"] == "pool"
        outcome = pool.run(
            _idle_requeue_plan(str(flag)),
            plan_source=functools.partial(_idle_requeue_plan, str(flag)),
        )
        assert flag.exists(), "the kill never happened"
        assert outcome.status == STATUS_COMPLETED
        result = outcome.result
        assert [result[f"idle-requeue/{i}"][0] for i in range(3)] == [0, 1, 2]
        pids = [result[f"idle-requeue/{i}"][1] for i in range(3)]
        assert pids[0] != pids[1]
        # The requeued trial ran on the worker that had sat idle, not on
        # the killed worker's fresh replacement.
        assert pids[2] in pids[:2]
        events = outcome.pool["events"]
        assert [event["blamed"] for event in events] == ["idle-requeue/2"]
        assert not [e for e in events if e["reason"].startswith("hung")]


def _run_cli_until_sigterm(tmp_path) -> tuple[int, Path]:
    run_dir = tmp_path / "sigterm"
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro.experiments",
            "fig09",
            "--set",
            "payload_bits=384",
            "--set",
            "runs=2",
            "--workers",
            "2",
            "--run-dir",
            str(run_dir),
        ],
        env=env,
        cwd=REPO_ROOT,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    try:
        # Watchdog over a real child process: injectable clocks cannot
        # time out a subprocess that genuinely hung.
        deadline = time.monotonic() + 120  # repro-lint: ignore[DET002]
        manifest_path = run_dir / MANIFEST_NAME
        while not manifest_path.exists():
            assert proc.poll() is None, (
                f"CLI exited (rc {proc.returncode}) before checkpointing"
            )
            assert (
                time.monotonic() < deadline  # repro-lint: ignore[DET002]
            ), "manifest never appeared"
            time.sleep(0.02)
        time.sleep(0.3)  # let the run get into the multi-process phase
        proc.send_signal(signal.SIGTERM)
        return proc.wait(timeout=120), run_dir
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=30)


class TestSigtermDrain:
    def test_sigterm_mid_run_flushes_checkpoint_and_exits_130(self, tmp_path):
        returncode, run_dir = _run_cli_until_sigterm(tmp_path)
        assert returncode == 130
        manifest = RunManifest.load(run_dir)
        assert manifest.status == STATUS_INTERRUPTED
        assert manifest.exit_code == 130
