"""Serial ≡ parallel equivalence: a plan run with ``workers=N`` on the
worker pool must leave the same observable artifact as the serial
loop — same finalized result bytes, same journal entries and payload
pickles, same manifest counts.

The fig09 cases (3 trials) run in tier-1, including a kill-at-trial-k
plus resume-with-a-different-worker-count round trip.  The wider sweeps
(4 workers, table3, fig11) are marked ``slow``
(run via ``scripts/check.sh full``).

The three-way test runs all 13 experiments at their pinned reduced
scale serially, on two pool workers, and interrupted half way then
resumed, and asserts one ``result.pkl`` digest (the pinned one) on all
three paths.  The cheap experiments run in tier-1, the rest in the
``slow`` lane.

Comparison notes: manifest ``segments`` carry pids and wall-clock
timestamps and journal records carry per-trial ``elapsed_s``, so those
fields are masked; journal records are compared sorted by trial index
because the pool parent appends them in completion order (the
*entries* are identical — see ``CheckpointJournal.entries``).
"""

import functools
import json
import pickle
from multiprocessing import shared_memory
from pathlib import Path

import pytest

from repro.experiments import fig09_covert, fig11_wf_classification, table3_noise
from repro.experiments.checkpoint import (
    JOURNAL_NAME,
    MANIFEST_NAME,
    STATUS_COMPLETED,
    STATUS_INTERRUPTED,
    RunManifest,
)
from repro.experiments.pool import WorkerPool, shutdown_pools
from repro.experiments.runner import ExperimentPlan, TrialSpec, run_experiment
from repro.experiments.wf_common import WfSamplerSettings
from tests.experiments.result_digests import GOLDEN, REDUCED, result_digest
from tests.experiments.test_resume import _assert_resume_equivalent

FIG09_CONFIG = {
    "payload_bits": 48,
    "runs": 1,
    "devtlb_windows": (50.0, 100.0),
    "swq_windows": (50.0,),
}

TABLE3_CONFIG = {
    "repeats": 2,
    "covert_bits": 24,
    "keystrokes": 8,
    "wf_sites": 2,
    "wf_visits": 2,
    "llm_traces": 2,
    "llm_models": 2,
}

FIG11_CONFIG = {
    "sites": 3,
    "visits_per_site": 2,
    "settings": WfSamplerSettings(
        sample_period_us=100.0, samples_per_slot=8, slots=30
    ),
    "epochs": 3,
    "hidden": 4,
}


@pytest.fixture(autouse=True)
def _fresh_pools():
    """Each test gets (and leaves behind) a clean pool registry."""
    shutdown_pools()
    yield
    shutdown_pools()


def _fig09_plan() -> ExperimentPlan:
    return fig09_covert.trial_plan(**FIG09_CONFIG)


def _boom() -> None:
    raise KeyboardInterrupt


def _interrupted_fig09_plan(k: int) -> ExperimentPlan:
    """The fig09 plan with trial *k* dying mid-run.  Module-level (and
    built via :func:`functools.partial`) so it pickles into pool
    workers as the plan source of the killed parallel run."""
    plan = _fig09_plan()
    return ExperimentPlan(
        name=plan.name,
        seed=plan.seed,
        config=plan.config,
        trials=tuple(
            TrialSpec(key=spec.key, fn=_boom if index == k else spec.fn)
            for index, spec in enumerate(plan.trials)
        ),
        finalize=plan.finalize,
        min_successes=plan.min_successes,
    )


# ----------------------------------------------------------------------
# Artifact comparison helpers
# ----------------------------------------------------------------------
def _manifest_fields(run_dir: Path, drop: tuple[str, ...]) -> dict:
    data = json.loads((Path(run_dir) / MANIFEST_NAME).read_text())
    for field in ("segments",) + drop:
        data.pop(field, None)
    return data


def _journal_records(run_dir: Path) -> list[dict]:
    records = [
        json.loads(line)
        for line in (Path(run_dir) / JOURNAL_NAME).read_text().splitlines()
        if line
    ]
    for record in records:
        record.pop("elapsed_s", None)
    return sorted(records, key=lambda record: record["index"])


def _payload_bytes(run_dir: Path) -> dict[str, bytes]:
    return {
        path.name: path.read_bytes()
        for path in sorted((Path(run_dir) / "trials").glob("*.pkl"))
    }


def _assert_same_artifact(
    serial_dir: Path, parallel_dir: Path, drop: tuple[str, ...] = ()
) -> None:
    assert _manifest_fields(parallel_dir, drop) == _manifest_fields(
        serial_dir, drop
    ), "manifests diverge"
    assert _journal_records(parallel_dir) == _journal_records(
        serial_dir
    ), "journal entries diverge"
    assert _payload_bytes(parallel_dir) == _payload_bytes(
        serial_dir
    ), "payload pickles diverge"


def _dumps(obj) -> bytes:
    return pickle.dumps(obj, protocol=4)


def _assert_parallel_matches_serial(plan_factory, plan_source, tmp_path, workers):
    serial_dir = tmp_path / "serial"
    parallel_dir = tmp_path / f"w{workers}"
    serial = run_experiment(plan_factory(), run_dir=serial_dir)
    parallel = run_experiment(
        plan_factory(),
        run_dir=parallel_dir,
        workers=workers,
        plan_source=plan_source,
    )
    assert serial.status == STATUS_COMPLETED
    assert parallel.status == STATUS_COMPLETED
    assert parallel.completed == serial.completed
    assert parallel.failed == serial.failed
    assert _dumps(parallel.result) == _dumps(serial.result)
    _assert_same_artifact(serial_dir, parallel_dir)
    return serial, parallel


class TestFig09Parallel:
    def test_two_workers_match_serial_byte_for_byte(self, tmp_path):
        _assert_parallel_matches_serial(
            _fig09_plan,
            functools.partial(fig09_covert.trial_plan, **FIG09_CONFIG),
            tmp_path,
            workers=2,
        )

    def test_kill_and_resume_across_worker_counts(self, tmp_path):
        """Kill a 2-worker run at trial 1, resume it with 3 workers, and
        compare against an uninterrupted serial run."""
        serial_dir = tmp_path / "serial"
        reference = run_experiment(_fig09_plan(), run_dir=serial_dir)

        run_dir = tmp_path / "killed"
        interrupted = run_experiment(
            _interrupted_fig09_plan(1),
            run_dir=run_dir,
            workers=2,
            plan_source=functools.partial(_interrupted_fig09_plan, 1),
        )
        assert interrupted.status == STATUS_INTERRUPTED
        assert interrupted.completed < len(reference.plan.trials)

        resumed = run_experiment(
            _fig09_plan(),
            run_dir=run_dir,
            resume=True,
            workers=3,
            plan_source=functools.partial(fig09_covert.trial_plan, **FIG09_CONFIG),
        )
        assert resumed.status == STATUS_COMPLETED
        assert resumed.resumed == interrupted.completed
        assert _dumps(resumed.result) == _dumps(reference.result)
        # ``resumed`` counts trials inherited from the killed segment, so
        # it legitimately differs from the single-segment reference.
        _assert_same_artifact(serial_dir, run_dir, drop=("resumed",))
        manifest = RunManifest.load(run_dir)
        assert [s["event"] for s in manifest.segments] == ["start", "resume"]


@pytest.mark.slow
class TestParallelSweeps:
    def test_fig09_four_workers(self, tmp_path):
        _assert_parallel_matches_serial(
            _fig09_plan,
            functools.partial(fig09_covert.trial_plan, **FIG09_CONFIG),
            tmp_path,
            workers=4,
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_table3_cross_experiment_sweep(self, tmp_path, workers):
        _assert_parallel_matches_serial(
            lambda: table3_noise.trial_plan(**TABLE3_CONFIG),
            functools.partial(table3_noise.trial_plan, **TABLE3_CONFIG),
            tmp_path,
            workers=workers,
        )

    @pytest.mark.parametrize("workers", [2, 4])
    def test_fig11_visit_sweep(self, tmp_path, workers):
        _assert_parallel_matches_serial(
            lambda: fig11_wf_classification.trial_plan(**FIG11_CONFIG),
            functools.partial(fig11_wf_classification.trial_plan, **FIG11_CONFIG),
            tmp_path,
            workers=workers,
        )


#: Every pinned experiment, Table III at the sweep's scale above.
THREE_WAY = {**REDUCED, "TestTable3": (table3_noise, TABLE3_CONFIG)}
#: Cheap enough for tier-1; the rest run in the ``slow`` lane.
THREE_WAY_TIER1 = (
    "TestFig4",
    "TestFig6",
    "TestFig9",
    "TestFig14",
    "TestReverseEngineering",
    "TestIotlbStudy",
)


@pytest.mark.parametrize(
    "name",
    [
        name if name in THREE_WAY_TIER1 else pytest.param(name, marks=pytest.mark.slow)
        for name in THREE_WAY
    ],
)
def test_serial_pool_and_resume_give_one_digest(name, tmp_path):
    """One ``result.pkl`` whichever way the experiment ran: serially, on
    two pool workers, or interrupted half way and resumed — and it is
    the pinned digest."""
    module, config = THREE_WAY[name]
    factory = functools.partial(module.trial_plan, **config)
    serial, _ = _assert_parallel_matches_serial(factory, factory, tmp_path, workers=2)
    assert result_digest(serial.result) == GOLDEN[name]
    resumed_dir = tmp_path / "resumed"
    _assert_resume_equivalent(
        factory,
        len(serial.plan.trials) // 2,
        resumed_dir,
        reference=serial.result,
    )
    _assert_same_artifact(serial.run_dir, resumed_dir, drop=("resumed",))


@pytest.mark.slow
def test_pool_creates_no_shared_memory(monkeypatch):
    """Results and liveness both travel over the workers' pipes: a pool
    run creates no shared-memory segment at all."""
    created: list[str] = []
    real_init = shared_memory.SharedMemory.__init__

    def counting_init(self, name=None, create=False, size=0, **kwargs):
        real_init(self, name, create, size, **kwargs)
        if create:
            created.append(self.name)

    monkeypatch.setattr(shared_memory.SharedMemory, "__init__", counting_init)
    pool = WorkerPool(2)
    try:
        outcome = pool.run(
            _fig09_plan(),
            plan_source=functools.partial(fig09_covert.trial_plan, **FIG09_CONFIG),
        )
    finally:
        pool.close()
    assert outcome.status == STATUS_COMPLETED
    assert outcome.pool["mode"] == "pool"
    assert created == []
