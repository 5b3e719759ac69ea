"""Fast tier-1 units: generation, mutation, coverage, one executed case."""

import pytest

from repro.dsa.descriptor import make_memcpy
from repro.dsa.wq import WorkQueueConfig, WqMode
from repro.errors import (
    CompletionTimeoutError,
    ConfigurationError,
    QueueFullError,
)
from repro.faults.plan import FaultPlan, FaultSite
from repro.fuzz.__main__ import main
from repro.fuzz.campaign import LANE_GUIDED, LANE_TOPOLOGY
from repro.fuzz.coverage import CoverageMap, bucket
from repro.fuzz.executor import execute_case
from repro.fuzz.gen import (
    MAX_OPS,
    OP_KINDS,
    derive_rng,
    generate_case,
    generate_topology,
    mutate,
    splice,
)
from repro.hw.units import PAGE_SIZE
from repro.invariants import InvariantMonitor
from repro.mitigation.partitioning import privileged_dmwr_config
from repro.virt.system import CloudSystem


def _topology(seed=0):
    return generate_topology(derive_rng(seed, LANE_TOPOLOGY))


class TestGeneration:
    def test_topology_is_deterministic(self):
        assert _topology(3) == _topology(3)
        assert _topology(3) != _topology(4)

    def test_topology_always_has_shared_and_dedicated(self):
        for seed in range(8):
            modes = [wq["mode"] for wq in _topology(seed)["wqs"]]
            assert "shared" in modes[:2] and "dedicated" in modes[:2]

    def test_case_is_pure_function_of_seed_lane_iteration(self):
        topo = _topology()
        draw = lambda it: generate_case(  # noqa: E731
            derive_rng(0, LANE_GUIDED, it), topo, processes=2
        )
        assert draw(5) == draw(5)
        assert draw(5) != draw(6)

    def test_case_ops_use_known_vocabulary(self):
        topo = _topology()
        for iteration in range(10):
            ops = generate_case(derive_rng(1, LANE_GUIDED, iteration), topo, 2)
            assert ops
            assert all(op["kind"] in OP_KINDS for op in ops)


class TestMutation:
    def test_mutant_is_deterministic_and_differs(self):
        topo = _topology()
        parent = generate_case(derive_rng(0, LANE_GUIDED, 0), topo, 2)
        a = mutate(derive_rng(0, LANE_GUIDED, 1), list(parent), topo, 2)
        b = mutate(derive_rng(0, LANE_GUIDED, 1), list(parent), topo, 2)
        assert a == b
        assert a != parent

    def test_mutant_length_is_bounded(self):
        topo = _topology()
        ops = generate_case(derive_rng(2, LANE_GUIDED, 0), topo, 2)
        for iteration in range(40):
            ops = mutate(derive_rng(2, LANE_GUIDED, iteration), ops, topo, 2)
        assert 1 <= len(ops) <= 4 * MAX_OPS

    def test_splice_crosses_over(self):
        topo = _topology()
        first = generate_case(derive_rng(3, LANE_GUIDED, 0), topo, 2)
        second = generate_case(derive_rng(3, LANE_GUIDED, 1), topo, 2)
        child = splice(derive_rng(3, LANE_GUIDED, 2), first, second)
        assert child and all(op in first + second for op in child)


class TestCoverage:
    def test_bucket_bands(self):
        assert [bucket(n) for n in (1, 2, 3, 4, 7, 8, 15, 16)] == [
            1, 2, 3, 5, 5, 6, 6, 7,
        ]

    def test_new_features_only_counted_once(self):
        cov = CoverageMap()
        cov.begin_case()
        cov.probe("wq.enqueue", "shared:q0")
        assert cov.end_case() == 1
        cov.begin_case()
        cov.probe("wq.enqueue", "shared:q0")
        assert cov.end_case() == 0
        cov.begin_case()
        cov.probe("wq.enqueue", "shared:q0")
        cov.probe("wq.enqueue", "shared:q0")  # count 2 -> new bucket
        assert cov.end_case() == 1

    def test_json_round_trip(self):
        cov = CoverageMap()
        cov.begin_case()
        cov.probe("state", "wq01e1d2")
        cov.probe("state", "wq00e0d0")
        cov.end_case()
        clone = CoverageMap.from_json(cov.to_json())
        assert clone.to_json() == cov.to_json()
        assert clone.features == cov.features


class TestExecutor:
    def test_clean_case_reports_no_finding(self):
        topo = _topology()
        ops = generate_case(derive_rng(0, LANE_GUIDED, 0), topo, 2)
        result = execute_case(ops, topo, seed=0, processes=2)
        assert result.finding is None
        assert result.ops_executed == len(ops)

    def test_coverage_instrumentation_observes_execution(self):
        topo = _topology()
        cov = CoverageMap()
        new = 0
        for iteration in range(3):
            ops = generate_case(derive_rng(0, LANE_GUIDED, iteration), topo, 2)
            result = execute_case(
                ops, topo, seed=0, processes=2, coverage=cov
            )
            new += result.new_features
        assert new == cov.features > 0


#: A memmove this long outlasts every submission a case makes after it.
LONG_COPY = 1 << 20


class _Case:
    """One hand-driven case: WQ 0 shared and WQ 1 dedicated, both of
    size 2 on engine 0, one process with a portal on each."""

    def __init__(self, device_config=None, fault_plan=None):
        self.system = CloudSystem(
            seed=0,
            invariants="off",
            device_config=device_config,
            fault_plan=fault_plan,
        )
        device = self.device = self.system.device
        device.configure_group(0, (0,))
        for wq_id, mode in ((0, WqMode.SHARED), (1, WqMode.DEDICATED)):
            device.configure_wq(
                WorkQueueConfig(wq_id=wq_id, size=2, mode=mode, group_id=0)
            )
        self.proc = self.system.create_vm("vm").spawn_process("p")
        self.portals = [self.system.open_portal(self.proc, wq) for wq in (0, 1)]
        self.src = self.proc.buffer(LONG_COPY)
        self.dst = self.proc.buffer(LONG_COPY)
        self.comp = self.proc.buffer(PAGE_SIZE)
        #: Past every mapping: a copy from here page-faults.
        self.hole = self.comp + 16 * PAGE_SIZE

    def copy(self, size=256, src=None):
        """A memmove from *src* (default: the source buffer)."""
        return make_memcpy(
            self.proc.pasid,
            self.src if src is None else src,
            self.dst,
            size,
            self.comp,
        )

    def features(self, drive):
        """The sorted ``site|token|bucket`` features *drive* produces."""
        coverage = CoverageMap()
        InvariantMonitor(checkers=[coverage]).attach_system(self.system)
        coverage.begin_case()
        drive(self)
        coverage.end_case()
        return coverage.to_json()["features"]


def _fill_with_enqcmd(case):
    for _ in range(3):
        case.portals[0].enqcmd(case.copy(size=LONG_COPY))


def _fill_with_movdir64b(case):
    case.portals[1].movdir64b(case.copy(size=LONG_COPY))
    case.portals[1].movdir64b(case.copy(size=LONG_COPY))
    with pytest.raises(QueueFullError):
        case.portals[1].movdir64b(case.copy(size=LONG_COPY))


def _drain(case):
    case.portals[0].enqcmd(case.copy(size=LONG_COPY))
    case.portals[0].enqcmd(case.copy())
    case.device.disable_wq(0)
    case.device.disable_wq(0)


def _resolved_page_fault(case):
    def handler(pasid, address, write):
        case.proc.space.map_range(address & ~(PAGE_SIZE - 1), PAGE_SIZE)
        return True

    case.device.prs.set_handler(handler)
    case.portals[0].submit_wait(case.copy(src=case.hole))


def _unresolved_page_fault(case):
    case.portals[0].submit_wait(case.copy(src=case.hole))


def _rejects_and_timeout(case):
    with pytest.raises(ConfigurationError):
        case.portals[1].enqcmd(case.copy())
    with pytest.raises(ConfigurationError):
        case.portals[0].movdir64b(case.copy())
    case.portals[0].enqcmd(case.copy(size=LONG_COPY))
    with pytest.raises(CompletionTimeoutError):
        case.portals[0].submit_wait(case.copy(), timeout_cycles=1)


def _injected_faults(case):
    case.portals[0].submit_wait(case.copy())
    case.portals[0].submit_wait(case.copy(src=case.hole))


#: What one long memmove that dispatches at once reports.
_LONG_COPY_RUN = [
    "ats.translate|walk|3",
    "devtlb.access|comp:miss|1",
    "devtlb.access|dst:miss|1",
    "devtlb.access|src:miss|1",
    "engine.execute|memmove|1",
    "engine.stream|comp:single|1",
    "engine.stream|dst:multi|1",
    "engine.stream|src:multi|1",
]


class TestCoveragePins:
    """The exact feature list of one short case per model path.

    These pin what each path reports to the coverage map, so rewiring
    how the model reports to it must reproduce them.
    """

    def test_shared_enqcmd_accept_and_retry(self):
        assert _Case().features(_fill_with_enqcmd) == sorted(
            _LONG_COPY_RUN
            + [
                "portal.enqcmd|accept|2",
                "portal.enqcmd|retry|1",
                "wq.enqueue|shared:full|1",
                "wq.enqueue|shared:q2|1",
                "wq.enqueue|shared:q3|1",
            ]
        )

    def test_hidden_enqcmd_reports_no_portal_answer(self):
        # The privileged-DMWr path retries inside the device: the queue
        # reports every attempt, the portal reports nothing.
        case = _Case(device_config=privileged_dmwr_config())
        assert case.features(_fill_with_enqcmd) == sorted(
            _LONG_COPY_RUN
            + [
                "wq.enqueue|shared:full|5",
                "wq.enqueue|shared:q2|1",
                "wq.enqueue|shared:q3|1",
            ]
        )

    def test_dedicated_movdir64b_accept_and_full(self):
        assert _Case().features(_fill_with_movdir64b) == sorted(
            _LONG_COPY_RUN
            + [
                "portal.movdir64b|accept|2",
                "portal.movdir64b|full|1",
                "wq.enqueue|dedicated:full|1",
                "wq.enqueue|dedicated:q2|1",
                "wq.enqueue|dedicated:q3|1",
            ]
        )

    def test_drain_aborted_then_empty(self):
        assert _Case().features(_drain) == sorted(
            _LONG_COPY_RUN
            + [
                "portal.enqcmd|accept|2",
                "wq.drain|aborted|1",
                "wq.drain|empty|1",
                "wq.enqueue|shared:q2|1",
                "wq.enqueue|shared:q3|1",
            ]
        )

    def test_translation_fault_resolved_by_prs(self):
        assert _Case().features(_resolved_page_fault) == [
            "ats.prs|resolved|1",
            "ats.translate|prs-retry|1",
            "ats.translate|walk|2",
            "devtlb.access|comp:miss|1",
            "devtlb.access|dst:miss|1",
            "devtlb.access|src:miss|1",
            "engine.execute|memmove|1",
            "engine.stream|comp:single|1",
            "engine.stream|dst:single|1",
            "engine.stream|src:single|1",
            "portal.enqcmd|accept|1",
            "wq.enqueue|shared:q2|1",
        ]

    def test_translation_fault_unresolved(self):
        assert _Case().features(_unresolved_page_fault) == [
            "ats.prs|unresolved|1",
            "ats.translate|prs-retry|1",
            "devtlb.access|src:miss|1",
            "engine.execute|memmove|1",
            "engine.fault|translation|1",
            "engine.stream|src:single|1",
            "portal.enqcmd|accept|1",
            "wq.enqueue|shared:q2|1",
        ]

    def test_portal_rejects_and_wait_timeout(self):
        assert _Case().features(_rejects_and_timeout) == sorted(
            _LONG_COPY_RUN
            + [
                "portal.enqcmd|accept|2",
                "portal.enqcmd|dedicated-reject|1",
                "portal.movdir64b|shared-reject|1",
                "portal.wait|timeout|1",
                "wq.enqueue|shared:q2|1",
                "wq.enqueue|shared:q3|1",
            ]
        )

    def test_injected_completion_error_and_prs_drop(self):
        plan = (
            FaultPlan(seed=0)
            .with_site(FaultSite.COMPLETION_ERROR, probability=1.0)
            .with_site(FaultSite.PRS_DROP, probability=1.0)
        )
        assert _Case(fault_plan=plan).features(_injected_faults) == [
            "ats.prs|injected-drop|1",
            "ats.translate|prs-retry|1",
            "ats.translate|walk|3",
            "devtlb.access|comp:miss|1",
            "devtlb.access|dst:miss|1",
            "devtlb.access|src:evict|1",
            "devtlb.access|src:miss|1",
            "engine.execute|memmove|2",
            "engine.fault|injected|1",
            "engine.fault|translation|1",
            "engine.stream|comp:single|1",
            "engine.stream|dst:single|1",
            "engine.stream|src:single|2",
            "portal.enqcmd|accept|2",
            "wq.enqueue|shared:q2|2",
        ]


class TestCli:
    def test_zero_processes_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--processes", "0", "--dir", str(tmp_path / "campaign")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "campaign").exists()
