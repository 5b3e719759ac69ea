"""Fast tier-1 units: generation, mutation, coverage, one executed case."""

import pytest

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
        cov.note_state("wq00e0d0")
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


class TestCli:
    def test_zero_processes_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as excinfo:
            main(["--processes", "0", "--dir", str(tmp_path / "campaign")])
        assert excinfo.value.code == 2
        assert not (tmp_path / "campaign").exists()
