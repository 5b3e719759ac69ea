"""The soak driver: determinism, clean runs, shrinking, and the CLI."""

from dataclasses import replace

import pytest

import repro.fuzz.executor as executor
import repro.invariants.soak as soak
from repro.dsa.portal import Portal
from repro.errors import InvariantViolation
from repro.experiments.runner import EXIT_INVARIANT
from repro.faults.canary import CANARY_DEVTLB_EVICT, CANARY_ENV
from repro.fuzz.campaign import EXIT_FINDINGS
from repro.fuzz.executor import CaseResult, Finding, execute_case, shrink_case
from repro.invariants.soak import (
    SoakConfig,
    generate_topology,
    generate_workload,
    repro_command,
    run_soak,
)


class TestGeneration:
    def test_workload_is_deterministic(self):
        config = SoakConfig(seed=7, operations=100)
        assert generate_workload(config) == generate_workload(config)

    def test_different_seeds_differ(self):
        a = generate_workload(SoakConfig(seed=1, operations=100))
        b = generate_workload(SoakConfig(seed=2, operations=100))
        assert a != b

    def test_ops_reference_configured_queues_only(self):
        config = SoakConfig(seed=5, operations=200, processes=4)
        topology, ops = generate_workload(config)
        wq_ids = {wq["wq_id"] for wq in topology["wqs"]}
        assert len(ops) == 200
        for op in ops:
            if "wq" in op:
                assert op["wq"] in wq_ids
            if "proc" in op:
                assert 0 <= op["proc"] < config.processes
            if op.get("size") == 0:
                # Zero-length transfers are invalid descriptors.
                assert op["opcode"] == "noop"

    def test_topology_within_model_bounds(self):
        for seed in range(12):
            topology = generate_topology(soak._derive_rng(seed))
            assert 1 <= topology["engines"] <= 4
            spanned = [e for group in topology["groups"] for e in group]
            assert sorted(spanned) == list(range(topology["engines"]))
            for wq in topology["wqs"]:
                assert 4 <= wq["size"] <= 24


class TestExecution:
    def test_clean_strict_soak_on_unfaulted_model(self):
        result = run_soak(SoakConfig(seed=1, operations=120))
        assert result.ok
        assert result.case.violation is None
        assert result.case.ops_executed == 120
        assert result.case.submissions > 0
        assert result.case.handled_errors == 0
        assert result.case.events_seen > 0
        # Strict mode audits at every event plus the final sweep.
        assert result.case.audits_run >= result.case.events_seen

    def test_clean_sampling_soak(self):
        result = run_soak(
            SoakConfig(seed=2, operations=120, mode="sampling", sample_every=16)
        )
        assert result.ok
        assert 0 < result.case.audits_run < result.case.events_seen

    def test_repro_command_carries_the_config(self):
        config = SoakConfig(
            seed=9, operations=150, processes=2, mode="sampling", sample_every=8
        )
        command = repro_command(config)
        assert "--seed 9" in command
        assert "--operations 150" in command
        assert "--processes 2" in command
        assert "--mode sampling" in command
        assert "--sample-every 8" in command
        assert "repro.invariants.soak" in command

    def test_violation_carries_repro_hint(self, monkeypatch):
        """A tripped soak reports the one-command reproduction line."""

        def tripping(ops, topology, repro_hint="", **run):
            result = execute_case(ops, topology, repro_hint=repro_hint, **run)
            violation = InvariantViolation(
                message="synthetic", invariant="wq-credits",
                seed=run["seed"], repro=repro_hint,
            )
            return replace(
                result,
                finding=Finding("invariant", "wq-credits", "synthetic"),
                violation=violation,
            )

        monkeypatch.setattr(soak, "execute_case", tripping)
        result = run_soak(SoakConfig(seed=3, operations=40), shrink_failures=False)
        assert not result.ok
        assert result.case.violation.repro == result.repro
        assert "--seed 3" in result.repro


class TestShrink:
    """The shared shrink helper, driven by a fake case runner."""

    def _shrinkable(self, monkeypatch):
        """Fake case runner: trips iff a marker op survives in the list."""

        def fake_execute(ops, topology, **run):
            tripped = any(op.get("marker") for op in ops)
            finding = Finding("invariant", "wq-credits", "m") if tripped else None
            return CaseResult(
                finding=finding, ops_executed=len(ops),
                submissions=0, handled_errors=0,
            )

        monkeypatch.setattr(executor, "execute_case", fake_execute)

    def test_shrinks_to_the_culprit(self, monkeypatch):
        self._shrinkable(monkeypatch)
        ops = [{"kind": "advance", "cycles": 1} for _ in range(63)]
        ops.insert(40, {"kind": "advance", "cycles": 1, "marker": True})
        config = SoakConfig(seed=0, operations=len(ops))
        minimal, runs = shrink_case(
            ops, {}, "invariant:wq-credits", config.shrink_budget, seed=0
        )
        assert minimal == [{"kind": "advance", "cycles": 1, "marker": True}]
        assert 0 < runs <= config.shrink_budget

    def test_shrink_respects_budget(self, monkeypatch):
        self._shrinkable(monkeypatch)
        ops = [{"kind": "advance", "cycles": 1} for _ in range(200)]
        ops.append({"kind": "advance", "cycles": 1, "marker": True})
        minimal, runs = shrink_case(ops, {}, "invariant:wq-credits", 5, seed=0)
        assert runs <= 5
        assert any(op.get("marker") for op in minimal)

    def test_wrong_invariant_does_not_shrink(self, monkeypatch):
        self._shrinkable(monkeypatch)
        ops = [{"kind": "advance", "cycles": 1, "marker": True} for _ in range(8)]
        minimal, _runs = shrink_case(ops, {}, "invariant:devtlb", 120, seed=0)
        # The fake trips "wq-credits"; asked for "devtlb", nothing drops.
        assert len(minimal) == len(ops)


class TestRealBugs:
    """The soak end to end against a planted bug and an escaped error."""

    def test_canary_found_shrunk_and_reported(self, monkeypatch, capsys):
        monkeypatch.setenv(CANARY_ENV, CANARY_DEVTLB_EVICT)
        config = SoakConfig(seed=0, operations=300)
        result = run_soak(config)
        assert result.case.finding.signature == "invariant:devtlb"
        assert result.case.violation.invariant == "devtlb"
        assert 1 <= len(result.minimal_ops) <= 2
        topology, _ops = generate_workload(config)
        replayed = execute_case(
            list(result.minimal_ops), topology, seed=0, processes=3,
            sample_every=config.sample_every,
        )
        assert replayed.finding.signature == "invariant:devtlb"
        assert soak.main(["--seed", "0", "--operations", "300"]) == EXIT_INVARIANT
        out = capsys.readouterr().out
        assert "INVARIANT VIOLATION" in out
        assert result.repro in out

    def test_escaped_exception_is_a_finding(self, monkeypatch, capsys):
        def broken(self, *args, **kwargs):
            raise KeyError("lost ticket")

        monkeypatch.setattr(Portal, "submit_wait", broken)
        result = run_soak(SoakConfig(seed=0, operations=40), shrink_failures=False)
        assert result.case.finding.signature == "exception:KeyError"
        assert result.case.violation is None
        code = soak.main(["--seed", "0", "--operations", "40", "--no-shrink"])
        assert code == EXIT_FINDINGS == 7
        assert "exception:KeyError" in capsys.readouterr().out


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        assert soak.main(["--seed", "4", "--operations", "60"]) == 0
        out = capsys.readouterr().out
        assert "clean" in out

    def test_failing_run_exits_with_invariant_code(self, monkeypatch, capsys):
        def failing(config, shrink_failures=True):
            violation = InvariantViolation(
                message="m", invariant="wq-credits", seed=config.seed
            )
            case = CaseResult(
                finding=Finding("invariant", "wq-credits", "m"),
                ops_executed=1, submissions=1, handled_errors=0,
                events_seen=1, audits_run=1, violation=violation,
            )
            return soak.SoakResult(
                config=config, case=case,
                repro=repro_command(config),
                minimal_ops=({"kind": "advance", "cycles": 1},),
                shrink_runs=3,
            )

        monkeypatch.setattr(soak, "run_soak", failing)
        code = soak.main(["--seed", "4", "--operations", "60"])
        assert code == EXIT_INVARIANT == 6
        out = capsys.readouterr().out
        assert "wq-credits" in out

    def test_bad_counts_are_usage_errors(self):
        for argv in (["--processes", "0"], ["--operations", "-5"]):
            with pytest.raises(SystemExit) as excinfo:
                soak.main(argv)
            assert excinfo.value.code == 2


@pytest.mark.slow
class TestLongSoak:
    """The real budgeted soak: excluded from tier-1
    (scripts/check.sh full)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_strict_soak_across_seeds(self, seed):
        result = run_soak(SoakConfig(seed=seed, operations=300))
        assert result.ok, result.case.finding

    def test_sampling_soak(self):
        result = run_soak(
            SoakConfig(seed=11, operations=400, mode="sampling", sample_every=8)
        )
        assert result.ok, result.case.finding
