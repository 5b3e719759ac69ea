"""Tests for the command-line experiment runner."""

import importlib

import pytest

from repro.experiments import __main__ as cli
from repro.experiments.__main__ import EXPERIMENTS, main


class TestCli:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in EXPERIMENTS:
            assert name in out

    def test_registry_covers_every_artifact(self):
        assert set(EXPERIMENTS) == {
            "re", "fig04", "fig06", "fig09", "fig10", "fig11", "fig12",
            "fig13", "fig14", "table3", "table4", "iotlb", "openworld",
        }

    def test_every_module_exports_only_trial_plan_and_report(self):
        for path, _ in EXPERIMENTS.values():
            module = importlib.import_module(path)
            assert callable(module.trial_plan), path
            assert callable(module.report), path
            assert not hasattr(module, "run"), path
            assert not hasattr(module, "plan_source"), path

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_run_one_fast_experiment(self, capsys):
        assert main(["re"]) == 0
        out = capsys.readouterr().out
        assert "reverse-engineering" in out
        assert "reproduced" in out

    def test_bad_set_key_is_a_usage_error(self, capsys):
        assert main(["fig04", "--set", "no_such_knob=1"]) == 2
        assert "bad trial_plan arguments" in capsys.readouterr().err

    def test_type_error_from_the_run_propagates(self, monkeypatch):
        """A TypeError raised inside a trial or finalize is a bug: it
        leaves ``main`` (exit 1 with a traceback), not exit 2."""

        def broken_run(*args, **kwargs):
            raise TypeError("raised inside the run")

        monkeypatch.setattr(cli, "run_experiment", broken_run)
        with pytest.raises(TypeError, match="raised inside the run"):
            main(["fig04"])

    def test_all_accepts_workers(self, monkeypatch):
        """``all --workers N`` hands N to every experiment in the table,
        so they all run on the one pool ``get_pool(N)`` keeps warm."""
        table = {name: EXPERIMENTS[name] for name in ("re", "fig09")}
        monkeypatch.setattr(cli, "EXPERIMENTS", table)
        calls = []

        def recording_run_one(name, **kwargs):
            calls.append((name, kwargs["workers"]))
            return 0

        monkeypatch.setattr(cli, "run_one", recording_run_one)
        assert main(["all", "--workers", "2"]) == 0
        assert calls == [("re", 2), ("fig09", 2)]

    def test_all_still_rejects_single_run_flags(self):
        with pytest.raises(SystemExit):
            main(["all", "--deadline", "5"])
