"""Tests for the command-line experiment runner."""

import importlib

import pytest

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

    def test_every_module_has_run_and_report(self):
        for path, _ in EXPERIMENTS.values():
            module = importlib.import_module(path)
            assert callable(module.run)
            assert callable(module.report)

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            main(["fig99"])

    def test_run_one_fast_experiment(self, capsys):
        assert main(["re"]) == 0
        out = capsys.readouterr().out
        assert "reverse-engineering" in out
        assert "reproduced" in out
