"""Public-API hygiene: exports resolve, __all__ is honest, docs exist."""

import importlib

import pytest

PACKAGES = [
    "repro",
    "repro.hw",
    "repro.ats",
    "repro.dsa",
    "repro.virt",
    "repro.faults",
    "repro.core",
    "repro.covert",
    "repro.workloads",
    "repro.ml",
    "repro.mitigation",
    "repro.analysis",
    "repro.experiments",
]


class TestPublicApi:
    @pytest.mark.parametrize("name", PACKAGES)
    def test_package_imports(self, name):
        module = importlib.import_module(name)
        assert module.__doc__, f"{name} lacks a package docstring"

    @pytest.mark.parametrize(
        "name",
        [p for p in PACKAGES if p not in ("repro", "repro.experiments")],
    )
    def test_all_entries_resolve(self, name):
        module = importlib.import_module(name)
        assert hasattr(module, "__all__"), f"{name} lacks __all__"
        for item in module.__all__:
            assert hasattr(module, item), f"{name}.__all__ lists missing {item}"

    def test_public_items_have_docstrings(self):
        import inspect

        undocumented = []
        for name in PACKAGES:
            module = importlib.import_module(name)
            for item in getattr(module, "__all__", []):
                obj = getattr(module, item)
                if inspect.isclass(obj) or inspect.isfunction(obj):
                    if not inspect.getdoc(obj):
                        undocumented.append(f"{name}.{item}")
        assert not undocumented, f"missing docstrings: {undocumented}"

    def test_version_marker(self):
        import repro

        assert repro.__version__

    def test_py_typed_marker_shipped(self):
        from pathlib import Path

        import repro

        assert (Path(repro.__file__).parent / "py.typed").exists()


class TestMiscEdgeCases:
    def test_overhead_row_zero_baseline(self):
        from repro.mitigation.overhead import OverheadRow

        row = OverheadRow(size_bytes=1, path="dsa", baseline_gbps=0.0, mitigated_gbps=0.0)
        assert row.overhead_percent == 0.0

    def test_cloud_system_memory_budget(self):
        from repro.hw.units import GIB
        from repro.virt.system import CloudSystem

        system = CloudSystem(seed=1, memory_bytes=1 * GIB)
        assert system.memory.total_bytes == GIB

    def test_wf_paper_scale_geometry(self):
        from repro.experiments.wf_common import PAPER_SCALE

        config = PAPER_SCALE.sampler_config()
        assert config.slot_us == 4000  # 10 us x 400
        assert config.trace_us == 1_000_000  # 250 slots = 1 s

    def test_probe_result_exposes_record(self):
        from repro.dsa.descriptor import make_noop
        from tests.conftest import build_host

        host = build_host()
        proc = host.new_process()
        result = proc.portal.submit_wait(make_noop(proc.pasid, proc.comp_record()))
        assert result.record is result.ticket.record
        assert result.ticket.completed
