"""Self-tests of the benchmark; run with ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import importlib
import json
import math
import re
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import bench  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

_TARGETS = (
    spans.SPAN_TARGETS
    + spans.COUNT_TARGETS
    + ((spans.SYSTEM_MODULE, spans.SYSTEM_CLASS, "__init__", ""),)
)
#: Every wrapped attribute, captured before any run wraps it.
ORIGINALS = {
    (module, cls, attr): vars(getattr(importlib.import_module(module), cls))[attr]
    for module, cls, attr, _ in _TARGETS
}


@pytest.fixture(scope="module")
def tiny_runs():
    """One traced tiny-scale run per workload, with both reports."""
    runs = {}
    for name in WORKLOADS:
        run = bench.measure(name, seed=1, seconds=0, trace=True, tiny=True, setup_runs=1)
        runs[name] = (
            run,
            bench.report(run, 0, trace=False)[1],
            bench.report(run, 0, trace=True)[1],
        )
    return runs


def test_benchmark_json_matches_the_code():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == [
        (w.name, w.why) for w in WORKLOADS.values()
    ]
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == bench.PER_LAYER


def test_every_named_metric_is_emitted_with_a_unit(tiny_runs):
    for name, (run, untraced, traced) in tiny_runs.items():
        assert not run.breaches, (name, run.breaches)
        for result, expected in ((untraced, bench.END_TO_END), (traced, bench.PER_LAYER)):
            assert result["correct"] and result["attempted"] >= 1
            assert result["failed"] == 0
            assert list(result["metrics"]) == list(expected)
            for metric, entry in result["metrics"].items():
                assert NAME.fullmatch(metric), metric
                assert entry["unit"] == expected[metric]
                assert math.isfinite(entry["value"]), (name, metric)


def test_traced_and_untraced_runs_agree_on_the_simulation(tiny_runs):
    for name, (run, _, _) in tiny_runs.items():
        digests = {s.digest for s in run.untraced + run.traced}
        assert len(digests) == 1, name
        assert run.traced, name


def test_wrapped_attributes_are_the_originals_again(tiny_runs):
    for (module, cls, attr), original in ORIGINALS.items():
        owner = getattr(importlib.import_module(module), cls)
        assert vars(owner)[attr] is original, f"{cls}.{attr}"


def test_wrappers_are_removed_when_the_unit_raises():
    from repro.virt.system import CloudSystem

    original = vars(CloudSystem)["__init__"]
    unrestored: list[str] = []
    with pytest.raises(ZeroDivisionError):
        with spans.instrument(spans.SpanTracer(), unrestored) as (systems, _):
            assert vars(CloudSystem)["__init__"] is not original
            CloudSystem(seed=3)
            1 / 0
    assert len(systems) == 1
    assert vars(CloudSystem)["__init__"] is original
    assert unrestored == []


def test_speed_sampler_samples_inside_the_block_and_restores_the_signal():
    import host

    before = signal.getsignal(signal.SIGALRM)
    with host.SpeedSampler() as speed:
        deadline = time.perf_counter() + 4 * host.SAMPLE_PERIOD_S
        while time.perf_counter() < deadline:
            pass
    assert len(speed.samples) >= 2
    assert speed.scale > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_self_time_of_a_nested_span_tree():
    # a [0, 10) holds b [1, 5) holding c [2, 3), then b [6, 7).
    tracer = spans.SpanTracer()
    tracer.enter("a", 0)
    tracer.enter("b", 1)
    tracer.enter("c", 2)
    tracer.exit(3)
    tracer.exit(5)
    tracer.enter("b", 6)
    tracer.exit(7)
    tracer.exit(10)
    assert tracer.depth == 0
    assert (tracer.calls("a"), tracer.calls("b"), tracer.calls("c")) == (1, 2, 1)
    assert tracer.self_s("a") == 5  # 10 - (4 + 1)
    assert tracer.self_s("b") == 4  # (4 - 1) + 1
    assert tracer.self_s("c") == 1
    assert tracer.total_s("b") == 5
    assert sum(s.self_s for s in tracer.stats.values()) == 10


def test_layer_self_time_sums_by_first_name_component():
    tracer = spans.SpanTracer()
    tracer.enter("dsa.submit", 0)
    tracer.enter("dsa.advance_to", 1)
    tracer.enter("hw.noise.sample", 2)
    tracer.exit(4)
    tracer.exit(5)
    tracer.exit(8)
    assert tracer.layer_self_s("dsa") == 6
    assert tracer.layer_self_s("hw") == 2
    assert tracer.layer_self_s("ds") == 0


def _layer_metrics(tiny_runs, workload):
    return {k: v["value"] for k, v in tiny_runs[workload][2]["metrics"].items()}


@pytest.mark.parametrize("workload", ["covert", "service", "service-overload"])
def test_ml_layer_does_no_work_outside_llm(tiny_runs, workload):
    metrics = _layer_metrics(tiny_runs, workload)
    ml = {k: v for k, v in metrics.items() if k.startswith("ml.")}
    assert ml and not any(ml.values()), ml


@pytest.mark.parametrize("workload", ["covert", "llm"])
def test_service_layer_does_no_work_outside_the_service(tiny_runs, workload):
    metrics = _layer_metrics(tiny_runs, workload)
    service = {k: v for k, v in metrics.items() if k.startswith("service.")}
    assert service and not any(service.values()), service
    assert metrics["sessions_per_s"] == 0


def test_service_workload_sheds_nothing(tiny_runs):
    metrics = _layer_metrics(tiny_runs, "service")
    assert metrics["service.shed_frac"] == 0
    assert metrics["service.reject_frac"] == 0
    assert metrics["sessions_per_s"] > 0


def test_overload_workload_sheds(tiny_runs):
    metrics = _layer_metrics(tiny_runs, "service-overload")
    assert metrics["service.shed_frac"] > 0
    assert metrics["service.mode_transitions"] > 0
    assert 0 < tiny_runs["service-overload"][1]["metrics"]["completed_frac"]["value"] < 1


def test_a_missing_span_target_fails_the_run(monkeypatch):
    bogus = ("repro.dsa.device", "DsaDevice", "no_such_method", "dsa.bogus")
    monkeypatch.setattr(spans, "SPAN_TARGETS", spans.SPAN_TARGETS + (bogus,))
    run = bench.measure("service", seed=1, seconds=0, trace=True, tiny=True, setup_runs=1)
    result = bench.report(run, 0, trace=True)[1]
    assert not result["correct"]
    assert "span target not found: repro.dsa.device.DsaDevice.no_such_method" in run.breaches


def test_the_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "covert", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
