"""Layer spans measured from outside the model.

The traced run wraps public methods of each ``repro`` package in spans
and aggregates them online (a million probe calls would not fit in
memory as individual span records).  A span's *self* time is its
duration minus the durations of the spans nested directly inside it, so
the self times of one run add up to the time spent inside the outermost
spans, each instant counted once.

Every target is a plain synchronous method: a span opened inside the
service's asyncio loop closes before the next ``await``, so spans nest
strictly even there.

:func:`instrument` also collects every ``CloudSystem`` a block builds,
traced or not; the untraced run needs them for the descriptor counts.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
from dataclasses import dataclass
from time import perf_counter
from typing import Any, Callable, Iterator

#: (module, class, method, span name).  Several methods may share a
#: span name; the name's first component is its layer.
SPAN_TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.hw.noise", "NoiseModel", "sample", "hw.noise.sample"),
    ("repro.hw.pcie", "PcieLink", "transaction_cycles", "hw.pcie.transaction"),
    ("repro.hw.pagetable", "AddressSpace", "translate", "hw.pagetable.translate"),
    ("repro.ats.devtlb", "DevTlb", "access", "ats.devtlb.access"),
    ("repro.ats.agent", "TranslationAgent", "translate", "ats.translate"),
    ("repro.dsa.portal", "Portal", "enqcmd", "dsa.portal.enqcmd"),
    ("repro.dsa.device", "DsaDevice", "submit", "dsa.submit"),
    ("repro.dsa.device", "DsaDevice", "advance_to", "dsa.advance_to"),
    ("repro.dsa.engine", "Engine", "execute", "dsa.engine.execute"),
    ("repro.virt.system", "CloudSystem", "setup_topology", "virt.setup_topology"),
    ("repro.virt.scheduler", "Timeline", "run_until", "virt.timeline.run_until"),
    ("repro.core.primitives", "Prober", "probe_noop", "core.probe"),
    ("repro.core.primitives", "Prober", "probe_memcmp", "core.probe"),
    ("repro.core.primitives", "Prober", "probe_memcpy", "core.probe"),
    ("repro.core.primitives", "Prober", "probe_dualcast", "core.probe"),
    ("repro.core.swq_attack", "DsaSwqAttack", "probe", "core.probe"),
    ("repro.core.devtlb_attack", "DsaDevTlbAttack", "calibrate", "core.calibrate"),
    ("repro.core.sampling", "DevTlbSampler", "collect_trace", "core.sampler.collect_trace"),
    ("repro.core.sampling", "SwqSampler", "collect_trace", "core.sampler.collect_trace"),
    ("repro.covert.channel", "DevTlbCovertReceiver", "synchronize", "covert.channel"),
    ("repro.covert.channel", "DevTlbCovertReceiver", "receive", "covert.channel"),
    ("repro.covert.channel", "SwqCovertReceiver", "synchronize", "covert.channel"),
    ("repro.covert.channel", "SwqCovertReceiver", "receive", "covert.channel"),
    ("repro.covert.protocol", "CovertSender", "schedule_message", "covert.channel"),
    ("repro.workloads.dto", "DtoRuntime", "memcpy", "workloads.dto"),
    ("repro.workloads.dto", "DtoRuntime", "memset", "workloads.dto"),
    ("repro.workloads.dto", "DtoRuntime", "memcmp", "workloads.dto"),
    ("repro.workloads.llm", "LlmInferenceWorkload", "schedule_inference", "workloads.schedule"),
    ("repro.ml.train", "Trainer", "fit", "ml.fit"),
    ("repro.ml.train", "Trainer", "predict", "ml.predict"),
    ("repro.ml.model", "AttentionBiLstmClassifier", "forward", "ml.forward"),
    ("repro.ml.model", "AttentionBiLstmClassifier", "backward", "ml.backward"),
    ("repro.ml.baseline", "NearestCentroidClassifier", "fit", "ml.baseline"),
    ("repro.ml.baseline", "NearestCentroidClassifier", "predict", "ml.baseline"),
    ("repro.service.app", "AttackService", "run", "service.run"),
    ("repro.service.admission", "AdmissionController", "admit", "service.admit"),
    ("repro.service.devices", "DeviceLane", "run_round", "service.lane.run_round"),
)

#: Methods too small for a span: only their calls are counted.
COUNT_TARGETS: tuple[tuple[str, str, str, str], ...] = (
    ("repro.hw.clock", "TscClock", "advance", "hw.clock.advance"),
    ("repro.hw.clock", "TscClock", "advance_to", "hw.clock.advance"),
)

SYSTEM_MODULE, SYSTEM_CLASS = "repro.virt.system", "CloudSystem"
SYSTEM_INIT_SPAN = "virt.system_init"


@dataclass
class SpanStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    self_s: float = 0.0
    #: Inclusive seconds; a name nested inside itself is counted twice.
    total_s: float = 0.0


class SpanTracer:
    """Online aggregation of strictly nested spans.

    ``enter``/``exit`` take explicit timestamps so the arithmetic can be
    tested on synthetic span trees.
    """

    def __init__(self) -> None:
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[list[Any]] = []  # [name, start, child seconds]

    def _get(self, name: str) -> SpanStats:
        stats = self.stats.get(name)
        if stats is None:
            stats = self.stats[name] = SpanStats()
        return stats

    def enter(self, name: str, t: float) -> None:
        self._stack.append([name, t, 0.0])

    def exit(self, t: float) -> None:
        name, start, child_s = self._stack.pop()
        duration = t - start
        stats = self._get(name)
        stats.calls += 1
        stats.self_s += duration - child_s
        stats.total_s += duration
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str) -> None:
        self._get(name).calls += 1

    @property
    def depth(self) -> int:
        return len(self._stack)

    def calls(self, name: str) -> int:
        stats = self.stats.get(name)
        return stats.calls if stats else 0

    def self_s(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.self_s if stats else 0.0

    def total_s(self, name: str) -> float:
        stats = self.stats.get(name)
        return stats.total_s if stats else 0.0

    def layer_self_s(self, layer: str) -> float:
        prefix = layer + "."
        return sum(s.self_s for n, s in self.stats.items() if n.startswith(prefix))


def traced(fn: Callable, name: str, tracer: SpanTracer) -> Callable:
    """*fn* inside a span called *name*."""
    enter, leave = tracer.enter, tracer.exit

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        enter(name, perf_counter())
        try:
            return fn(*args, **kwargs)
        finally:
            leave(perf_counter())

    return wrapper


def counted(fn: Callable, name: str, tracer: SpanTracer) -> Callable:
    """*fn*, counting its calls under *name*."""
    count = tracer.count

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        count(name)
        return fn(*args, **kwargs)

    return wrapper


class Patcher:
    """Replaces class attributes and puts the originals back."""

    def __init__(self) -> None:
        self.saved: list[tuple[type, str, Any]] = []
        #: ``module.Class.method`` targets that no longer exist.
        self.missing: list[str] = []

    def patch(self, module: str, cls: str, attr: str, make: Callable) -> None:
        owner = getattr(importlib.import_module(module), cls, None)
        original = vars(owner).get(attr) if owner is not None else None
        if original is None:
            self.missing.append(f"{module}.{cls}.{attr}")
            return
        self.saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def restore(self) -> None:
        while self.saved:
            owner, attr, original = self.saved.pop()
            setattr(owner, attr, original)


def unrestored(saved: list[tuple[type, str, Any]]) -> list[str]:
    """Names of saved attributes that are not the original object again."""
    return [
        f"{owner.__qualname__}.{attr}"
        for owner, attr, original in saved
        if vars(owner).get(attr) is not original
    ]


@contextlib.contextmanager
def instrument(
    tracer: SpanTracer | None, unrestored_out: list[str] | None = None
) -> Iterator[tuple[list[Any], list[str]]]:
    """Collect the ``CloudSystem`` objects built inside the block.

    With *tracer*, also wrap every span and count target.  Yields
    ``(systems, missing_targets)``.  On exit every attribute is put
    back; any that is not the original object again is appended to
    *unrestored_out*.
    """
    systems: list[Any] = []
    patcher = Patcher()

    def collecting(init: Callable) -> Callable:
        @functools.wraps(init)
        def __init__(self: Any, *args: Any, **kwargs: Any) -> None:
            init(self, *args, **kwargs)
            systems.append(self)

        return traced(__init__, SYSTEM_INIT_SPAN, tracer) if tracer else __init__

    try:
        patcher.patch(SYSTEM_MODULE, SYSTEM_CLASS, "__init__", collecting)
        if tracer is not None:
            for module, cls, attr, name in SPAN_TARGETS:
                patcher.patch(
                    module, cls, attr, lambda fn, name=name: traced(fn, name, tracer)
                )
            for module, cls, attr, name in COUNT_TARGETS:
                patcher.patch(
                    module, cls, attr, lambda fn, name=name: counted(fn, name, tracer)
                )
        yield systems, list(patcher.missing)
    finally:
        saved = list(patcher.saved)
        patcher.restore()
        if unrestored_out is not None:
            unrestored_out.extend(unrestored(saved))
