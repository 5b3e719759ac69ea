"""Invariant-monitor overhead on the Fig. 4 hot path.

The monitor's contract is "cheap enough to leave on in sampling mode":
every probe submission pays a handful of O(1) ``note()`` calls, and the
full audits amortize over ``sample_every`` events.  This benchmark times
the Fig. 4 probe loop (small memcpy ``submit_wait``, the latency-channel
hot path) bare and monitored and holds sampling mode to the documented
budget (see ``docs/invariants.md``):

* **sampling** (``sample_every=64``): < ``SAMPLING_BUDGET`` = 1.8x bare
  (measured ~1.5x)
* **strict** is reported for reference only — it audits at every event
  and is priced for soak/chaos runs, not figures.

The sampling ratio is the median of ``_PAIRS`` ratios, each from one
bare loop and one sampling loop run back to back (alternating which
goes first).  A shared host's speed drifts over seconds; a pair sees
the same speed on both sides, and the median drops the pairs a burst
split.  The best of three bare and three sampling loops taken in two
blocks read anywhere from 1.1x to 1.9x on the same code.
"""

import statistics
import time

from repro.dsa.descriptor import make_memcpy
from repro.invariants import InvariantMonitor

from tests.conftest import build_host

#: Documented ceiling for sampling-mode slowdown on the probe hot path.
SAMPLING_BUDGET = 1.8

_PROBES = 800
_PAIRS = 15


def _probe_loop(mode: str | None, probes: int = _PROBES) -> float:
    """Seconds for *probes* Fig. 4-style probe submissions."""
    host = build_host(seed=9)
    if mode is not None:
        monitor = InvariantMonitor(mode=mode, sample_every=64)
        monitor.attach_device(host.device)
    proc = host.new_process()
    src = proc.buffer(4096)
    dst = proc.buffer(4096)
    comp = proc.comp_record()
    descriptor = make_memcpy(proc.pasid, src, dst, 256, comp)
    # Benchmarks measure the real host: injectable clocks would defeat
    # the measurement.
    start = time.perf_counter()  # repro-lint: ignore[DET002]
    for _ in range(probes):
        proc.portal.submit_wait(descriptor)
    return time.perf_counter() - start  # repro-lint: ignore[DET002]


def _pair_ratio(mode: str, first_bare: bool) -> tuple[float, float]:
    """``(bare seconds, monitored / bare)`` for one back-to-back pair."""
    if first_bare:
        bare = _probe_loop(None)
        monitored = _probe_loop(mode)
    else:
        monitored = _probe_loop(mode)
        bare = _probe_loop(None)
    return bare, monitored / bare


def test_bench_invariants_overhead(once):
    def measure():
        pairs = [_pair_ratio("sampling", index % 2 == 0) for index in range(_PAIRS)]
        bare = statistics.median(seconds for seconds, _ in pairs)
        sampling_ratio = statistics.median(ratio for _, ratio in pairs)
        _, strict_ratio = _pair_ratio("strict", first_bare=True)
        return bare, sampling_ratio, strict_ratio

    bare, sampling_ratio, strict_ratio = once(measure)
    print()
    print(
        f"invariants overhead on {_PROBES} probes: bare {bare * 1e3:.1f} ms"
        f" (median of {_PAIRS}), sampling {sampling_ratio:.2f}x (median"
        f" pair ratio), strict {strict_ratio:.2f}x (one pair)"
    )
    assert sampling_ratio < SAMPLING_BUDGET, (
        f"sampling-mode monitor costs {sampling_ratio:.2f}x on the probe"
        f" hot path; the documented budget is {SAMPLING_BUDGET}x"
    )
    # Sanity, not a budget: strict must stay within an order of magnitude
    # so soak runs remain tractable.
    assert strict_ratio < 10.0
