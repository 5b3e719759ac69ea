"""Host speed and the host fingerprint stored with every benchmark record.

Host time depends on the machine as much as on the code.  On a shared
virtual machine the host's speed also changes from second to second, so
every timed block is sampled: a timer signal interrupts it every
``SAMPLE_PERIOD_S`` and times a fixed pure-Python loop right there.  The
samples fall at points spread evenly over the block's time, so their
mean follows the host's speed averaged over the block, short bursts of
other load included.  Host times are reported in reference-host
seconds: measured seconds times ``REFERENCE_CALIBRATION_S`` over that
mean.  A record also names the CPU, the cores the process may use, the
interpreter and library versions, and the commit.
"""

from __future__ import annotations

import heapq
import os
import platform
import signal
import statistics
import subprocess
from importlib import metadata
from pathlib import Path
from time import perf_counter
from typing import Any

#: Integer steps and event-queue rounds of the calibration loop.
CALIBRATION_STEPS = 1_000
CALIBRATION_ROUNDS = 125
#: Mean calibration-loop seconds inside a timed block on the reference
#: host (an Intel Xeon 2-vCPU virtual machine at its usual speed).
REFERENCE_CALIBRATION_S = 0.00025
#: Interval of the sampling timer: about 1 % of the block's time goes to
#: the samples.
SAMPLE_PERIOD_S = 0.025
#: Samples slower than this many times the block's median are outliers.
OUTLIER_FACTOR = 3.0


class _Slot:
    __slots__ = ("key", "t", "hits")

    def __init__(self, key: int, t: int) -> None:
        self.key, self.t, self.hits = key, t, 0


def calibration_s() -> float:
    """Seconds for a fixed pure-Python loop that no program change touches.

    Half of it is integer arithmetic, half a small event queue feeding a
    bounded table of objects.  The host's slow periods slowed the first
    less and the second more than the simulator; timed together they
    tracked it best.
    """
    start = perf_counter()
    acc = 0
    for i in range(CALIBRATION_STEPS):
        acc = (acc * 31 + i) & 0xFFFFFFFF
    heap: list[tuple[int, int]] = []
    table: dict[int, _Slot] = {}
    order: list[_Slot] = []
    for i in range(CALIBRATION_ROUNDS):
        acc = (acc * 1103515245 + 12345) & 0x7FFFFFFF
        t = i * 100 + (acc & 63)
        heapq.heappush(heap, (t, i))
        key = (i * 2654435761) & 1023
        slot = table.get(key)
        if slot is None:
            slot = table[key] = _Slot(key, t)
            order.append(slot)
            if len(order) > 64:
                del table[order.pop(0).key]
        else:
            slot.hits += 1
            slot.t = t
        while heap and heap[0][0] < t - 2000:
            heapq.heappop(heap)
    return perf_counter() - start


class SpeedSampler:
    """Samples the host's speed while a block runs (see the module doc).

    The handler runs between two bytecodes of whatever the block is
    doing and touches nothing but its own list, so the block computes
    exactly what it would without it.  Blocking C calls only delay a
    sample.  Must be used from the main thread.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []

    def _sample(self, signum: int, frame: Any) -> None:
        self.samples.append(calibration_s())

    def __enter__(self) -> SpeedSampler:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a block shorter than one period
            self.samples.append(calibration_s())

    @property
    def calibration_s(self) -> float:
        """Mean calibration-loop seconds over the block.

        A sample that the OS or the hypervisor preempted reads ten or more
        times the others, and a few of them would swing the mean of a
        short block; samples over ``OUTLIER_FACTOR`` times the median are
        left out.  Changes of the host's speed stay well within that.
        """
        limit = OUTLIER_FACTOR * statistics.median(self.samples)
        return statistics.fmean(s for s in self.samples if s <= limit)

    @property
    def scale(self) -> float:
        """Factor from the block's host seconds to reference-host seconds."""
        return REFERENCE_CALIBRATION_S / self.calibration_s


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(package: str) -> str | None:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git(root: Path) -> dict[str, Any]:
    """Commit and dirty flag, only when *root* itself is a git checkout."""
    unknown = {"git_sha": None, "git_dirty": None}
    if not (root / ".git").exists():
        return unknown
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))

    def git(*args: str) -> str:
        return subprocess.run(
            ["git", "-C", str(root), *args],
            capture_output=True, text=True, timeout=20, check=True, env=env,
        ).stdout.strip()

    try:
        sha = git("rev-parse", "HEAD")
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    except (OSError, subprocess.SubprocessError):
        return unknown
    return {"git_sha": sha, "git_dirty": dirty}


def fingerprint(root: Path) -> dict[str, Any]:
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "cpu_model": _cpu_model(),
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        **_git(root),
    }
