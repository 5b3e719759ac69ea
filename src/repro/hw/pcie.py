"""The PCIe link between the CPU cores and the DSA.

The DSA is an on-die device but still communicates over the processor's
internal PCIe fabric (Fig. 1 of the paper).  Three transaction kinds matter
to the reproduction:

* **posted writes** — fire-and-forget MMIO writes (``movdir64b`` to a
  dedicated-queue portal);
* **non-posted reads** — MMIO reads and device DMA reads, which wait for a
  completion;
* **Deferrable Memory Writes (DMWr)** — the non-posted write used by
  ``enqcmd``; the device's accept/retry answer travels back in the
  completion and lands in ``EFLAGS.ZF``.

The link charges a per-transaction round-trip latency drawn from the
environment noise model, and counts transactions per kind so tests and
benchmarks can assert on traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from repro.hw.noise import Environment, NoiseModel, noise_model_for

#: Quiet-environment base round-trip cost of one PCIe transaction between a
#: core and the on-die DSA, in cycles.  Calibrated so that a DevTLB *hit*
#: probe lands near the paper's ~500-cycle figure once descriptor decode and
#: completion-record write are added.
BASE_ROUND_TRIP_CYCLES = 130

#: Extra cycles for a non-posted transaction (waiting on the completion).
NON_POSTED_EXTRA_CYCLES = 60


class TransactionKind(enum.Enum):
    """PCIe transaction kinds the model distinguishes."""

    POSTED_WRITE = "posted-write"
    NON_POSTED_READ = "non-posted-read"
    DMWR = "dmwr"


@dataclass
class PcieStats:
    """Counters of link traffic, by transaction kind."""

    posted_writes: int = 0
    non_posted_reads: int = 0
    dmwr: int = 0
    total_cycles: int = 0

    def count(self, kind: TransactionKind) -> int:
        """Return the number of transactions of *kind* seen so far."""
        if kind is TransactionKind.POSTED_WRITE:
            return self.posted_writes
        if kind is TransactionKind.NON_POSTED_READ:
            return self.non_posted_reads
        return self.dmwr


@dataclass
class PcieLink:
    """A point-to-point PCIe link with environment-dependent latency.

    Parameters
    ----------
    rng:
        Generator used for latency noise.
    environment:
        Which of the paper's four environments the host is in.
    base_cycles:
        Quiet-environment round-trip base cost.
    """

    rng: np.random.Generator
    environment: Environment = Environment.LOCAL
    base_cycles: int = BASE_ROUND_TRIP_CYCLES
    stats: PcieStats = field(default_factory=PcieStats)

    def __post_init__(self) -> None:
        self._noise: NoiseModel = noise_model_for(self.environment)

    @property
    def noise(self) -> NoiseModel:
        """The active noise model."""
        return self._noise

    def set_environment(self, environment: Environment) -> None:
        """Switch the link's environment (used by noise-sweep experiments)."""
        self.environment = environment
        self._noise = noise_model_for(environment)

    def transaction_cycles(self, kind: TransactionKind) -> int:
        """Charge one transaction of *kind* and return its latency."""
        base = self.base_cycles
        cycles = base + self._noise.sample(self.rng)
        stats = self.stats
        if kind is TransactionKind.POSTED_WRITE:
            stats.posted_writes += 1
        else:
            cycles += NON_POSTED_EXTRA_CYCLES
            if kind is TransactionKind.NON_POSTED_READ:
                stats.non_posted_reads += 1
            else:
                stats.dmwr += 1
        if cycles < base // 2:
            cycles = base // 2
        stats.total_cycles += cycles
        return cycles
