"""Environment noise models.

Figure 4 of the paper characterizes DevTLB hit/miss latency in four
environments: a quiet local server (**Local**), the same server with 2 GB/s
NVMe PCIe traffic plus 10 GB/s memory-bandwidth pressure (**Local+Noise**),
an Alibaba-cloud instance (**Cloud**), and the cloud instance under the same
pressure (**Cloud+Noise**).  The paper reports that noise *shifts* the
latency distribution (an average of 89 cycles in the cloud case) and widens
it, but never closes the hit/miss gap: a fixed threshold between 600 and
900 cycles separates the classes in every environment.

Each :class:`NoiseModel` adds an environment-dependent offset to every
PCIe round trip: a Gaussian baseline shift plus occasional heavy-tailed
spikes from competing bus traffic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np


class Environment(enum.Enum):
    """The four measurement environments of Fig. 4."""

    LOCAL = "local"
    LOCAL_NOISE = "local+noise"
    CLOUD = "cloud"
    CLOUD_NOISE = "cloud+noise"

    @property
    def noisy(self) -> bool:
        """Whether deliberate PCIe/memory pressure is applied."""
        return self in (Environment.LOCAL_NOISE, Environment.CLOUD_NOISE)


@dataclass(frozen=True)
class NoiseModel:
    """Stochastic latency offset added to device round trips.

    Attributes
    ----------
    mean_shift:
        Average additional cycles relative to the quiet local baseline.
    jitter_std:
        Standard deviation of the Gaussian component.
    spike_probability:
        Per-sample probability of a contention spike.
    spike_scale:
        Mean of the exponential spike magnitude, in cycles.
    """

    environment: Environment
    mean_shift: float
    jitter_std: float
    spike_probability: float
    spike_scale: float

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one noise offset in cycles (may be slightly negative).

        ``mean + std * standard_normal()`` is the arithmetic
        ``rng.normal(mean, std)`` performs, so the draws are the same
        bits at less call overhead.
        """
        offset = self.mean_shift + self.jitter_std * rng.standard_normal()
        if self.spike_probability > 0 and rng.random() < self.spike_probability:
            offset += rng.exponential(self.spike_scale)
        return round(offset)

    def sample_many(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Vectorized :meth:`sample` returning *count* offsets."""
        offsets = rng.normal(self.mean_shift, self.jitter_std, size=count)
        if self.spike_probability > 0:
            spikes = rng.random(count) < self.spike_probability
            offsets[spikes] += rng.exponential(self.spike_scale, size=int(spikes.sum()))
        return np.rint(offsets).astype(np.int64)


#: Calibrated per-environment models.  The quiet local server is the zero
#: reference; the cloud's virtualization stack adds ~40 cycles; deliberate
#: pressure adds the rest (the paper reports an 89-cycle average shift for
#: Cloud+Noise relative to Local).
_NOISE_TABLE: dict[Environment, NoiseModel] = {
    Environment.LOCAL: NoiseModel(
        environment=Environment.LOCAL,
        mean_shift=0.0,
        jitter_std=18.0,
        spike_probability=0.002,
        spike_scale=120.0,
    ),
    Environment.LOCAL_NOISE: NoiseModel(
        environment=Environment.LOCAL_NOISE,
        mean_shift=55.0,
        jitter_std=34.0,
        spike_probability=0.02,
        spike_scale=180.0,
    ),
    Environment.CLOUD: NoiseModel(
        environment=Environment.CLOUD,
        mean_shift=38.0,
        jitter_std=26.0,
        spike_probability=0.008,
        spike_scale=150.0,
    ),
    Environment.CLOUD_NOISE: NoiseModel(
        environment=Environment.CLOUD_NOISE,
        mean_shift=89.0,
        jitter_std=42.0,
        spike_probability=0.025,
        spike_scale=200.0,
    ),
}


def noise_model_for(environment: Environment) -> NoiseModel:
    """Return the calibrated :class:`NoiseModel` for *environment*."""
    return _NOISE_TABLE[environment]
