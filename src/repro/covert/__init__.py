"""The cross-VM covert channel (Section VI-A, Fig. 9).

Sender and receiver live in different VMs with no legitimate channel.
Both primitives carry the same asynchronous time-slicing protocol: a
preamble of consecutive '1' bits synchronizes the two sides, then each
bit window encodes 1 as "submit a descriptor" (DevTLB eviction / SWQ slot
consumption) and 0 as silence.
"""

from repro.covert.channel import (
    CovertChannelResult,
    run_devtlb_covert_channel,
    run_swq_covert_channel,
)
from repro.covert.metrics import (
    binary_entropy,
    bit_error_rate,
    random_bits,
    true_capacity,
)
from repro.covert.protocol import CovertConfig, CovertSender

__all__ = [
    "CovertChannelResult",
    "CovertConfig",
    "CovertSender",
    "binary_entropy",
    "bit_error_rate",
    "random_bits",
    "run_devtlb_covert_channel",
    "run_swq_covert_channel",
    "true_capacity",
]
