"""The DSA device model.

Descriptor formats, work queues, portals, engines, the batch engine, the
in-engine arbiter, and the Perfmon counter block — every DSA-side
component the paper reverse-engineers.
"""

from repro.dsa.accel_config import AccelConfig, WqInfo
from repro.dsa.arbiter import Arbiter, ArbiterPolicy
from repro.dsa.batch import BatchFetcher, write_batch_list
from repro.dsa.completion import (
    COMPLETION_RECORD_SIZE,
    CompletionRecord,
    CompletionStatus,
)
from repro.dsa.descriptor import (
    DESCRIPTOR_SIZE,
    BatchDescriptor,
    Descriptor,
    make_dualcast,
    make_memcmp,
    make_memcpy,
    make_noop,
    spans_pages,
)
from repro.dsa.device import (
    DeviceStats,
    DsaDevice,
    DsaDeviceConfig,
    GroupConfig,
    SubmissionTicket,
)
from repro.dsa.engine import Engine, EngineTiming
from repro.dsa.opcodes import DescriptorFlags, Opcode, STANDARD_COMPLETION_FLAGS
from repro.dsa.perfmon import EVENTS, Perfmon, PerfmonEvent
from repro.dsa.portal import Portal, ProbeResult
from repro.dsa.wq import (
    TOTAL_WQ_ENTRIES,
    HardwareQueueSpace,
    WorkQueue,
    WorkQueueConfig,
    WqMode,
)

__all__ = [
    "AccelConfig",
    "Arbiter",
    "ArbiterPolicy",
    "BatchDescriptor",
    "BatchFetcher",
    "COMPLETION_RECORD_SIZE",
    "CompletionRecord",
    "CompletionStatus",
    "DESCRIPTOR_SIZE",
    "Descriptor",
    "DescriptorFlags",
    "DeviceStats",
    "DsaDevice",
    "DsaDeviceConfig",
    "EVENTS",
    "Engine",
    "EngineTiming",
    "GroupConfig",
    "HardwareQueueSpace",
    "Opcode",
    "Perfmon",
    "PerfmonEvent",
    "Portal",
    "ProbeResult",
    "STANDARD_COMPLETION_FLAGS",
    "SubmissionTicket",
    "TOTAL_WQ_ENTRIES",
    "WorkQueue",
    "WorkQueueConfig",
    "WqInfo",
    "WqMode",
    "make_dualcast",
    "make_memcmp",
    "make_memcpy",
    "make_noop",
    "spans_pages",
    "write_batch_list",
]
