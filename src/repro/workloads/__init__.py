"""Victim workloads.

Everything the paper attacks, rebuilt on the DSA model:

* :mod:`repro.workloads.dto` — the DSA Transparent Offload runtime that
  intercepts ``mem*`` calls and offloads large ones to DSA.
* :mod:`repro.workloads.vpp` — the VPP/memif packet path (DPDK side).
* :mod:`repro.workloads.websites` — per-site network traffic signatures
  for the top-100 website fingerprinting study.
* :mod:`repro.workloads.ssh` — SSH keystroke sessions whose packet
  handling goes through DTO.
* :mod:`repro.workloads.llm` — LLM inference weight-movement models
  (Table II) for the LLM fingerprinting study.
"""

from repro.workloads.dto import DTO_MIN_BYTES, DtoRuntime
from repro.workloads.llm import LLM_ZOO, LlmBackend, LlmModel, LlmInferenceWorkload
from repro.workloads.ssh import KeystrokeEvent, SshKeystrokeSession
from repro.workloads.vpp import MemifInterface, PacketEvent, VppVictim
from repro.workloads.websites import WebsiteProfile, top_sites

__all__ = [
    "DTO_MIN_BYTES",
    "DtoRuntime",
    "KeystrokeEvent",
    "LLM_ZOO",
    "LlmBackend",
    "LlmInferenceWorkload",
    "LlmModel",
    "MemifInterface",
    "PacketEvent",
    "SshKeystrokeSession",
    "VppVictim",
    "WebsiteProfile",
    "top_sites",
]
