"""The cloud host and the paper's attack topologies.

:class:`CloudSystem` is the top-level builder: one physical host (memory,
TSC, a DSA behind VT-d scalable mode) running multiple VMs.  The
hypervisor role is folded into this class: it allocates PASIDs, installs
PASID-table bindings, and maps work-queue portals into guests
(scalable-IOV / SR-IOV pass-through, where guest submissions land directly
in the physical queue "with near native performance").

:class:`AttackTopology` reproduces the three reverse-engineering
configurations of Fig. 5 plus the two attack configurations of Fig. 7:

=====  =============================================================
E0     attacker and victim share one SWQ on one engine (``DSA_SWQ``)
E1     separate WQs bound to the *same* engine (``DSA_DevTLB``)
E2     separate WQs on *separate* engines (control: no leakage)
=====  =============================================================
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, replace

import numpy as np

from repro.ats.pasid import PasidAllocator
from repro.dsa.device import DsaDevice, DsaDeviceConfig
from repro.dsa.portal import Portal
from repro.dsa.wq import WorkQueueConfig, WqMode
from repro.errors import ConfigurationError
from repro.faults import FaultInjector, FaultPlan
from repro.hw.clock import TscClock
from repro.hw.memory import PhysicalMemory
from repro.hw.noise import Environment
from repro.hw.pagetable import AddressSpace
from repro.hw.units import GIB
from repro.virt.process import GuestProcess
from repro.virt.scheduler import Timeline
from repro.virt.vm import VirtualMachine


class AttackTopology(enum.Enum):
    """The E0/E1/E2 configurations of Fig. 5."""

    E0_SHARED_WQ_SHARED_ENGINE = "e0"
    E1_SEPARATE_WQ_SHARED_ENGINE = "e1"
    E2_SEPARATE_WQ_SEPARATE_ENGINE = "e2"


@dataclass(frozen=True)
class TopologyHandles:
    """What a topology setup hands back to the experiment."""

    attacker: GuestProcess
    victim: GuestProcess
    attacker_wq: int
    victim_wq: int
    shared_engine: bool


class CloudSystem:
    """One physical host: memory, clock, DSA, hypervisor, and VMs."""

    def __init__(
        self,
        seed: int = 2026,
        environment: Environment = Environment.LOCAL,
        device_config: DsaDeviceConfig | None = None,
        memory_bytes: int = 8 * GIB,
        fault_plan: FaultPlan | None = None,
        invariants: str | None = None,
    ) -> None:
        self.seed = seed
        self.memory = PhysicalMemory(total_bytes=memory_bytes)
        self.clock = TscClock()
        self.rng = np.random.default_rng(seed)
        config = device_config or DsaDeviceConfig()
        if config.environment is not environment:
            config = replace(config, environment=environment)
        self.device = DsaDevice(self.memory, self.clock, self.rng, config)
        self.timeline = Timeline(self.clock)
        self.pasid_allocator = PasidAllocator()
        self.vms: dict[str, VirtualMachine] = {}
        self._next_vm_base = 0x10_0000_0000
        self.fault_injector: FaultInjector | None = None
        if fault_plan is not None:
            # Hooks the device, engines, PRS and timeline, and installs
            # itself as ``self.fault_injector``.
            fault_plan.build_injector().attach_system(self)
        self.invariant_monitor = None
        # Opt-in monitoring: an explicit ``invariants=`` mode wins;
        # otherwise the REPRO_INVARIANTS environment variable turns the
        # monitor on globally (as ``scripts/check.sh full`` does with
        # ``strict`` for the chaos suite).  ``off``/empty leaves the hot
        # path untouched.
        mode = (
            invariants
            if invariants is not None
            else os.environ.get("REPRO_INVARIANTS", "off")
        )
        if mode and mode.strip().lower() != "off":
            from repro.invariants.monitor import InvariantMonitor

            # Adopts this system's seed (for replayable violation
            # reports) and installs itself as ``self.invariant_monitor``.
            InvariantMonitor(mode=mode).attach_system(self)

    # ------------------------------------------------------------------
    # VM / process lifecycle
    # ------------------------------------------------------------------
    def create_vm(self, name: str) -> VirtualMachine:
        """Boot a VM (an isolation domain)."""
        if name in self.vms:
            raise ConfigurationError(f"VM {name!r} already exists")
        vm = VirtualMachine(name=name, system=self, base_va=self._next_vm_base)
        self._next_vm_base += 0x10_0000_0000
        self.vms[name] = vm
        return vm

    def _create_process(self, vm: VirtualMachine, name: str) -> GuestProcess:
        space = AddressSpace(self.memory, base_va=vm.base_va)
        pasid = self.pasid_allocator.allocate()
        self.device.bind_process(pasid, space)
        return GuestProcess(name=name, vm_name=vm.name, space=space, pasid=pasid)

    def open_portal(self, process: GuestProcess, wq_id: int) -> Portal:
        """Map a WQ portal into *process* (the scalable-IOV open path)."""
        portal = Portal(self.device, wq_id=wq_id, pasid=process.pasid)
        process.portals[wq_id] = portal
        return portal

    def destroy_process(self, process: GuestProcess) -> None:
        """Tear a process down: unbind its PASID and scrub the IOTLB.

        Mirrors the driver's release path: the PASID-table entry is
        removed, the IOMMU's IOTLB gets a PASID-selective invalidation,
        and the PASID returns to the allocator.  Deliberately **not**
        touched: the DevTLB — the device offers no PASID-selective
        DevTLB invalidation, so a translation cached for the dead
        process lingers until the sub-entry is naturally evicted (one
        more symptom of the isolation gap the paper exploits).
        """
        vm = self.vms.get(process.vm_name)
        if vm is None or vm.processes.get(process.name) is not process:
            raise ConfigurationError(
                f"process {process.name!r} is not live on this host"
            )
        self.device.advance_to(self.clock.now)
        self.device.agent.invalidate_pasid(process.pasid)
        self.device.pasid_table.unbind(process.pasid)
        self.pasid_allocator.release(process.pasid)
        process.portals.clear()
        del vm.processes[process.name]

    # ------------------------------------------------------------------
    # Environment control (noise experiments)
    # ------------------------------------------------------------------
    def set_environment(self, environment: Environment) -> None:
        """Switch the host's noise environment."""
        self.device.set_environment(environment)

    # ------------------------------------------------------------------
    # Canned topologies
    # ------------------------------------------------------------------
    def setup_topology(
        self,
        topology: AttackTopology,
        wq_size: int = 16,
    ) -> TopologyHandles:
        """Configure queues/groups and boot the attacker and victim VMs.

        Must be called on a freshly constructed system (queues cannot be
        reconfigured while live).
        """
        device = self.device
        if topology is AttackTopology.E0_SHARED_WQ_SHARED_ENGINE:
            device.configure_group(0, (0,))
            device.configure_wq(
                WorkQueueConfig(wq_id=0, size=wq_size, mode=WqMode.SHARED, group_id=0)
            )
            attacker_wq = victim_wq = 0
            shared_engine = True
        elif topology is AttackTopology.E1_SEPARATE_WQ_SHARED_ENGINE:
            device.configure_group(0, (0,))
            device.configure_wq(
                WorkQueueConfig(wq_id=0, size=wq_size, mode=WqMode.SHARED, group_id=0)
            )
            device.configure_wq(
                WorkQueueConfig(wq_id=1, size=wq_size, mode=WqMode.SHARED, group_id=0)
            )
            attacker_wq, victim_wq = 0, 1
            shared_engine = True
        elif topology is AttackTopology.E2_SEPARATE_WQ_SEPARATE_ENGINE:
            device.configure_group(0, (0,))
            device.configure_group(1, (1,))
            device.configure_wq(
                WorkQueueConfig(wq_id=0, size=wq_size, mode=WqMode.SHARED, group_id=0)
            )
            device.configure_wq(
                WorkQueueConfig(wq_id=1, size=wq_size, mode=WqMode.SHARED, group_id=1)
            )
            attacker_wq, victim_wq = 0, 1
            shared_engine = False
        else:  # pragma: no cover - enum is exhaustive
            raise ConfigurationError(f"unknown topology {topology}")

        attacker_vm = self.create_vm("attacker-vm")
        victim_vm = self.create_vm("victim-vm")
        attacker = attacker_vm.spawn_process("attacker")
        victim = victim_vm.spawn_process("victim")
        self.open_portal(attacker, attacker_wq)
        self.open_portal(victim, victim_wq)
        return TopologyHandles(
            attacker=attacker,
            victim=victim,
            attacker_wq=attacker_wq,
            victim_wq=victim_wq,
            shared_engine=shared_engine,
        )
