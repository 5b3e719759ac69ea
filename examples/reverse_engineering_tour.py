#!/usr/bin/env python3
"""A tour of the Section IV reverse-engineering results.

Runs every microbenchmark the paper used to uncover the DSA's DevTLB
structure, indexing policy, cross-page handling, batch-fetcher behavior,
and arbiter QoS — and shows the raw Perfmon counter deltas behind each
takeaway.

Run:  python examples/reverse_engineering_tour.py
"""

from repro.core.primitives import Prober
from repro.dsa.perfmon import Perfmon
from repro.experiments import reverse_engineering
from repro.experiments.runner import execute_plan
from repro.virt.system import AttackTopology, CloudSystem


def show_perfmon_walkthrough() -> None:
    """Listing 2 step by step, with live Table I counters."""
    system = CloudSystem(seed=3)
    system.setup_topology(AttackTopology.E0_SHARED_WQ_SHARED_ENGINE)
    attacker = system.vms["attacker-vm"].process("attacker")
    prober = Prober(attacker, wq_id=0)
    perfmon = Perfmon(system.device, privileged=True)

    base = prober.fresh_comp()
    evictor = prober.fresh_comp()
    print("Listing 2 walk-through (Perfmon requires root; the attack itself")
    print("never touches it — this is the reverse-engineering view):")
    for step, action in (
        ("probe_noop(base)        # prime", lambda: prober.probe_noop(base)),
        ("probe_noop(base)        # same page", lambda: prober.probe_noop(base)),
        ("probe_noop(base+OFFSET) # evict", lambda: prober.probe_noop(evictor)),
        ("probe_noop(base)        # probe", lambda: prober.probe_noop(base)),
    ):
        before = perfmon.snapshot()
        result = action()
        after = perfmon.snapshot()
        hit = after["EV_ATC_HIT_PREV"] - before["EV_ATC_HIT_PREV"]
        print(f"  {step:<28} latency {result.latency_cycles:>5} cycles  "
              f"EV_ATC_HIT_PREV +{hit}")
    print()


def main() -> None:
    show_perfmon_walkthrough()
    results = execute_plan(reverse_engineering.trial_plan())
    print(reverse_engineering.report(results))
    print()
    print(f"every paper observation reproduced: {results.all_reproduced}")


if __name__ == "__main__":
    main()
