#!/usr/bin/env python3
"""SSH keystroke timing recovery (Section VI-C).

A victim types a command over SSH; DTO transparently offloads the
connection's buffer operations to the DSA.  The attacker — in another VM
— recovers the keystroke timestamps with both primitives and scores
itself against the ground truth.

Run:  python examples/keystroke_sniffing.py
"""

from repro.experiments import fig12_keystrokes
from repro.experiments.runner import execute_plan


def main() -> None:
    print("victim types 192 keystrokes over an SSH session with DTO enabled")
    print("attacker 1: DevTLB Prime+Probe   (timing threshold on rdtsc)")
    print("attacker 2: SWQ Congest+Probe    (no timer at all: EFLAGS.ZF)")
    print()
    result = execute_plan(fig12_keystrokes.trial_plan(keystrokes=192, seed=3))
    print(fig12_keystrokes.report(result))
    print()
    devtlb, swq = result.devtlb.evaluation, result.swq.evaluation
    print(f"With the recovered inter-keystroke timings "
          f"(DevTLB sigma {devtlb.timestamp_std_ms:.2f} ms, "
          f"SWQ sigma {swq.timestamp_std_ms:.2f} ms), the standard "
          f"Song-et-al. analysis can narrow the typed text.")


if __name__ == "__main__":
    main()
