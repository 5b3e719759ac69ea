"""Chaos suite: fault injection and attack-pipeline resilience.

Fast deterministic scenarios run with tier 1; long fault storms are
marked ``slow`` and excluded by default; ``scripts/check.sh full`` runs
the whole suite under the strict invariant monitor.
"""
