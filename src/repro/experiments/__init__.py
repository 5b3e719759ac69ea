"""Per-table / per-figure experiment harnesses.

Every module exports ``trial_plan(...)``, which enumerates the
experiment as an :class:`~repro.experiments.runner.ExperimentPlan`, and
``report(result)``, which renders the paper's table or figure as text.
Run one in memory with ``execute_plan(module.trial_plan(...))``; a
pooled run ships ``functools.partial(module.trial_plan, **overrides)``
to its workers, which rebuild the plan from it.  The benchmarks in
``benchmarks/`` call these entry points.

==================  ====================================================
Module              Paper artifact
==================  ====================================================
reverse_engineering Section IV listings and E0/E1/E2 (Fig. 5)
fig04_latency       Fig. 4 — hit/miss latency across four environments
fig06_queue_latency Fig. 6 — submission vs. completion latency, DMWr ZF
fig09_covert        Fig. 9 — covert-channel capacity sweep
fig10_wf_traces     Fig. 10 — per-site DevTLB miss traces
fig11_wf_classification  Fig. 11 — website classification
fig12_keystrokes    Fig. 12 — SSH keystroke detection
fig13_llm           Fig. 13 — LLM fingerprinting
fig14_mitigation    Fig. 14 — mitigation overhead
table3_noise        Table III — noise impact with confidence intervals
table4_comparison   Table IV — comparison with prior attacks
iotlb_study         IOTLB capacity study (extension)
openworld_wf        open-world website fingerprinting (extension)
==================  ====================================================
"""
