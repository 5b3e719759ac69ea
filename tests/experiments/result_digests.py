"""Golden SHA-256 digests of the reduced-scale experiment results.

:data:`REDUCED` holds each experiment's reduced scale, keyed by the test
class whose class-scoped ``result`` fixture runs it once (in
``test_fig04_06_09.py``, ``test_attack_experiments.py``,
``test_reverse_engineering.py``, ``test_iotlb_study.py`` and
``test_openworld_wf.py``); its ``test_result_digest`` hashes the pickled
result object, which is the ``result.pkl`` the CLI writes.  Table III is
pinned at ``TABLE3_CONFIG`` of ``test_parallel_equivalence.py``, whose
three-way test runs every experiment serially, on two pool workers, and
interrupted then resumed, and asserts one of these digests on all three.

The bytes are a function of ``(config, seed)`` alone because every path
(serial, pooled, resumed) finalizes from results unpickled from the
bytes journaled for each trial, pickled once where the trial ran, never
from live objects, whose shared numpy dtypes pickle differently.  So a
change here means a change altered what the simulation produced.
"""

import hashlib
import pickle

from repro.experiments import (
    fig04_latency,
    fig06_queue_latency,
    fig09_covert,
    fig10_wf_traces,
    fig11_wf_classification,
    fig12_keystrokes,
    fig13_llm,
    fig14_mitigation,
    iotlb_study,
    openworld_wf,
    reverse_engineering,
    table4_comparison,
)
from repro.experiments.fig13_llm import LlmSamplerSettings
from repro.experiments.wf_common import WfSamplerSettings
from repro.workloads.llm import LLM_ZOO

FAST_WF = WfSamplerSettings(sample_period_us=100.0, samples_per_slot=40, slots=80)

#: ``(experiment module, trial_plan overrides)`` of each pinned result.
REDUCED = {
    "TestFig4": (fig04_latency, {"samples": 120}),
    "TestFig6": (fig06_queue_latency, {"min_exp": 10, "max_exp": 26, "repeats": 5}),
    "TestFig9": (
        fig09_covert,
        {
            "payload_bits": 128,
            "runs": 1,
            "devtlb_windows": (100.0, 42.5, 25.0),
            "swq_windows": (180.0, 110.0),
        },
    ),
    "TestFig10": (fig10_wf_traces, {"settings": FAST_WF}),
    "TestFig11": (
        fig11_wf_classification,
        {
            "sites": 4,
            "visits_per_site": 6,
            "settings": FAST_WF,
            "epochs": 30,
            "hidden": 10,
        },
    ),
    "TestFig12": (fig12_keystrokes, {"keystrokes": 96, "seed": 5}),
    "TestFig13": (
        fig13_llm,
        {
            "traces_per_model": 4,
            "models": LLM_ZOO[:4],
            "settings": LlmSamplerSettings(slots=80),
            "epochs": 30,
        },
    ),
    "TestFig14": (fig14_mitigation, {"sizes": (256, 65536), "iterations": 60}),
    "TestTable4": (table4_comparison, {"covert_bits": 96, "keystrokes": 48}),
    "TestReverseEngineering": (reverse_engineering, {}),
    "TestIotlbStudy": (iotlb_study, {"working_sets": (128, 512, 768), "passes": 2}),
    "TestOpenWorldWf": (
        openworld_wf,
        {
            "monitored": 3,
            "unmonitored": 2,
            "visits_per_site": 6,
            "settings": FAST_WF,
            "epochs": 30,
        },
    ),
}


def run_reduced(name: str):
    """Run the experiment pinned as *name* at its reduced scale."""
    module, config = REDUCED[name]
    return module.run(**config)


def result_digest(result) -> str:
    """SHA-256 of *result* pickled at a fixed protocol."""
    return hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()


GOLDEN = {
    "TestFig4": "bc5737b221166556dd8f355a76cce8dc209443f26d1c7986432f2f7331d1b8d2",
    "TestFig6": "11286373bac6b03a19f596c37640bdee0a5ca2a91ae4753d8674e529f692a053",
    "TestFig9": "3f9f0e84397c2ab5df11bce376d65e5fab6fe89b52c69c07398285cb07df9c60",
    "TestFig10": "f0411c88730e7b5d089a19b041b48fcddaddd77863108e1d382fa616f4a38edd",
    "TestFig11": "53eb2ef3b2b2add3fa35228b8229e99e92e261b9c080ad23c657f889db3e64a2",
    "TestFig12": "d1af75cc0ff9b8f535a3d82dfc490d7404600f34829cab81e11a2f1fb0e7e98b",
    "TestFig13": "399176798d4330eeab14a830c670bbf425e28f4d012ea8412b3d9ccc29fadabc",
    "TestFig14": "b406ccf85cf5e8319fe6be6b45c66943093185b5b07548ebc27638eb0b6b478b",
    "TestTable4": "74b6209614bf509e6c40b6723992474084846cc6c7f875ed8e1b08f3396bf229",
    "TestReverseEngineering": "deda524f23c29ad47684d8759b157bbfd8f1cd9096744377bb6db8c90592c4d4",
    "TestIotlbStudy": "4eb4a1d1a2bf2593d962d2d53ab78b1e9aade1c5694ab21e546ee2a570ee4993",
    "TestOpenWorldWf": "015aad15f946346ef859bd3a87af20cfadecbd76604e8ea641c2435d688c6191",
    "TestTable3": "ea26cf80d0f79c764e05636e9ae1456367d83ec3d4114c62c5ee8f37c4a71eb8",
}
