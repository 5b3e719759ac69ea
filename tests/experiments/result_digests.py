"""Golden SHA-256 digests of the reduced-scale experiment results.

Each class-scoped ``result`` fixture in ``test_fig04_06_09.py`` and
``test_attack_experiments.py`` already runs its experiment once; its
``test_result_digest`` hashes the pickled result object.  The digests
were pinned before the replay's event-driven polling and sorted
in-flight lists went in, so a change here means a speed-up altered what
the simulation produced.  Every result type pickles stably (dataclasses,
dicts in insertion order, numpy arrays), so no canonical ``repr`` is
needed.
"""

import hashlib
import pickle


def result_digest(result) -> str:
    """SHA-256 of *result* pickled at a fixed protocol."""
    return hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()


GOLDEN = {
    "TestFig4": "0a8b8dd18c2b53e41f6174bd1d50d2cc19397c2eb95e1d583c33c6f3288566ee",
    "TestFig6": "11286373bac6b03a19f596c37640bdee0a5ca2a91ae4753d8674e529f692a053",
    "TestFig9": "3f9f0e84397c2ab5df11bce376d65e5fab6fe89b52c69c07398285cb07df9c60",
    "TestFig10": "45d2bf98ef055b2e5181460035e84800e8117937139e761df4bf6abc1ad332d1",
    "TestFig11": "53eb2ef3b2b2add3fa35228b8229e99e92e261b9c080ad23c657f889db3e64a2",
    "TestFig12": "fd2d00d1cbe77f8db1d90da5091050cbb0caa3dba7efee2bc2831f3ba6107705",
    "TestFig13": "e4ca9cfa190aff0d30f96dea6b726e722031c844ec81907af33a7ece255dec07",
    "TestFig14": "5217a29e936a11df2054afbe6d3f325ec40566292c51316eb539c42885803879",
    "TestTable4": "74b6209614bf509e6c40b6723992474084846cc6c7f875ed8e1b08f3396bf229",
}
