# repro-lint-fixture-module: repro.experiments.pool
"""Negative twin: worker state threaded through returns, no globals."""


def _worker_begin_run(payload):
    seen = []
    seen.append(payload)
    return seen


def _worker_run_shard(items):
    out = {}
    for item in items:
        out[item] = _worker_begin_run(item)
    return out
