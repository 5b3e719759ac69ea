# repro-lint-fixture-module: repro.experiments.pool
"""Pretend pool module: global writes inside defs nested in worker
entry points — one called by name, one only handed out as a callback."""

_SEEN = []


def _pool_worker_main(payload):
    def note():
        _SEEN.append(payload)

    note()
    return payload


def _worker_run_trial(payloads, run_trials):
    def on_trial_end(payload):
        # Nothing here calls it by name, but it runs in the worker
        # whenever its enclosing entry point does.
        _SEEN.append(payload)

    return run_trials(payloads, on_trial_end)


def _worker_begin_run(payloads):
    _SEEN = []  # a local of the entry point, shadowing the global

    def keep(payload):
        _SEEN.append(payload)  # the enclosing local: allowed

    for payload in payloads:
        keep(payload)
    return _SEEN


def parent_side(payloads, run_trials):
    def on_trial_end(payload):
        # Same write, nested in a function no worker entry reaches.
        _SEEN.append(payload)

    return run_trials(payloads, on_trial_end)
