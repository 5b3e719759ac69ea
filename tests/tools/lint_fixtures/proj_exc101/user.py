# repro-lint-fixture-module: fixproj.user
"""Consumers: the leak is invisible without the factory's summary."""

from contextlib import ExitStack

from fixproj.factory import make_segment, make_segment_indirect


def bad_consume(trial):
    shm = make_segment(2)  # leaked: nothing ever closes it
    shm.buf[0] = trial


def bad_consume_indirect(trial):
    shm = make_segment_indirect(2)  # leaked through two hops
    shm.buf[0] = trial


def good_with_stack(trial):
    with ExitStack() as stack:
        shm = stack.enter_context(make_segment(2))
        shm.buf[0] = trial


def good_finally(trial):
    shm = make_segment(2)
    try:
        shm.buf[0] = trial
    finally:
        shm.close()


def good_factory_onward():
    return make_segment(2)
