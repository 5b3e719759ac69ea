# repro-lint-fixture-module: fixproj.user
"""Consumers: the leak is invisible without the factory's summary."""

from contextlib import ExitStack

from fixproj.factory import make_board, make_board_indirect


def bad_consume(trial):
    board = make_board(2)  # leaked: nothing ever closes it
    board.beat(0, trial=trial)


def bad_consume_indirect(trial):
    board = make_board_indirect(2)  # leaked through two hops
    board.beat(0, trial=trial)


def good_with_stack(trial):
    with ExitStack() as stack:
        board = stack.enter_context(make_board(2))
        board.beat(0, trial=trial)


def good_finally(trial):
    board = make_board(2)
    try:
        board.beat(0, trial=trial)
    finally:
        board.close()


def good_factory_onward():
    return make_board(2)
