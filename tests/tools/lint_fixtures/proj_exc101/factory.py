# repro-lint-fixture-module: fixproj.factory
"""Resource factories: returning an acquisition is sanctioned (PAR002)."""

from repro.experiments.supervisor import HeartbeatBoard


def make_board(slots):
    return HeartbeatBoard(slots)


def make_board_indirect(slots):
    # Still a factory two levels deep — callers own the result.
    return make_board(slots)
