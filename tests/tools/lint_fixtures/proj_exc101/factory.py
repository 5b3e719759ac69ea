# repro-lint-fixture-module: fixproj.factory
"""Resource factories: returning an acquisition hands it to the caller."""

from multiprocessing.shared_memory import SharedMemory


def make_segment(size):
    return SharedMemory(create=True, size=size)


def make_segment_indirect(size):
    # Still a factory two levels deep — callers own the result.
    return make_segment(size)
