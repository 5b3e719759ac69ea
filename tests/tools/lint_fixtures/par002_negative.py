# repro-lint-fixture-module: repro.experiments.fixture_par002_ok
"""EXC101 on one file: direct acquisitions with a tied release path.

The sanctioned alternatives to ``par002_positive.py``; none is flagged.
"""

import atexit
import contextlib
import weakref
from multiprocessing import shared_memory
from multiprocessing.shared_memory import SharedMemory


def context_manager(size):
    with SharedMemory(create=True, size=size) as shm:
        shm.buf[0] = 1


def with_statement_segment(size):
    with shared_memory.SharedMemory(create=True, size=size) as shm:
        return bytes(shm.buf[:8])


def exit_stack(name):
    with contextlib.ExitStack() as stack:
        shm = stack.enter_context(SharedMemory(name=name))
        return bytes(shm.buf[:8])


def try_finally(size):
    shm = SharedMemory(create=True, size=size)
    try:
        shm.buf[0] = 1
    finally:
        shm.close()


def registered_finalizers(name, size):
    shm = SharedMemory(name=name)
    atexit.register(shm.close)
    spare = SharedMemory(create=True, size=size)
    weakref.finalize(spare, spare.close)
    return shm, spare


class Owner:
    def __init__(self, size):
        # Ownership moves to the object; its close() manages the segment.
        self._shm = shared_memory.SharedMemory(create=True, size=size)

    def close(self):
        self._shm.close()
        self._shm.unlink()


def factory(size):
    shm = shared_memory.SharedMemory(create=True, size=size)
    return shm  # the caller owns (and is checked for) the release


def nested_under_a_stack(name):
    def peek(stack):
        shm = stack.enter_context(SharedMemory(name=name))
        return bytes(shm.buf[:8])

    with contextlib.ExitStack() as stack:
        return peek(stack)


_MODULE_STACK = contextlib.ExitStack()
MODULE_SEGMENT = _MODULE_STACK.enter_context(SharedMemory(create=True, size=64))
