# repro-lint-fixture-module: repro.experiments.fixture_par002_ok
"""PAR002 negative fixture: every acquisition has a tied release path."""

import atexit
import contextlib
import weakref
from multiprocessing import shared_memory
from multiprocessing.shared_memory import SharedMemory

from repro.experiments.supervisor import HeartbeatBoard


def context_manager(slots):
    with HeartbeatBoard(slots) as board:
        board.beat(0)


def with_statement_segment(slots):
    with shared_memory.SharedMemory(create=True, size=slots) as shm:
        return bytes(shm.buf[:8])


def exit_stack(name, slots):
    with contextlib.ExitStack() as stack:
        shm = stack.enter_context(SharedMemory(name=name))
        board = stack.enter_context(HeartbeatBoard.attach(name, slots))
        board.beat(0)
        return bytes(shm.buf[:8])


def try_finally(workers):
    board = HeartbeatBoard(workers)
    try:
        board.beat(0)
    finally:
        board.close()


def registered_finalizers(workers, slots):
    board = HeartbeatBoard(workers)
    atexit.register(board.close)
    spare = HeartbeatBoard(slots)
    weakref.finalize(spare, spare.close)
    return board, spare


class Owner:
    def __init__(self, slots):
        # Ownership moves to the object; its close() manages the segment.
        self._shm = shared_memory.SharedMemory(create=True, size=slots)

    def close(self):
        self._shm.close()
        self._shm.unlink()


def factory(slots):
    shm = shared_memory.SharedMemory(create=True, size=slots)
    return shm  # the caller's scope owns (and is checked for) release
