# repro-lint-fixture-module: repro.experiments.fixture_par002
"""PAR002 positive fixture: pool resources acquired with no release."""

from multiprocessing import shared_memory

from multiprocessing.shared_memory import SharedMemory
from repro.experiments.supervisor import HeartbeatBoard


def bare_segment(slots):
    shm = shared_memory.SharedMemory(create=True, size=slots)
    return shm.name  # the handle itself is dropped, segment leaks


def unmanaged_segment(slots):
    shm = SharedMemory(create=True, size=slots)
    shm.buf[0] = 1
    shm.close()  # not reached if the write raises: no finally, no with


def unmanaged_attach(name, slots):
    board = HeartbeatBoard.attach(name, slots)
    return board.read(0)


def board_without_owner(workers):
    board = HeartbeatBoard(workers)
    board.beat(0)


def attach_expression_statement(name, slots):
    HeartbeatBoard.attach(name, slots).read(0)
