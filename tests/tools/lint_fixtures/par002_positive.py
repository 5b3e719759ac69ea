# repro-lint-fixture-module: repro.experiments.fixture_par002
"""EXC101 on one file: direct acquisitions with no tied release.

These are the cases the retired per-file rule PAR002 flagged; EXC101
must still report every one when a single file is linted.
"""

from multiprocessing import shared_memory

from multiprocessing.shared_memory import SharedMemory


def bare_segment(size):
    shm = shared_memory.SharedMemory(create=True, size=size)
    return shm.name  # the handle itself is dropped, segment leaks


def unmanaged_segment(size):
    shm = SharedMemory(create=True, size=size)
    shm.buf[0] = 1
    shm.close()  # not reached if the write raises: no finally, no with


def unmanaged_attach(name):
    shm = SharedMemory(name=name)
    return bytes(shm.buf[:8])


def attach_without_owner(name):
    shm = SharedMemory(name=name)
    shm.buf[0] = 0


def attach_expression_statement(name):
    SharedMemory(name=name).buf[0] = 0


def use(segment):
    return len(segment.buf)


def handed_to_a_call(size):
    shm = SharedMemory(create=True, size=size)
    use(shm)  # a call may or may not keep it: not a release path


def unlinked_only(size):
    shm = SharedMemory(create=True, size=size)
    try:
        shm.buf[0] = 1
    finally:
        shm.unlink()  # removes the name, never unmaps the segment


def nested_acquisition(name):
    def peek():
        shm = SharedMemory(name=name)
        return bytes(shm.buf[:8])

    return peek()


MODULE_SEGMENT = SharedMemory(create=True, size=64)
