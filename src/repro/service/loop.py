"""Deterministic device-time coroutines: the service's only clock.

The service multiplexes up to 10⁵ session coroutines, yet must stay a
pure function of ``(config, seed)`` — the same reproducibility bar the
batch runner meets.  A host-clock event loop cannot deliver that:
wakeup order would depend on scheduler jitter.  So the service runs on
*device time* instead: a single integer cycle counter that only
advances when no task can run, exactly like
:class:`repro.virt.scheduler.Timeline` but for coroutines.

:class:`DeviceTimeLoop` steps the ``async def`` coroutines itself
(``send``/``throw``, no asyncio underneath) and keeps ``now``, a FIFO
*ready queue* of task steps and join wakeups, and a min-heap of
``(due_cycles, seq, park)`` timed wakeups.  Every await in service code
ends at a :class:`_Park`, the one object a task may hand the loop.  The
driver runs the ready queue until it is empty, then advances ``now`` to
the earliest live heap entry and readies every wakeup due by then, in
heap order; ties resolve by insertion order, so the whole schedule is
deterministic.  A primitive that wakes a waiter (an event set, a lock
release, a queue hand-off, a finished task's joiner) puts it on the
heap at the current instant: it runs in the next batch.

Cancelling a parked task takes it off its park at once; the task
unwinds in the next batch, ahead of that batch's wakeups and after
``now`` has advanced (``_unwinding`` holds it until then).  Cancelling
a ready task throws into its queued step instead.

Failure detection is exact: with the ready queue, the pending unwinds
and the heap all empty but the main coroutine unfinished, the loop is
deadlocked; a task that awaits anything but a loop primitive raises
:class:`~repro.errors.ServiceError` naming it, before ``now`` moves.
Host-blocking calls (``time.sleep``, sync file I/O, ``Event.wait``)
never await, so the loop cannot see them; the ``ASY101`` lint rule
forbids them in anything the loop can reach.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Any, Coroutine, Generator

from repro.errors import ServiceError


class TaskCancelled(BaseException):
    """Thrown into a cancelled task at the await it is parked on.

    A :class:`BaseException`, like :class:`asyncio.CancelledError`, so
    that an ``except ReproError`` containment boundary never swallows a
    shed or a kill.
    """


class _Park:
    """What a task awaits: one wakeup, from the heap or a waiter queue.

    ``task`` is the parked task until a wakeup or a cancel takes it.  A
    park made with *waiters* appends itself there; a cancel takes it out
    again at once, so a waiter queue's length counts live waiters only.
    """

    __slots__ = ("task", "waiters")

    def __init__(self, waiters: "deque[_Park] | None" = None) -> None:
        self.task: Task | None = None
        self.waiters = waiters
        if waiters is not None:
            waiters.append(self)

    def __await__(self) -> Generator["_Park", None, None]:
        yield self


class Task:
    """A coroutine driven by a :class:`DeviceTimeLoop`."""

    __slots__ = (
        "name", "_loop", "_coro", "_park", "_must_cancel", "_joiners",
        "_done", "_result", "_exception",
    )

    def __init__(
        self, loop: "DeviceTimeLoop", coro: Coroutine[Any, Any, Any], name: str
    ) -> None:
        self.name = name
        self._loop = loop
        self._coro = coro
        self._park: _Park | None = None
        self._must_cancel = False
        self._joiners: deque[_Park] = deque()
        self._done = False
        self._result: Any = None
        # What the coroutine raised; a TaskCancelled if it was cancelled.
        self._exception: BaseException | None = None

    def done(self) -> bool:
        return self._done

    def cancelled(self) -> bool:
        return type(self._exception) is TaskCancelled

    def exception(self) -> "BaseException | None":
        return self._exception

    def result(self) -> Any:
        """The coroutine's return value; re-raises how it ended otherwise."""
        if self._exception is not None:
            raise self._exception
        return self._result

    def cancel(self) -> bool:
        """Request cancellation; ``False`` if the task already finished."""
        if self._done:
            return False
        self._must_cancel = True
        park = self._park
        if park is not None:
            self._park = park.task = None
            if park.waiters is not None:
                park.waiters.remove(park)
            self._loop._unwinding.append(self)
        return True


class DeviceTimeLoop:
    """A virtual-time cooperative scheduler for ``async def`` coroutines."""

    def __init__(self, start_cycles: int = 0) -> None:
        self._cycles = int(start_cycles)
        self._ready: deque[Task | _Park] = deque()
        self._unwinding: list[Task] = []
        self._heap: list[tuple[int, int, _Park]] = []
        self._seq = 0
        self._tasks: dict[Task, None] = {}
        self._driving = False

    @property
    def now(self) -> int:
        """Current virtual time in cycles."""
        return self._cycles

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, main: Coroutine[Any, Any, Any]) -> Any:
        """Drive *main* (and everything it spawns) to completion.

        Returns *main*'s result; re-raises its exception.  Tasks still
        alive when *main* finishes are cancelled — the root coroutine
        owns the lifecycle of everything it spawned.
        """
        self._driving = True
        root = self.spawn(main, name="service-main")
        try:
            while True:
                self._run_ready()
                if root.done():
                    break
                self._advance()
        finally:
            self._driving = False
            for task in list(self._tasks):
                task.cancel()
            self._ready.extend(self._unwinding)
            self._unwinding.clear()
            self._run_ready()
        return root.result()

    def _run_ready(self) -> None:
        ready = self._ready
        while ready:
            item = ready.popleft()
            if type(item) is Task:
                self._step(item)
            else:
                # A finished task's joiner: woken at this instant.
                self._schedule(self._cycles, item)

    def _advance(self) -> None:
        """Advance ``now`` to the earliest live wakeup and ready the batch."""
        heap = self._heap
        # Drop cancelled parks from the head so virtual time never
        # advances to a wakeup nobody is waiting on.
        while heap and heap[0][2].task is None:
            heapq.heappop(heap)
        if heap:
            self._cycles = heap[0][0]
        elif not self._unwinding:
            raise ServiceError(
                "device-time deadlock: every task is parked and"
                f" no wakeup is scheduled ({len(self._tasks)} live"
                f" tasks at cycle {self._cycles})"
            )
        ready = self._ready
        ready.extend(self._unwinding)
        self._unwinding.clear()
        while heap and heap[0][0] <= self._cycles:
            park = heapq.heappop(heap)[2]
            task = park.task
            if task is not None:
                park.task = task._park = None
                ready.append(task)

    def _step(self, task: Task) -> None:
        """Run *task* up to its next park (or its end)."""
        try:
            if task._must_cancel:
                task._must_cancel = False
                park = task._coro.throw(TaskCancelled())
            else:
                park = task._coro.send(None)
        except StopIteration as stop:
            task._result = stop.value
        except (TaskCancelled, Exception) as exc:  # repro-lint: ignore[EXC001]
            # Deliberate: kept on the task for its joiner to inspect.
            task._exception = exc
        else:
            if type(park) is not _Park:
                raise ServiceError(
                    f"task {task.name!r} awaited {park!r}, which is not a"
                    " device-time loop primitive"
                )
            park.task = task
            task._park = park
            return
        # It ended: wake its joiners at this instant, in turn.
        task._done = True
        del self._tasks[task]
        self._ready.extend(task._joiners)

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------
    def spawn(self, coro: Coroutine[Any, Any, Any], name: str = "") -> Task:
        """Queue *coro* as a new task behind everything ready now."""
        if not self._driving:
            raise ServiceError(
                "spawn() outside run(): the device-time loop is not driving"
            )
        task = Task(self, coro, name or f"svc-{self._seq}")
        self._tasks[task] = None
        self._ready.append(task)
        return task

    async def join(self, task: Task) -> None:
        """Park until *task* finishes (by any means).

        Deliberately does **not** re-raise the task's exception — the
        supervisor inspects ``task.cancelled()`` / ``task.exception()``
        itself, which is how poisoned sessions are contained without a
        broad ``except``.
        """
        if not task.done():
            await _Park(task._joiners)

    # ------------------------------------------------------------------
    # Time primitives
    # ------------------------------------------------------------------
    async def sleep_cycles(self, cycles: int) -> None:
        """Park for *cycles* of device time (0 still yields a full turn)."""
        await self.sleep_until(self._cycles + max(0, int(cycles)))

    async def sleep_until(self, due_cycles: int) -> None:
        """Park until virtual time reaches *due_cycles*."""
        park = _Park()
        self._schedule(max(int(due_cycles), self._cycles), park)
        await park

    def _schedule(self, due: int, park: _Park) -> None:
        heapq.heappush(self._heap, (due, self._seq, park))
        self._seq += 1

    def _wake_first(self, waiters: "deque[_Park]") -> None:
        """Wake the oldest of *waiters*, if any, at the current instant."""
        if waiters:
            park = waiters.popleft()
            park.waiters = None
            self._schedule(self._cycles, park)


class VirtualEvent:
    """An :class:`asyncio.Event` lookalike parked on device time."""

    def __init__(self, loop: DeviceTimeLoop) -> None:
        self._loop = loop
        self._flag = False
        self._waiters: deque[_Park] = deque()

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        """Set the flag; every waiter wakes at the current instant."""
        self._flag = True
        while self._waiters:
            self._loop._wake_first(self._waiters)

    def clear(self) -> None:
        self._flag = False

    async def wait(self) -> None:
        while not self._flag:
            await _Park(self._waiters)


class VirtualLock:
    """A mutual-exclusion lock whose waiters wake in FIFO order.

    Custody of a device lane flows through one of these: waiters queue
    deterministically and the release hands the wake to the head of the
    queue at the current virtual instant.
    """

    def __init__(self, loop: DeviceTimeLoop) -> None:
        self._loop = loop
        self._locked = False
        self._waiters: deque[_Park] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def waiting(self) -> int:
        """Waiters parked on this lock: not woken, not cancelled."""
        return len(self._waiters)

    async def acquire(self) -> None:
        while self._locked:
            await _Park(self._waiters)
        self._locked = True

    def release(self) -> None:
        if not self._locked:
            raise ServiceError("release() of an unlocked VirtualLock")
        self._locked = False
        self._loop._wake_first(self._waiters)

    async def __aenter__(self) -> "VirtualLock":
        await self.acquire()
        return self

    async def __aexit__(self, *exc: object) -> None:
        self.release()


class BoundedQueue:
    """A bounded FIFO queue with *explicit* backpressure.

    ``try_put`` is the non-blocking front door: a ``False`` return is
    the backpressure signal the admission path converts into a typed
    ``queue-full`` rejection (after its bounded retry budget), so the
    load generator always learns it was pushed back — nothing blocks
    silently and nothing is dropped on the floor.
    """

    def __init__(self, loop: DeviceTimeLoop, capacity: int) -> None:
        if capacity < 1:
            raise ServiceError(f"queue capacity must be >= 1, got {capacity}")
        self._loop = loop
        self._capacity = capacity
        self._items: deque[Any] = deque()
        self._getters: deque[_Park] = deque()
        self._putters: deque[_Park] = deque()
        self.high_water = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._items)

    def try_put(self, item: Any) -> bool:
        """Enqueue *item*, or report backpressure without blocking."""
        if len(self._items) >= self._capacity:
            return False
        self._items.append(item)
        self.high_water = max(self.high_water, len(self._items))
        self._loop._wake_first(self._getters)
        return True

    async def put(self, item: Any) -> None:
        """Enqueue *item*, parking (backpressured) while the queue is full."""
        while not self.try_put(item):
            await _Park(self._putters)

    async def get(self) -> Any:
        while not self._items:
            await _Park(self._getters)
        item = self._items.popleft()
        self._loop._wake_first(self._putters)
        return item

    def drain(self) -> list[Any]:
        """Remove and return every queued item (used by graceful drain)."""
        items = list(self._items)
        self._items.clear()
        while self._putters:
            self._loop._wake_first(self._putters)
        return items
