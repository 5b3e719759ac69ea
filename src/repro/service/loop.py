"""Deterministic device-time asyncio: the service's only clock.

The service multiplexes up to 10⁵ session coroutines, yet must stay a
pure function of ``(config, seed)`` — the same reproducibility bar the
batch runner meets.  Host-clock asyncio cannot deliver that: wakeup
order would depend on scheduler jitter.  So the service runs on
*device time* instead: a single integer cycle counter that only
advances when every task is parked, exactly like
:class:`repro.virt.scheduler.Timeline` but for coroutines.

How it works
------------
:class:`DeviceTimeLoop` wraps a vanilla asyncio loop and keeps

* ``now`` — the current virtual cycle count;
* a min-heap of ``(due_cycles, seq, future)`` wakeups;
* a *busy counter* — the number of live tasks **not** parked on a loop
  primitive.

The driver lets asyncio run (``await asyncio.sleep(0)``) until the busy
counter hits zero — every task has either finished or parked — then
pops the earliest heap entry, advances ``now`` to its due time, and
wakes it (incrementing busy *before* resolving the future, so time can
never advance past a pending wakeup).  Ties resolve by insertion order,
making the whole schedule deterministic.

The contract this imposes on service code — **every** await must go
through a loop primitive (:meth:`DeviceTimeLoop.sleep_cycles`,
:class:`VirtualEvent`, :class:`VirtualLock`, :class:`BoundedQueue`,
:meth:`DeviceTimeLoop.join`) and blocking host calls (``time.sleep``,
sync file I/O, ``Event.wait``) are forbidden in anything the loop can
reach — is enforced statically by the ``ASY101`` lint rule.
"""

from __future__ import annotations

import asyncio
import heapq
from collections import deque
from typing import Any, Coroutine

from repro.errors import ServiceError

#: Consecutive zero-progress scheduler passes tolerated before the
#: driver declares the loop wedged (a task awaited something that is
#: not a loop primitive).  Each pass runs every ready callback once, so
#: legitimate hand-off chains finish in a handful of passes.
MAX_IDLE_SPINS = 100_000


class DeviceTimeLoop:
    """A virtual-time cooperative scheduler over asyncio."""

    def __init__(self, start_cycles: int = 0) -> None:
        self._cycles = int(start_cycles)
        self._heap: list[tuple[int, int, asyncio.Future]] = []
        self._seq = 0
        self._busy = 0
        self._tasks: set[asyncio.Task] = set()
        self._aio: asyncio.AbstractEventLoop | None = None
        self.wakeups = 0

    @property
    def now(self) -> int:
        """Current virtual time in cycles."""
        return self._cycles

    @property
    def live_tasks(self) -> int:
        """Tasks spawned on this loop that have not finished."""
        return len(self._tasks)

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------
    def run(self, main: Coroutine[Any, Any, Any]) -> Any:
        """Drive *main* (and everything it spawns) to completion.

        Returns *main*'s result; re-raises its exception.  Tasks still
        alive when *main* finishes are cancelled — the root coroutine
        owns the lifecycle of everything it spawned.
        """
        return asyncio.run(self._drive(main))

    async def _drive(self, main: Coroutine[Any, Any, Any]) -> Any:
        self._aio = asyncio.get_running_loop()
        root = self.spawn(main, name="service-main")
        try:
            while True:
                await self._settle()
                if root.done():
                    break
                self._prune()
                if self._heap:
                    self._fire_due()
                    continue
                # Empty heap with tasks alive is *usually* a deadlock —
                # but a just-cancelled task's CancelledError step may
                # still sit in asyncio's ready queue, not yet counted
                # busy.  Grant a few grace passes to flush it (each
                # pass drains the whole ready queue once; a pending
                # wakeup raises ``busy`` or posts a heap entry within
                # two) before declaring the loop dead.
                for _ in range(8):
                    await asyncio.sleep(0)
                    self._prune()
                    if self._busy > 0 or self._heap:
                        break
                else:
                    raise ServiceError(
                        "device-time deadlock: every task is parked and"
                        f" no wakeup is scheduled ({self.live_tasks} live"
                        f" tasks at cycle {self._cycles})"
                    )
        finally:
            for task in list(self._tasks):
                task.cancel()
            if self._tasks:
                await asyncio.gather(*self._tasks, return_exceptions=True)
            self._aio = None
        return root.result()

    async def _settle(self) -> None:
        """Yield to asyncio until every live task is parked.

        Always yields at least once: a just-cancelled task is *ready*
        (asyncio queued its ``CancelledError`` step) but not counted
        busy until it actually runs, so a pass is owed even when the
        counter already reads zero.
        """
        spins = 0
        while True:
            await asyncio.sleep(0)
            if self._busy <= 0:
                return
            spins += 1
            if spins > MAX_IDLE_SPINS:
                raise ServiceError(
                    f"device-time loop wedged: {self._busy} task(s) stayed"
                    f" runnable for {MAX_IDLE_SPINS} scheduler passes —"
                    " something awaited outside the loop's primitives"
                )

    def _prune(self) -> None:
        """Drop dead wakeups (cancelled parks) from the heap head so
        virtual time never advances to a wakeup nobody is waiting on."""
        while self._heap and self._heap[0][2].done():
            heapq.heappop(self._heap)

    def _fire_due(self) -> None:
        """Advance ``now`` to the earliest wakeup and fire the batch."""
        self._cycles = max(self._cycles, self._heap[0][0])
        while self._heap and self._heap[0][0] <= self._cycles:
            _, _, fut = heapq.heappop(self._heap)
            self._wake(fut)

    # ------------------------------------------------------------------
    # Task management
    # ------------------------------------------------------------------
    def spawn(self, coro: Coroutine[Any, Any, Any], name: str = "") -> asyncio.Task:
        """Schedule *coro* as a task counted by the busy tracker."""
        if self._aio is None:
            raise ServiceError(
                "spawn() outside run(): the device-time loop is not driving"
            )
        task = self._aio.create_task(coro, name=name or f"svc-{self._seq}")
        self._busy += 1
        self._tasks.add(task)
        task.add_done_callback(self._on_task_done)
        return task

    def _on_task_done(self, task: asyncio.Task) -> None:
        self._busy -= 1
        self._tasks.discard(task)

    async def join(self, task: asyncio.Task) -> None:
        """Park until *task* finishes (by any means).

        Deliberately does **not** re-raise the task's exception — the
        supervisor inspects ``task.cancelled()`` / ``task.exception()``
        itself, which is how poisoned sessions are contained without a
        broad ``except``.
        """
        if task.done():
            return
        fut = self._future()
        task.add_done_callback(lambda _t: self._wake_soon(fut))
        await self._park(fut)

    # ------------------------------------------------------------------
    # Time primitives
    # ------------------------------------------------------------------
    async def sleep_cycles(self, cycles: int) -> None:
        """Park for *cycles* of device time (0 still yields a full turn)."""
        await self.sleep_until(self._cycles + max(0, int(cycles)))

    async def sleep_until(self, due_cycles: int) -> None:
        """Park until virtual time reaches *due_cycles*."""
        fut = self._future()
        self._schedule(max(int(due_cycles), self._cycles), fut)
        await self._park(fut)

    # ------------------------------------------------------------------
    # Internals shared with the primitives below
    # ------------------------------------------------------------------
    def _running(self) -> asyncio.AbstractEventLoop:
        if self._aio is None:
            raise ServiceError("loop primitive used outside run()")
        return self._aio

    def _future(self) -> asyncio.Future:
        return self._running().create_future()

    def _schedule(self, due: int, fut: asyncio.Future) -> None:
        heapq.heappush(self._heap, (due, self._seq, fut))
        self._seq += 1

    def _wake_soon(self, fut: asyncio.Future) -> None:
        """Queue *fut* to fire at the current virtual instant."""
        self._schedule(self._cycles, fut)

    def _wake(self, fut: asyncio.Future) -> None:
        if not fut.done():
            self._busy += 1
            self.wakeups += 1
            fut.set_result(None)

    async def _park(self, fut: asyncio.Future) -> None:
        """Block the calling task on *fut*, maintaining the busy count.

        The waker (heap pop, event set, lock release) increments busy
        *before* resolving the future; cancellation is the one wake
        path with no waker, so it restores the count itself.
        """
        self._busy -= 1
        try:
            await fut
        except asyncio.CancelledError:
            self._busy += 1
            raise


class VirtualEvent:
    """An :class:`asyncio.Event` lookalike parked on device time."""

    def __init__(self, loop: DeviceTimeLoop) -> None:
        self._loop = loop
        self._flag = False
        self._waiters: deque[asyncio.Future] = deque()

    def is_set(self) -> bool:
        return self._flag

    def set(self) -> None:
        """Set the flag; every waiter wakes at the current instant."""
        self._flag = True
        while self._waiters:
            self._loop._wake_soon(self._waiters.popleft())

    def clear(self) -> None:
        self._flag = False

    async def wait(self) -> None:
        while not self._flag:
            fut = self._loop._future()
            self._waiters.append(fut)
            await self._loop._park(fut)


class _LockWaiter(asyncio.Future):
    """A lock waiter's future: cancelling it while it is still queued
    takes it out of the lock's live count at once.

    ``Task.cancel`` cancels the future its task is parked on
    synchronously, so the count drops before any other task runs --
    the cancelled task's own ``CancelledError`` step may come much
    later (the controller sheds many sessions in one tick).
    """

    __slots__ = ("lock",)

    def __init__(self, lock: "VirtualLock", loop: asyncio.AbstractEventLoop) -> None:
        super().__init__(loop=loop)
        self.lock: VirtualLock | None = lock

    def cancel(self, msg: Any = None) -> bool:
        cancelled = super().cancel(msg)
        if cancelled and self.lock is not None:
            self.lock._live_waiters -= 1
            self.lock = None
        return cancelled


class VirtualLock:
    """A mutual-exclusion lock whose waiters wake in FIFO order.

    Custody of a device lane flows through one of these: waiters queue
    deterministically and the release hands the wake to the head of the
    queue at the current virtual instant.  Cancelled waiters stay in the
    queue until a release skips them; ``_live_waiters`` counts the rest.
    """

    def __init__(self, loop: DeviceTimeLoop) -> None:
        self._loop = loop
        self._locked = False
        self._waiters: deque[_LockWaiter] = deque()
        self._live_waiters = 0

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def waiting(self) -> int:
        """Waiters parked on this lock: not woken, not cancelled."""
        return self._live_waiters

    async def acquire(self) -> None:
        while self._locked:
            fut = _LockWaiter(self, self._loop._running())
            self._waiters.append(fut)
            self._live_waiters += 1
            await self._loop._park(fut)
        self._locked = True

    def release(self) -> None:
        if not self._locked:
            raise ServiceError("release() of an unlocked VirtualLock")
        self._locked = False
        while self._waiters:
            fut = self._waiters.popleft()
            if not fut.done():
                fut.lock = None
                self._live_waiters -= 1
                self._loop._wake_soon(fut)
                break

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
        self._getters: deque[asyncio.Future] = deque()
        self._putters: deque[asyncio.Future] = deque()
        self.high_water = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    def __len__(self) -> int:
        return len(self._items)

    def _wake_one(self, waiters: "deque[asyncio.Future]") -> None:
        while waiters:
            fut = waiters.popleft()
            if not fut.done():
                self._loop._wake_soon(fut)
                return

    def try_put(self, item: Any) -> bool:
        """Enqueue *item*, or report backpressure without blocking."""
        if len(self._items) >= self._capacity:
            return False
        self._items.append(item)
        self.high_water = max(self.high_water, len(self._items))
        self._wake_one(self._getters)
        return True

    async def put(self, item: Any) -> None:
        """Enqueue *item*, parking (backpressured) while the queue is full."""
        while not self.try_put(item):
            fut = self._loop._future()
            self._putters.append(fut)
            await self._loop._park(fut)

    async def get(self) -> Any:
        while not self._items:
            fut = self._loop._future()
            self._getters.append(fut)
            await self._loop._park(fut)
        item = self._items.popleft()
        self._wake_one(self._putters)
        return item

    def drain(self) -> list[Any]:
        """Remove and return every queued item (used by graceful drain)."""
        items = list(self._items)
        self._items.clear()
        while self._putters:
            self._wake_one(self._putters)
        return items
