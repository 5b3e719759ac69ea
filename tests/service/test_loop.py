"""Unit tests for the device-time loop and its primitives.

The loop is the service's only clock, so these run in tier-1: wakeup
ordering must be a pure function of the schedule, cancellation must
never stall or time-travel the loop, and a misuse (a foreign await, a
wait nothing will end) must fail at once instead of hanging.
"""

import pytest

from repro.errors import ServiceError
from repro.service.loop import (
    BoundedQueue,
    DeviceTimeLoop,
    VirtualEvent,
    VirtualLock,
)


def drive(main_factory, **loop_kwargs):
    """Build a loop, run ``main_factory(loop)``, return (loop, result)."""
    loop = DeviceTimeLoop(**loop_kwargs)
    result = loop.run(main_factory(loop))
    return loop, result


class TestVirtualTime:
    def test_sleep_advances_virtual_time_exactly(self):
        async def main(loop):
            await loop.sleep_cycles(1_000)
            return loop.now

        loop, result = drive(main)
        assert result == 1_000
        assert loop.now == 1_000

    def test_start_cycles_offsets_the_clock(self):
        async def main(loop):
            await loop.sleep_cycles(5)
            return loop.now

        _, result = drive(main, start_cycles=10_000)
        assert result == 10_005

    def test_wakeup_order_is_due_time_then_insertion(self):
        order = []

        async def sleeper(loop, due, tag):
            await loop.sleep_until(due)
            order.append(tag)

        async def main(loop):
            # Same due time: insertion order breaks the tie.
            loop.spawn(sleeper(loop, 200, "b1"))
            loop.spawn(sleeper(loop, 100, "a"))
            loop.spawn(sleeper(loop, 200, "b2"))
            await loop.sleep_until(300)

        drive(main)
        assert order == ["a", "b1", "b2"]

    def test_schedule_is_deterministic_across_runs(self):
        async def workload(loop, log):
            async def worker(i):
                for step in range(3):
                    await loop.sleep_cycles(10 * (i + 1))
                    log.append((loop.now, i, step))

            tasks = [loop.spawn(worker(i)) for i in range(5)]
            for task in tasks:
                await loop.join(task)

        logs = []
        for _ in range(2):
            log = []
            loop = DeviceTimeLoop()
            loop.run(workload(loop, log))
            logs.append(log)
        assert logs[0] == logs[1]

    def test_zero_sleep_still_yields(self):
        ran = []

        async def other(loop):
            ran.append("other")

        async def main(loop):
            loop.spawn(other(loop))
            await loop.sleep_cycles(0)
            return list(ran)

        _, result = drive(main)
        assert result == ["other"]


class TestCancellation:
    def test_cancelling_a_parked_task_does_not_wedge(self):
        async def parked(loop):
            await loop.sleep_until(10**12)

        async def main(loop):
            task = loop.spawn(parked(loop))
            await loop.sleep_cycles(100)
            task.cancel()
            await loop.join(task)
            # The dead wakeup must not drag virtual time to 10**12.
            await loop.sleep_cycles(100)
            return loop.now

        _, result = drive(main)
        assert result == 200

    def test_cancel_after_the_wakeup_fired_throws_into_the_step(self):
        log = []

        async def sleeper(loop):
            try:
                await loop.sleep_until(10)
                log.append("resumed")
            finally:
                log.append(("unwound", loop.now))

        async def canceller(loop, victims):
            await loop.sleep_until(10)
            # Same batch: the victim's wakeup is queued behind this step.
            victims[0].cancel()

        async def main(loop):
            victims = []
            loop.spawn(canceller(loop, victims))
            victim = loop.spawn(sleeper(loop))
            victims.append(victim)
            await loop.join(victim)
            await loop.sleep_cycles(5)
            return victim.cancelled(), loop.now

        _, result = drive(main)
        assert result == (True, 15)
        assert log == [("unwound", 10)]

    def test_cancelled_event_waiter_is_pruned(self):
        async def main(loop):
            event = VirtualEvent(loop)
            waiter = loop.spawn(event.wait())
            await loop.sleep_cycles(10)
            waiter.cancel()
            await loop.join(waiter)
            assert waiter.cancelled()
            return loop.now

        _, result = drive(main)
        assert result == 10

    def test_join_does_not_reraise(self):
        async def poisoned(loop):
            raise ValueError("contained")

        async def main(loop):
            task = loop.spawn(poisoned(loop))
            await loop.join(task)  # must not raise here
            return type(task.exception()).__name__

        _, result = drive(main)
        assert result == "ValueError"


    def test_cancelled_task_unwinds_at_the_next_instant(self):
        log = []

        async def holder(loop, lock):
            await lock.acquire()
            try:
                await loop.sleep_cycles(10**6)
            finally:
                log.append(("a-finally", loop.now))
                lock.release()

        async def waiter(loop, lock):
            await lock.acquire()
            log.append(("b-acquired", loop.now))
            lock.release()

        async def main(loop):
            lock = VirtualLock(loop)
            a = loop.spawn(holder(loop, lock))
            b = loop.spawn(waiter(loop, lock))
            await loop.sleep_until(100)
            a.cancel()
            await loop.sleep_cycles(50)
            log.append(("main-woke", loop.now))
            await loop.join(b)
            assert a.cancelled()

        drive(main)
        assert log == [
            ("a-finally", 150),
            ("main-woke", 150),
            ("b-acquired", 150),
        ]


class TestFailureModes:
    def test_foreign_await_names_the_task_before_time_advances(self):
        class Foreign:
            def __await__(self):
                yield "not a park"

        async def strays(loop):
            await Foreign()

        async def main(loop):
            loop.spawn(strays(loop), name="stray")
            await loop.sleep_cycles(10**9)

        loop = DeviceTimeLoop()
        with pytest.raises(ServiceError, match="task 'stray' awaited"):
            loop.run(main(loop))
        assert loop.now == 0

    def test_no_wakeup_deadlock_is_detected(self):
        async def waits_forever(loop):
            # Parks correctly but nothing will ever set the event:
            # nothing ready, nothing unwinding, empty heap = deadlock.
            await VirtualEvent(loop).wait()

        loop = DeviceTimeLoop()
        with pytest.raises(ServiceError, match="deadlock"):
            loop.run(waits_forever(loop))

    def test_spawn_outside_run_raises(self):
        loop = DeviceTimeLoop()

        async def never():  # pragma: no cover - never awaited
            pass

        coro = never()
        with pytest.raises(ServiceError, match="outside run"):
            loop.spawn(coro)
        coro.close()


class TestEventAndLock:
    def test_event_wakes_all_waiters_at_set_instant(self):
        woken = []

        async def waiter(loop, event, tag):
            await event.wait()
            woken.append((tag, loop.now))

        async def main(loop):
            event = VirtualEvent(loop)
            for tag in ("a", "b"):
                loop.spawn(waiter(loop, event, tag))
            await loop.sleep_cycles(500)
            event.set()
            await loop.sleep_cycles(1)

        drive(main)
        assert woken == [("a", 500), ("b", 500)]

    def test_event_clear_reparks_new_waiters(self):
        async def main(loop):
            event = VirtualEvent(loop)
            event.set()
            await event.wait()  # passes immediately
            event.clear()
            waiter = loop.spawn(event.wait())
            await loop.sleep_cycles(10)
            assert not waiter.done()
            event.set()
            await loop.join(waiter)
            return True

        _, result = drive(main)
        assert result is True

    def test_lock_is_fifo_and_exclusive(self):
        order = []

        async def holder(loop, lock, tag, hold):
            async with lock:
                order.append(tag)
                await loop.sleep_cycles(hold)

        async def main(loop):
            lock = VirtualLock(loop)
            tasks = [
                loop.spawn(holder(loop, lock, tag, 100))
                for tag in ("first", "second", "third")
            ]
            for task in tasks:
                await loop.join(task)
            assert not lock.locked
            assert lock.waiting == 0

        drive(main)
        assert order == ["first", "second", "third"]

    def test_release_unlocked_lock_raises(self):
        async def main(loop):
            lock = VirtualLock(loop)
            with pytest.raises(ServiceError, match="unlocked"):
                lock.release()
            return True

        drive(main)


class TestLockWaiting:
    """``VirtualLock.waiting`` counts waiters still parked in its queue.

    The fleet reads it to pick the shortest lane queue, and the
    controller sheds many sessions in one tick, so the count must be
    exact at every instant -- including between a cancel and the
    cancelled task's next step.
    """

    @staticmethod
    async def _waiter(lock, order, tag):
        await lock.acquire()
        order.append(tag)
        lock.release()

    def test_cancel_drops_the_count_before_the_task_runs(self):
        seen = {}

        async def main(loop):
            lock = VirtualLock(loop)
            await lock.acquire()
            tasks = [
                loop.spawn(self._waiter(lock, [], tag)) for tag in "abc"
            ]
            await loop.sleep_cycles(10)
            seen["parked"] = lock.waiting
            tasks[1].cancel()
            # Same step: the cancelled task has not unwound yet.
            seen["one_cancelled"] = lock.waiting
            tasks[2].cancel()
            seen["two_cancelled"] = lock.waiting
            await loop.sleep_cycles(10)
            seen["settled"] = lock.waiting
            lock.release()
            await loop.join(tasks[0])
            seen["end"] = lock.waiting

        drive(main)
        assert seen == {
            "parked": 3,
            "one_cancelled": 2,
            "two_cancelled": 1,
            "settled": 1,
            "end": 0,
        }

    def test_woken_waiter_is_not_counted_before_it_resumes(self):
        seen = {}
        order = []

        async def main(loop):
            lock = VirtualLock(loop)
            await lock.acquire()
            tasks = [
                loop.spawn(self._waiter(lock, order, tag)) for tag in "ab"
            ]
            await loop.sleep_cycles(10)
            lock.release()
            seen["woken"] = lock.waiting
            # Cancelling the woken waiter before it resumes must not
            # count it out a second time.
            tasks[0].cancel()
            seen["woken_cancelled"] = lock.waiting
            await lock.acquire()
            lock.release()
            await loop.join(tasks[1])
            seen["end"] = lock.waiting

        drive(main)
        assert seen == {"woken": 1, "woken_cancelled": 1, "end": 0}
        assert order == ["b"]

    def test_release_skips_cancelled_waiters(self):
        seen = {}
        order = []

        async def main(loop):
            lock = VirtualLock(loop)
            await lock.acquire()
            tasks = [
                loop.spawn(self._waiter(lock, order, tag)) for tag in "abcd"
            ]
            await loop.sleep_cycles(10)
            tasks[0].cancel()
            tasks[2].cancel()
            await loop.sleep_cycles(10)
            seen["before"] = lock.waiting
            lock.release()
            seen["after_release"] = lock.waiting
            for task in tasks:
                await loop.join(task)
            seen["end"] = lock.waiting
            seen["locked"] = lock.locked

        drive(main)
        assert seen == {
            "before": 2,
            "after_release": 1,
            "end": 0,
            "locked": False,
        }
        assert order == ["b", "d"]


class TestBoundedQueue:
    def test_try_put_reports_backpressure_without_blocking(self):
        async def main(loop):
            queue = BoundedQueue(loop, capacity=2)
            assert queue.try_put(1) and queue.try_put(2)
            assert not queue.try_put(3)  # the backpressure signal
            assert len(queue) == 2
            assert queue.high_water == 2
            return await queue.get()

        _, result = drive(main)
        assert result == 1

    def test_put_parks_until_a_get_frees_a_slot(self):
        async def main(loop):
            queue = BoundedQueue(loop, capacity=1)
            await queue.put("a")
            putter = loop.spawn(queue.put("b"))
            await loop.sleep_cycles(10)
            assert not putter.done()  # backpressured
            assert await queue.get() == "a"
            await loop.join(putter)
            return await queue.get()

        _, result = drive(main)
        assert result == "b"

    def test_get_parks_until_an_item_arrives(self):
        async def main(loop):
            queue = BoundedQueue(loop, capacity=4)
            getter = loop.spawn(queue.get())
            await loop.sleep_cycles(50)
            assert not getter.done()
            queue.try_put("late")
            await loop.join(getter)
            return getter.result()

        _, result = drive(main)
        assert result == "late"

    def test_drain_empties_fifo_order(self):
        async def main(loop):
            queue = BoundedQueue(loop, capacity=8)
            for i in range(5):
                queue.try_put(i)
            drained = queue.drain()
            assert len(queue) == 0
            return drained

        _, result = drive(main)
        assert result == [0, 1, 2, 3, 4]

    def test_zero_capacity_rejected(self):
        loop = DeviceTimeLoop()
        with pytest.raises(ServiceError, match="capacity"):
            BoundedQueue(loop, capacity=0)
