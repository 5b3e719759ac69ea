"""Hypothesis property tests for the multi-actor timeline."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.clock import TscClock
from repro.virt.scheduler import Timeline


class TestTimelineProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=10**7), min_size=1, max_size=60)
    )
    @settings(max_examples=60, deadline=None)
    def test_actions_execute_in_time_order(self, times):
        clock = TscClock()
        timeline = Timeline(clock)
        fired: list[int] = []
        for when in times:
            timeline.schedule_at(when, lambda when=when: fired.append(when))
        timeline.run_until(max(times))
        assert fired == sorted(times)
        assert timeline.pending == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_run_until_respects_horizon(self, times, horizon):
        clock = TscClock()
        timeline = Timeline(clock)
        fired: list[int] = []
        for when in times:
            timeline.schedule_at(when, lambda when=when: fired.append(when))
        executed = timeline.run_until(horizon)
        assert executed == sum(1 for t in times if t <= horizon)
        assert all(t <= horizon for t in fired)
        assert timeline.pending == len(times) - executed

    @given(st.lists(st.integers(min_value=0, max_value=10**6), min_size=1, max_size=40))
    @settings(max_examples=40, deadline=None)
    def test_clock_at_event_times_during_execution(self, times):
        clock = TscClock()
        timeline = Timeline(clock)
        observed: list[tuple[int, int]] = []
        for when in times:
            timeline.schedule_at(
                when, lambda when=when: observed.append((when, clock.now))
            )
        timeline.run_until(max(times))
        for scheduled, at_clock in observed:
            assert at_clock >= scheduled  # never early
        # Clock never runs backwards across actions.
        clock_times = [c for _, c in observed]
        assert clock_times == sorted(clock_times)

    @given(
        st.lists(
            st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_actions_scheduling_actions(self, pairs):
        """Self-rescheduling actions (scrubber/detector pattern) drain."""
        clock = TscClock()
        timeline = Timeline(clock)
        fired = []

        def chain(first, second):
            fired.append(first)
            timeline.schedule_at(clock.now + second, lambda: fired.append(second))

        for first, second in pairs:
            timeline.schedule_at(first, lambda f=first, s=second: chain(f, s))
        timeline.run_until(3 * 10**6)
        assert len(fired) == 2 * len(pairs)
