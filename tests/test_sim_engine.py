"""Unit tests for the discrete-event kernel (repro.sim)."""

import dataclasses

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.check.explorer import random_walk, run_schedule
from repro.core.errors import SimulationError
from repro.sim.engine import PeriodicTask, Simulator
from repro.sim.events import BACKGROUND_LABELS, Event


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(2.0, lambda: fired.append("b"))
        sim.schedule(1.0, lambda: fired.append("a"))
        sim.schedule(3.0, lambda: fired.append("c"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_scheduling_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("first"))
        sim.schedule(1.0, lambda: fired.append("second"))
        sim.run()
        assert fired == ["first", "second"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(5.0, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [5.0]
        assert sim.now == 5.0

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(7.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [7.5]

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1.0, lambda: None)

    def test_schedule_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(0.5, lambda: None)

    def test_events_scheduled_during_run_fire(self):
        sim = Simulator()
        fired = []

        def chain():
            fired.append(sim.now)
            if len(fired) < 3:
                sim.schedule(1.0, chain)

        sim.schedule(1.0, chain)
        sim.run()
        assert fired == [1.0, 2.0, 3.0]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, lambda: fired.append("x"))
        event.cancel()
        sim.run()
        assert fired == []

    def test_cancel_after_fire_is_harmless(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()

    def test_pending_count_excludes_cancelled(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        assert sim.events_pending == 1


class TestRunControl:
    def test_run_until_stops_at_boundary(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run_until(3.0)
        assert fired == [1]
        assert sim.now == 3.0

    def test_run_until_inclusive_of_boundary_event(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda: fired.append(3))
        sim.run_until(3.0)
        assert fired == [3]

    def test_run_until_backwards_rejected(self):
        sim = Simulator()
        sim.run_until(5.0)
        with pytest.raises(SimulationError):
            sim.run_until(2.0)

    def test_repeated_run_until_resumes(self):
        sim = Simulator()
        fired = []
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run_until(1.5)
        sim.run_until(2.5)
        sim.run_until(3.5)
        assert fired == [1.0, 2.0, 3.0]

    def test_step_returns_false_when_empty(self):
        sim = Simulator()
        assert sim.step() is False

    def test_clock_never_runs_backwards(self):
        sim = Simulator()
        for t in (1.0, 2.0, 8.0):
            sim.schedule_at(t, lambda: None)
        seen = [sim.now]
        sim.run_until(5.0)
        seen.append(sim.now)
        while sim.step():
            seen.append(sim.now)
        assert seen == [0.0, 5.0, 8.0]
        # run_until takes no event budget: stopping early yet setting the
        # clock to the window's end would let the next step run it back.
        with pytest.raises(TypeError):
            sim.run_until(9.0, max_events=1)

    def test_run_max_events(self):
        sim = Simulator()
        fired = []
        for t in range(5):
            sim.schedule(float(t + 1), lambda t=t: fired.append(t))
        sim.run(max_events=2)
        assert len(fired) == 2

    def test_run_while_predicate(self):
        sim = Simulator()
        fired = []
        for t in range(10):
            sim.schedule(float(t + 1), lambda t=t: fired.append(t))
        sim.run_while(lambda: len(fired) < 4)
        assert len(fired) == 4

    def test_events_processed_counter(self):
        sim = Simulator()
        for t in range(3):
            sim.schedule(float(t + 1), lambda: None)
        sim.run()
        assert sim.events_processed == 3


def scan_foreground(sim):
    """The reference the counter must equal: a scan of the whole queue."""
    return sum(
        1
        for _, _, event in sim._queue
        if not event.cancelled and not event.label.startswith(BACKGROUND_LABELS)
    )


class TestForegroundCounter:
    """``Simulator.foreground_pending`` is maintained at schedule, fire
    and cancel; quiescence is that counter at zero."""

    @pytest.mark.parametrize("protocol", [None, "paxos"], ids=["polyvalue", "paxos"])
    @pytest.mark.parametrize("scenario", ["pair", "transfers", "mixed"])
    def test_counter_equals_a_queue_scan_after_every_step(
        self, monkeypatch, scenario, protocol
    ):
        step = Simulator.step
        steps = []
        mismatches = []

        def checked_step(sim):
            progressed = step(sim)
            steps.append(sim.now)
            scanned = scan_foreground(sim)
            if sim.foreground_pending != scanned:
                mismatches.append((sim.now, sim.foreground_pending, scanned))
            return progressed

        monkeypatch.setattr(Simulator, "step", checked_step)
        for seed in range(20):
            schedule = dataclasses.replace(
                random_walk(scenario, seed, steps=12), protocol=protocol
            )
            assert run_schedule(schedule).ok
        assert len(steps) > 20 * 20
        assert mismatches == []

    def test_cancel_before_fire_lowers_the_count_once(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None, label="wait-timeout:T1")
        drop = sim.schedule(2.0, lambda: None, label="wait-timeout:T2")
        assert sim.foreground_pending == 2
        drop.cancel()
        assert sim.foreground_pending == 1
        drop.cancel()
        assert sim.foreground_pending == 1
        sim.run()
        assert sim.foreground_pending == 0
        keep.cancel()
        drop.cancel()
        assert sim.foreground_pending == 0

    def test_cancel_after_fire_does_not_underflow(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        other = sim.schedule(2.0, lambda: None)
        sim.run_until(1.5)
        assert sim.foreground_pending == 1
        event.cancel()
        assert sim.foreground_pending == 1
        other.cancel()
        assert sim.foreground_pending == 0

    def test_cancel_from_inside_the_action_is_a_noop(self):
        sim = Simulator()
        handle = []
        handle.append(sim.schedule(1.0, lambda: handle[0].cancel()))
        sim.schedule(2.0, lambda: None)
        sim.run_until(1.5)
        assert sim.foreground_pending == 1

    def test_background_events_are_never_counted(self):
        sim = Simulator()
        events = [
            sim.schedule(1.0, lambda: None, label=label)
            for label in ("outcome-maintenance:s1", "workload-arrival", "arrival")
        ]
        assert sim.foreground_pending == 0
        events[0].cancel()
        events[0].cancel()
        assert sim.foreground_pending == 0
        sim.run()
        assert sim.foreground_pending == 0
        assert sim.events_processed == 2

    def test_run_until_quiescent_stops_at_max_time(self):
        sim = Simulator()
        fired = []
        PeriodicTask(
            sim, 1.0, lambda: fired.append(sim.now), label="outcome-maintenance:s1"
        )
        sim.schedule(5.0, lambda: fired.append("late"), label="wait-timeout:T1")
        assert sim.run_until_quiescent(max_time=3.5) is False
        assert sim.now == 3.5
        assert fired == [1.0, 2.0, 3.0]
        assert sim.foreground_pending == 1

    def test_run_until_quiescent_fires_nothing_when_already_quiescent(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append("bg"), label="arrival")
        assert sim.run_until_quiescent(max_time=10.0) is True
        assert sim.run_until_quiescent() is True
        assert fired == []
        assert sim.now == 0.0
        assert sim.events_processed == 0

    def test_run_until_quiescent_follows_work_scheduled_along_the_way(self):
        sim = Simulator()
        fired = []
        sim.schedule(
            1.0,
            lambda: sim.schedule(1.0, lambda: fired.append(sim.now), label="t"),
            label="t",
        )
        sim.schedule(9.0, lambda: fired.append("bg"), label="arrival")
        assert sim.run_until_quiescent() is True
        assert fired == [2.0]
        assert sim.now == 2.0

    def test_run_until_quiescent_reports_a_livelock(self):
        sim = Simulator()

        def again():
            sim.schedule(1.0, again, label="t")

        again()
        with pytest.raises(SimulationError):
            sim.run_until_quiescent(max_events=50)


#: Delays and run-until offsets from a small set, so many events tie.
OFFSETS = st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.5])
LABELS = st.sampled_from(
    ["", "wait-timeout:T1", "deliver", "arrival", "outcome-maintenance:s1"]
)
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("schedule"), OFFSETS, LABELS, st.none() | OFFSETS),
        st.tuples(st.just("schedule_at"), OFFSETS, LABELS, st.none() | OFFSETS),
        st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=40)),
        st.tuples(st.just("step")),
        st.tuples(st.just("run_until"), OFFSETS),
    ),
    max_size=60,
)


class TestEngineProperties:
    """Random mixes of scheduling, cancelling and running, checked
    against a reference: events fire in ``(time, seq)`` order, exactly
    the ones not cancelled before firing, and the counters equal a
    scan of the queue after every operation."""

    @given(OPERATIONS)
    @settings(max_examples=300, deadline=None)
    def test_fired_order_and_counters_match_a_reference(self, operations):
        sim = Simulator()
        handles = []  # every event scheduled, in scheduling order
        fired = []  # handles, in firing order
        done = set()  # ids of handles fired, or cancelled before firing
        cancelled = set()  # ids of handles cancelled before firing

        def schedule(kind, offset, label, child):
            """Schedule one event; if *child* is set, firing it schedules
            a follow-up *child* seconds later."""
            box = []

            def action():
                fired.append(box[0])
                done.add(id(box[0]))
                if child is not None:
                    schedule("schedule", child, label, None)

            if kind == "schedule":
                box.append(sim.schedule(offset, action, label=label))
            else:
                box.append(sim.schedule_at(sim.now + offset, action, label=label))
            handles.append(box[0])

        clock = [sim.now]
        for operation in operations:
            kind = operation[0]
            pending = [h for h in handles if id(h) not in done]
            if kind in ("schedule", "schedule_at"):
                schedule(*operation)
            elif kind == "cancel" and handles:
                handle = handles[operation[1] % len(handles)]
                if id(handle) not in done:
                    cancelled.add(id(handle))
                    done.add(id(handle))
                handle.cancel()
            elif kind == "step":
                assert sim.step() is bool(pending)
            elif kind == "run_until":
                sim.run_until(sim.now + operation[1])
            clock.append(sim.now)
            pending = [h for h in handles if id(h) not in done]
            assert sim.events_pending == len(pending)
            assert sim.foreground_pending == scan_foreground(sim)
            assert sim.foreground_pending == sum(
                not h.label.startswith(BACKGROUND_LABELS) for h in pending
            )
        sim.run()
        clock.append(sim.now)
        assert clock == sorted(clock)
        assert sim.events_pending == sim.foreground_pending == 0
        expected = sorted(
            (h for h in handles if id(h) not in cancelled),
            key=lambda h: (h.time, h.seq),
        )
        assert [(h.time, h.seq) for h in fired] == [
            (h.time, h.seq) for h in expected
        ]


class TestPeriodicTask:
    def test_fires_every_period(self):
        sim = Simulator()
        ticks = []
        PeriodicTask(sim, 2.0, lambda: ticks.append(sim.now))
        sim.run_until(7.0)
        assert ticks == [2.0, 4.0, 6.0]

    def test_stop_halts_future_firings(self):
        sim = Simulator()
        ticks = []
        task = PeriodicTask(sim, 1.0, lambda: ticks.append(sim.now))
        sim.run_until(2.5)
        task.stop()
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0]

    def test_stop_during_callback(self):
        sim = Simulator()
        ticks = []
        task = None

        def tick():
            ticks.append(sim.now)
            if len(ticks) == 2:
                task.stop()

        task = PeriodicTask(sim, 1.0, tick)
        sim.run_until(10.0)
        assert ticks == [1.0, 2.0]

    def test_non_positive_period_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            PeriodicTask(sim, 0.0, lambda: None)


class TestEventRepr:
    def test_repr_shows_time_and_label(self):
        event = Event(time=1.5, seq=3, action=lambda: None, label="tick")
        assert "tick" in repr(event)
        assert "1.5" in repr(event)

    def test_repr_marks_cancelled(self):
        event = Event(time=1.5, seq=3, action=lambda: None)
        event.cancel()
        assert "cancelled" in repr(event)
