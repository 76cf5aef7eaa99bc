"""Simulator loop: scheduling APIs, horizon, slicing, stop."""

from __future__ import annotations

import pytest

from repro.engine.simulator import Simulator
from repro.errors import SchedulingError, SimulationError


class TestScheduling:
    def test_schedule_at_and_run(self):
        sim = Simulator(end_time=100.0)
        fired = []
        sim.schedule_at(5.0, lambda: fired.append(sim.now))
        sim.schedule_at(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0, 5.0]
        assert sim.now == 100.0

    def test_schedule_in_uses_relative_delay(self):
        sim = Simulator(end_time=100.0)
        fired = []
        sim.schedule_at(10.0, lambda: sim.schedule_in(5.0, lambda: fired.append(sim.now)))
        sim.run()
        assert fired == [15.0]

    def test_rejects_past_scheduling(self):
        sim = Simulator(end_time=100.0)
        sim.schedule_at(10.0, lambda: None)
        sim.run()
        with pytest.raises(SchedulingError):
            sim.schedule_at(5.0, lambda: None)
        with pytest.raises(SchedulingError):
            sim.schedule_in(-1.0, lambda: None)

    def test_rejects_nonpositive_end_time(self):
        with pytest.raises(SchedulingError):
            Simulator(end_time=0.0)

    def test_events_past_horizon_do_not_fire(self):
        sim = Simulator(end_time=10.0)
        fired = []
        sim.schedule_at(20.0, lambda: fired.append("late"))
        sim.run()
        assert fired == []
        assert sim.now == 10.0


class TestTime:
    def test_starts_at_zero(self):
        assert Simulator(end_time=10.0).now == 0.0

    def test_same_time_event_is_allowed(self):
        sim = Simulator(end_time=100.0)
        fired = []
        sim.schedule_at(10.0, lambda: sim.schedule_at(10.0, lambda: fired.append(sim.now)))
        sim.run(until=10.0)
        assert fired == [10.0]
        assert sim.now == 10.0

    def test_backwards_event_raises(self):
        # schedule_at refuses the past, so plant the event in the queue
        # directly: run() itself must refuse to move time backwards.
        sim = Simulator(end_time=100.0)
        sim.run(until=5.0)
        sim.queue.schedule(4.999, lambda: None)
        with pytest.raises(SimulationError):
            sim.run()


class TestRecurring:
    def test_schedule_every_fires_until_horizon(self):
        sim = Simulator(end_time=10.0)
        fired = []
        sim.schedule_every(2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [0.0, 2.0, 4.0, 6.0, 8.0, 10.0]

    def test_schedule_every_with_start_offset(self):
        sim = Simulator(end_time=10.0)
        fired = []
        sim.schedule_every(3.0, lambda: fired.append(sim.now), start=1.0)
        sim.run()
        assert fired == [1.0, 4.0, 7.0, 10.0]

    def test_rejects_nonpositive_interval(self):
        sim = Simulator(end_time=10.0)
        with pytest.raises(SchedulingError):
            sim.schedule_every(0.0, lambda: None)


class TestRunControl:
    def test_run_in_slices(self):
        sim = Simulator(end_time=100.0)
        fired = []
        for t in (10.0, 30.0, 60.0):
            sim.schedule_at(t, lambda t=t: fired.append(t))
        sim.run(until=20.0)
        assert fired == [10.0]
        assert sim.now == 20.0
        sim.run(until=70.0)
        assert fired == [10.0, 30.0, 60.0]

    def test_stop_halts_after_current_event(self):
        sim = Simulator(end_time=100.0)
        fired = []
        sim.schedule_at(1.0, lambda: (fired.append(1), sim.stop()))
        sim.schedule_at(2.0, lambda: fired.append(2))
        sim.run()
        assert fired == [1]
        # A subsequent run() resumes.
        sim.run()
        assert fired == [1, 2]

    def test_stop_freezes_clock_mid_run(self):
        # stop() must leave the clock at the stopping event's time, not
        # advance it to the horizon — crash-safe sweeps rely on sim.now
        # reflecting how far a halted run actually got.
        sim = Simulator(end_time=100.0)
        sim.schedule_at(7.0, sim.stop)
        sim.schedule_at(50.0, lambda: None)
        sim.run()
        assert sim.now == 7.0
        sim.run()
        assert sim.now == 100.0

    def test_events_processed_counter(self):
        sim = Simulator(end_time=10.0)
        for t in (1.0, 2.0, 3.0):
            sim.schedule_at(t, lambda: None)
        sim.run()
        assert sim.events_processed == 3

    def test_cancelled_event_not_processed(self):
        sim = Simulator(end_time=10.0)
        event = sim.schedule_at(5.0, lambda: None)
        sim.queue.cancel(event)
        sim.run()
        assert sim.events_processed == 0

    def test_events_scheduled_during_run_fire_same_run(self):
        sim = Simulator(end_time=10.0)
        fired = []
        sim.schedule_at(1.0, lambda: sim.schedule_at(1.0, lambda: fired.append("nested")))
        sim.run()
        assert fired == ["nested"]


class TestRecurringFailure:
    def test_raising_callback_stops_its_recurrence(self):
        sim = Simulator(end_time=10.0)
        fired = []

        def boom():
            fired.append(sim.now)
            raise RuntimeError("tick exploded")

        sim.schedule_every(2.0, boom)
        with pytest.raises(RuntimeError):
            sim.run()
        # The failure propagated out of run(); the event was not re-armed.
        assert fired == [0.0]
        sim.run()  # resumable; nothing further fires
        assert fired == [0.0]
