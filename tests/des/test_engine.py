"""Engine: scheduling, clock, stop conditions."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.des.engine import Engine, StopCondition


class TestScheduling:
    def test_runs_events_in_order(self):
        eng = Engine()
        log = []
        eng.at(3.0, lambda: log.append("c"))
        eng.at(1.0, lambda: log.append("a"))
        eng.at(2.0, lambda: log.append("b"))
        assert eng.run() is StopCondition.EXHAUSTED
        assert log == ["a", "b", "c"]

    def test_clock_tracks_event_times(self):
        eng = Engine()
        seen = []
        eng.at(5.0, lambda: seen.append(eng.now))
        eng.at(10.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [5.0, 10.0]
        assert eng.now == 10.0

    def test_after_is_relative_to_now(self):
        eng = Engine()
        seen = []
        eng.at(10.0, lambda: eng.after(5.0, lambda: seen.append(eng.now)))
        eng.run()
        assert seen == [15.0]

    def test_cannot_schedule_in_past(self):
        eng = Engine()
        eng.at(10.0, lambda: None)
        eng.run()
        with pytest.raises(ValueError):
            eng.at(5.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Engine().after(-1.0, lambda: None)

    def test_bad_start_time_rejected(self):
        with pytest.raises(ValueError):
            Engine(start_time=-1.0)
        with pytest.raises(ValueError):
            Engine(start_time=math.nan)

    def test_events_scheduled_during_run_fire(self):
        eng = Engine()
        log = []
        eng.at(1.0, lambda: eng.at(2.0, lambda: log.append("child")))
        eng.run()
        assert log == ["child"]

    def test_events_fired_counter(self):
        eng = Engine()
        for t in range(5):
            eng.at(float(t), lambda: None)
        eng.run()
        assert eng.events_fired == 5

    def test_pending_counts_live_events(self):
        eng = Engine()
        h = eng.at(1.0, lambda: None)
        eng.at(2.0, lambda: None)
        assert eng.pending == 2
        eng.cancel(h)
        assert eng.pending == 1


class TestStopConditions:
    def test_horizon_stops_and_advances_clock(self):
        eng = Engine()
        log = []
        eng.at(1.0, lambda: log.append(1))
        eng.at(100.0, lambda: log.append(100))
        assert eng.run(until=50.0) is StopCondition.HORIZON
        assert log == [1]
        assert eng.now == 50.0
        # resuming runs the remaining event
        assert eng.run() is StopCondition.EXHAUSTED
        assert log == [1, 100]

    def test_exhausted_advances_to_finite_horizon(self):
        eng = Engine()
        eng.at(1.0, lambda: None)
        assert eng.run(until=10.0) is StopCondition.EXHAUSTED
        assert eng.now == 10.0

    def test_halt_from_within_event(self):
        eng = Engine()
        log = []
        eng.at(1.0, lambda: (log.append(1), eng.halt()))
        eng.at(2.0, lambda: log.append(2))
        assert eng.run() is StopCondition.HALTED
        assert log == [1]
        # a fresh run resumes
        assert eng.run() is StopCondition.EXHAUSTED
        assert log == [1, 2]

    def test_event_at_horizon_boundary_fires(self):
        eng = Engine()
        log = []
        eng.at(50.0, lambda: log.append("edge"))
        eng.run(until=50.0)
        assert log == ["edge"]


class TestCancellationAndStep:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        log = []
        h = eng.at(1.0, lambda: log.append("x"))
        assert eng.cancel(h) is True
        assert eng.cancel(h) is False
        eng.run()
        assert log == []

    def test_step_fires_exactly_one(self):
        eng = Engine()
        log = []
        eng.at(1.0, lambda: log.append(1))
        eng.at(2.0, lambda: log.append(2))
        assert eng.step() is True
        assert log == [1]
        assert eng.step() is True
        assert eng.step() is False


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e5, allow_nan=False), max_size=100))
    def test_fires_in_nondecreasing_time(self, times):
        eng = Engine()
        seen = []
        for t in times:
            eng.at(t, lambda t=t: seen.append(eng.now))
        eng.run()
        assert seen == sorted(seen)
        assert len(seen) == len(times)
