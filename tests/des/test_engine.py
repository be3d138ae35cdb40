"""Engine: scheduling, clock, horizon and halt."""

import pytest
from hypothesis import given, strategies as st

from repro.des.engine import Engine


class TestScheduling:
    def test_runs_events_in_order(self):
        eng = Engine()
        log = []
        eng.at(3.0, lambda: log.append("c"))
        eng.at(1.0, lambda: log.append("a"))
        eng.at(2.0, lambda: log.append("b"))
        eng.run()
        assert log == ["a", "b", "c"]

    def test_clock_tracks_event_times(self):
        eng = Engine()
        seen = []
        eng.at(5.0, lambda: seen.append(eng.now))
        eng.at(10.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [5.0, 10.0]
        assert eng.now == 10.0

    def test_cannot_schedule_in_past(self):
        eng = Engine()
        eng.at(10.0, lambda: None)
        eng.run()
        with pytest.raises(ValueError, match="event time"):
            eng.at(5.0, lambda: None)
        eng.at(10.0, lambda: None)  # the current instant is allowed

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
        eng.cancel(eng.at(0.5, lambda: None))
        eng.run()
        assert eng.events_fired == 5  # a cancelled entry never fires


class TestStopConditions:
    def test_horizon_stops_and_advances_clock(self):
        eng = Engine()
        log = []
        eng.at(1.0, lambda: log.append(1))
        eng.at(100.0, lambda: log.append(100))
        eng.run(until=50.0)
        assert log == [1]
        assert eng.now == 50.0
        assert not eng.halted
        # resuming runs the remaining event
        eng.run()
        assert log == [1, 100]

    def test_exhausted_advances_to_finite_horizon(self):
        eng = Engine()
        eng.at(1.0, lambda: None)
        eng.run(until=10.0)
        assert eng.now == 10.0

    def test_halt_from_within_event(self):
        eng = Engine()
        log = []
        eng.at(1.0, lambda: (log.append(1), eng.halt()))
        eng.at(2.0, lambda: log.append(2))
        eng.run(until=10.0)
        assert log == [1]
        assert eng.halted
        assert eng.now == 1.0  # the halting event's time, not the horizon
        # a fresh run resumes
        eng.run()
        assert log == [1, 2]
        assert not eng.halted

    def test_event_at_horizon_boundary_fires(self):
        eng = Engine()
        log = []
        eng.at(50.0, log.append, "edge")
        eng.at(50.5, log.append, "past")
        eng.run(until=50.0)
        assert log == ["edge"]
        assert eng.now == 50.0


class TestCancellationAndStep:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        log = []
        h = eng.at(1.0, lambda: log.append("x"))
        assert eng.cancel(h) is True
        assert eng.cancel(h) is False
        eng.run()
        assert log == []
        assert eng.events_fired == 0


class TestEngineProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e5, allow_nan=False), max_size=100))
    def test_fires_in_nondecreasing_time(self, times):
        eng = Engine()
        seen = []
        for t in times:
            eng.at(t, lambda: seen.append(eng.now))
        eng.run()
        assert seen == sorted(seen)
        assert len(seen) == len(times)
