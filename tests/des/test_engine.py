"""Engine: scheduling, clock, horizon, halt, and the stream rule."""

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
        eng.run(times=[0.5, 1.5], action=lambda k: None)
        assert eng.events_fired == 7  # heap entries and stream items alike


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
        eng.at(50.0, lambda: log.append("edge"))
        eng.run(until=50.0, times=[50.0, 50.5], action=log.append)
        assert log == ["edge", 0]
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


class TestStreamRule:
    """Stream item ``k`` takes seq ``base + k`` (see ``repro.des.engine``)."""

    def test_pre_run_event_fires_before_a_stream_item_at_its_instant(self):
        eng = Engine()
        log = []
        eng.at(5.0, log.append, "pre-run")
        eng.run(times=[5.0], action=log.append)
        assert log == ["pre-run", 0]

    def test_event_pushed_during_the_run_fires_after_a_stream_item(self):
        # a transfer completion landing exactly on the next contact start
        eng = Engine()
        log = []

        def item(k):
            log.append(k)
            if k == 0:
                eng.at(5.0, log.append, "pushed")

        eng.run(times=[1.0, 5.0, 5.0], action=item)
        assert log == [0, 1, 2, "pushed"]

    def test_stream_reserves_its_seq_block(self):
        eng = Engine()
        eng.at(1.0, lambda: None)
        seqs = []
        eng.run(
            times=[2.0, 3.0, 4.0],
            action=lambda k: seqs.append(eng.at(9.0, lambda: None)[1]),
        )
        # base 1, items 1..3, so pushes during the run start at 4
        assert seqs == [4, 5, 6]
        assert eng.seq == 7

    def test_items_after_until_do_not_fire(self):
        eng = Engine()
        log = []
        eng.run(until=2.0, times=[1.0, 2.0, 2.5], action=log.append)
        assert log == [0, 1]
        assert eng.events_fired == 2
        assert eng.now == 2.0

    def test_halt_from_a_stream_item(self):
        eng = Engine()
        log = []

        def item(k):
            log.append(k)
            if k == 1:
                eng.halt()

        eng.at(3.0, log.append, "later")
        eng.run(until=10.0, times=[1.0, 2.0, 2.0], action=item)
        assert log == [0, 1]
        assert eng.halted and eng.now == 2.0


#: per occurrence: fire time and child-push delays (0.0 lands on the
#: same instant, the hardest tie)
_occurrences = st.lists(
    st.tuples(
        st.sampled_from([0.0, 1.0, 2.0, 3.0]),
        st.lists(st.sampled_from([0.0, 1.0, 2.5]), max_size=2),
    ),
    max_size=12,
)


def _log_run(pre_run, stream, as_heap):
    """Fire ``pre_run`` heap events and the ``stream``; log labels in order."""
    eng = Engine()
    log = []

    def fire(label, delays):
        log.append(label)
        for j, delay in enumerate(delays):
            eng.at(eng.now + delay, fire, (label, j), ())

    for i, (t, delays) in enumerate(pre_run):
        eng.at(t, fire, ("pre", i), delays)
    stream = sorted(stream, key=lambda item: item[0])
    times = [t for t, _ in stream]
    if as_heap:
        for k, (t, delays) in enumerate(stream):
            eng.at(t, fire, ("item", k), delays)
        eng.run(until=3.0)
    else:
        eng.run(3.0, times, lambda k: fire(("item", k), stream[k][1]))
    return log, eng.events_fired, eng.now


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

    @given(pre_run=_occurrences, stream=_occurrences)
    def test_stream_merge_equals_one_heap_event_per_item(self, pre_run, stream):
        assert _log_run(pre_run, stream, as_heap=False) == _log_run(
            pre_run, stream, as_heap=True
        )
