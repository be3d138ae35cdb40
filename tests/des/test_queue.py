"""The calendar's heap: ordering, FIFO ties, cancellation, compaction."""

import pytest
from hypothesis import given, strategies as st

from repro.des.engine import Engine


def _noop():
    return None


class _Logged(Engine):
    """An engine carrying the log its test events append to."""

    __slots__ = ("log",)


def _logged():
    eng = _Logged()
    eng.log = []
    return eng


class TestPushPop:
    def test_pops_in_time_order(self):
        eng = _logged()
        for t in [5.0, 1.0, 3.0]:
            eng.at(t, eng.log.append, t)
        eng.run()
        assert eng.log == [1.0, 3.0, 5.0]

    def test_same_time_pops_in_insertion_order(self):
        eng = _logged()
        entries = [eng.at(2.0, eng.log.append, i) for i in range(5)]
        eng.run()
        assert eng.log == [0, 1, 2, 3, 4]
        assert not any(e[4] for e in entries)

    def test_pop_empty_returns_none(self):
        eng = Engine()
        assert eng.run() is None
        assert eng.events_fired == 0
        assert eng.now == 0.0  # an infinite horizon leaves the clock alone

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("-inf")])
    def test_rejects_bad_times(self, bad):
        with pytest.raises(ValueError, match="event time"):
            Engine().at(bad, _noop)

    def test_seq_monotonic(self):
        eng = Engine()
        s0 = eng.seq
        eng.at(0.0, _noop)
        assert eng.seq == s0 + 1


class TestCancellation:
    def test_cancelled_event_skipped_on_pop(self):
        eng = _logged()
        dead = eng.at(1.0, eng.log.append, "dead")
        eng.at(2.0, eng.log.append, "live")
        eng.cancel(dead)
        eng.run()
        assert eng.log == ["live"]
        assert eng.events_fired == 1
        assert eng.dead == 0

    def test_cancelled_event_skipped_on_peek(self):
        # a cancelled head at the horizon is skimmed, not fired, and does
        # not hold back the live entry behind it at that instant
        eng = _logged()
        dead = eng.at(1.0, eng.log.append, "dead")
        eng.at(1.0, eng.log.append, "live")
        eng.cancel(dead)
        eng.run(until=1.0)
        assert eng.log == ["live"]
        assert eng.dead == 0 and eng.heap == []

    def test_compaction_keeps_live_events(self):
        eng = _logged()
        for i in range(10):
            eng.at(float(1000 + i), eng.log.append, f"live{i}")
        dead = [eng.at(float(i), _noop) for i in range(200)]
        heap = eng.heap
        for entry in dead:
            eng.cancel(entry)
        assert len(eng.heap) < 210  # compaction ran ...
        assert eng.heap is heap  # ... in place
        eng.run()
        assert eng.log == [f"live{i}" for i in range(10)]

    def test_compaction_in_place_during_a_run(self):
        # an event cancels most of the heap: the run loop, which holds the
        # heap list across events, sees the compacted entries
        eng = _logged()
        doomed = [eng.at(float(10 + i), eng.log.append, "dead") for i in range(100)]
        for i in range(5):
            eng.at(float(500 + i), eng.log.append, i)

        def purge():
            for entry in doomed:
                eng.cancel(entry)
            assert len(eng.heap) < 60

        eng.at(1.0, purge)
        heap = eng.heap
        eng.run()
        assert eng.heap is heap
        assert eng.log == [0, 1, 2, 3, 4]
        assert eng.events_fired == 6


class TestQueueProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), max_size=200))
    def test_pops_sorted_by_key(self, times):
        eng = _logged()
        for t in times:
            # eng.seq is the seq this push receives
            eng.at(t, eng.log.append, (t, eng.seq))
        eng.run()
        assert eng.log == sorted(eng.log)
        assert len(eng.log) == len(times)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0, max_value=1e3, allow_nan=False),
                st.booleans(),
            ),
            max_size=200,
        )
    )
    def test_cancellation_subset(self, items):
        eng = _logged()
        expected = []
        for idx, (t, keep) in enumerate(items):
            entry = eng.at(t, eng.log.append, (t, idx))
            if keep:
                expected.append((t, idx))
            else:
                eng.cancel(entry)
        eng.run()
        assert eng.log == sorted(expected)


class TestQueueInvariants:
    """Dead-count consistency across cancellation and compaction."""

    def test_dead_count_consistent_after_compaction(self):
        eng = Engine()
        live = [eng.at(float(2_000 + i), _noop) for i in range(8)]
        dead = [eng.at(float(i), _noop) for i in range(300)]
        for entry in dead:
            eng.cancel(entry)
        # compaction ran at least once (the heap shrank well below the 308
        # entries pushed); whatever dead weight re-accumulated afterwards,
        # the dead count must exactly match the dead entries in the heap
        assert len(eng.heap) < 100
        assert eng.dead == sum(1 for e in eng.heap if not e[4])
        assert sum(1 for e in eng.heap if e[4]) == 8
        eng.run()
        assert eng.dead == 0 and eng.heap == []
        assert eng.events_fired == 8
        assert not any(e[4] for e in live)

    def test_double_cancel_does_not_corrupt_dead_count(self):
        eng = _logged()
        entry = eng.at(1.0, _noop)
        eng.at(2.0, eng.log.append, 2.0)
        assert eng.cancel(entry) is True
        assert eng.cancel(entry) is False  # second cancel is refused
        assert eng.dead == 1
        eng.run()
        assert eng.log == [2.0]
        assert eng.dead == 0
