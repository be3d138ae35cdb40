"""Calendar entries: ``(time, seq)`` order and cancellation semantics."""

import pytest

from repro.des.engine import Engine


def _noop():
    return None


class TestEventOrdering:
    def test_orders_by_time_first(self):
        eng = Engine()
        late = eng.at(2.0, _noop)
        early = eng.at(1.0, _noop)
        assert early[1] > late[1]  # scheduled second ...
        assert early < late  # ... yet ordered first

    def test_orders_by_seq_as_final_tiebreak(self):
        eng = Engine()
        first = eng.at(1.0, _noop)
        second = eng.at(1.0, _noop)
        assert first[1] + 1 == second[1]
        assert first < second

    def test_sort_key_matches_lt(self):
        eng = Engine()
        a, b = eng.at(3.0, _noop), eng.at(3.0, _noop)
        # seqs are unique, so list comparison never reaches the action
        assert (a < b) == (a[:2] < b[:2])
        assert (b < a) == (b[:2] < a[:2])

    def test_sorting_a_list_is_stable_total_order(self):
        eng = Engine()
        entries = [eng.at(t, _noop) for t in (5.0, 1.0, 1.0, 1.0, 0.0)]
        ordered = sorted(entries)
        keys = [e[:2] for e in ordered]
        assert keys == sorted(keys)
        assert [e[1] for e in ordered] == [4, 1, 2, 3, 0]


class TestEventHandle:
    def test_alive_initially(self):
        entry = Engine().at(1.0, _noop)
        assert entry[4] is True

    def test_cancel_returns_true_once(self):
        eng = Engine()
        entry = eng.at(1.0, _noop)
        assert eng.cancel(entry) is True
        assert eng.cancel(entry) is False
        assert entry[4] is False
        assert eng.dead == 1

    def test_cancel_after_fired_is_noop(self):
        eng = Engine()
        entry = eng.at(1.0, _noop)
        eng.run()
        assert entry[4] is False  # marked dead when it fired
        assert eng.cancel(entry) is False
        assert eng.dead == 0

    def test_cancelling_the_firing_entry_is_refused(self):
        # an expiry whose handler removes the copy cancels its own entry
        eng = Engine()
        refused = []
        entry = eng.at(1.0, lambda: refused.append(eng.cancel(entry)))
        eng.run()
        assert refused == [False]
        assert eng.dead == 0


class TestEventValidation:
    @pytest.mark.parametrize("time", [0.0, 1.5, 1e9])
    def test_times_allowed(self, time):
        eng = Engine()
        assert eng.at(time, _noop)[0] == time
        eng.run()
        assert eng.now == time
