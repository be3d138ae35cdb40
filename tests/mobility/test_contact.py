"""Contact and ContactTrace semantics."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.mobility.contact import Contact, ContactTrace


class TestContact:
    def test_normalises_node_order(self):
        c = Contact(start=0.0, end=1.0, a=5, b=2)
        assert (c.a, c.b) == (2, 5)
        assert c.pair == (2, 5)

    def test_rejects_self_contact(self):
        with pytest.raises(ValueError):
            Contact(start=0.0, end=1.0, a=3, b=3)

    @pytest.mark.parametrize(
        "start,end",
        [
            (5.0, 5.0),
            (5.0, 4.0),
            (-1.0, 3.0),
            (0.0, math.inf),
            (math.nan, 5.0),
            (0.0, math.nan),
            (math.inf, math.inf),
        ],
    )
    def test_rejects_bad_window(self, start, end):
        with pytest.raises(ValueError, match="start < end"):
            Contact(start=start, end=end, a=0, b=1)

    def test_duration(self):
        assert Contact(start=10.0, end=35.0, a=0, b=1).duration == 25.0

    def test_ordering_by_start(self):
        early = Contact(start=1.0, end=2.0, a=0, b=1)
        late = Contact(start=3.0, end=4.0, a=0, b=1)
        assert early < late


class TestContactTrace:
    def _trace(self):
        return ContactTrace.from_tuples(
            [(10.0, 20.0, 0, 1), (5.0, 8.0, 1, 2), (30.0, 45.0, 0, 2)],
            3,
        )

    def test_sorted_on_construction(self):
        t = self._trace()
        assert t.contacts == sorted(t.contacts)
        assert t[0].start == 5.0

    def test_horizon_defaults_to_last_end(self):
        assert self._trace().horizon == 45.0

    def test_explicit_horizon_validated(self):
        for horizon, match in [(5.0, "precedes"), (math.nan, "finite"), (math.inf, "finite")]:
            with pytest.raises(ValueError, match=match):
                ContactTrace.from_tuples([(0.0, 10.0, 0, 1)], 2, horizon=horizon)
            with pytest.raises(ValueError, match=match):
                ContactTrace.from_arrays(
                    [0.0], [10.0], [0], [1], num_nodes=2, horizon=horizon
                )

    def test_rejects_out_of_range_nodes(self):
        with pytest.raises(ValueError):
            ContactTrace.from_tuples([(0.0, 1.0, 0, 5)], 3)

    def test_rejects_tiny_population(self):
        with pytest.raises(ValueError):
            ContactTrace([], 1)

    def test_container_protocol(self):
        t = self._trace()
        assert len(t) == 3
        assert [c.start for c in t] == [5.0, 10.0, 30.0]
        assert t[1].start == 10.0

    def test_indexed_trace_still_compares_equal(self):
        a, b = self._trace(), self._trace()
        a.contact_arrays()
        assert a == b  # the lazy column cache is excluded from equality

    def test_coalesced_fuses_touching_windows(self):
        t = ContactTrace.from_tuples(
            [(0.0, 10.0, 0, 1), (10.0, 20.0, 0, 1), (25.0, 30.0, 0, 1)], 2
        )
        fused = t.coalesced()
        assert len(fused) == 2
        assert fused[0].end == 20.0

    def test_coalesced_fuses_overlapping_windows(self):
        t = ContactTrace.from_tuples([(0.0, 10.0, 0, 1), (5.0, 20.0, 0, 1)], 2)
        assert len(t.coalesced()) == 1

    def test_validate_disjoint_pairs(self):
        good = self._trace()
        good.validate_disjoint_pairs()
        bad = ContactTrace.from_tuples([(0.0, 10.0, 0, 1), (5.0, 20.0, 0, 1)], 2)
        with pytest.raises(ValueError):
            bad.validate_disjoint_pairs()


class TestHelpers:
    @given(st.lists(st.tuples(
        st.floats(min_value=0, max_value=1e4, allow_nan=False),
        st.floats(min_value=0.1, max_value=1e3, allow_nan=False),
    ), min_size=1, max_size=50))
    def test_coalesce_idempotent(self, rows):
        contacts = [(s, s + d, 0, 1) for s, d in rows]
        trace = ContactTrace.from_tuples(contacts, 2)
        once = trace.coalesced()
        twice = once.coalesced()
        assert [c.pair + (c.start, c.end) for c in once] == [
            c.pair + (c.start, c.end) for c in twice
        ]
        once.validate_disjoint_pairs()
