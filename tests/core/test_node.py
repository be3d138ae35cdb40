"""Node model and encounter history."""

import pytest

from repro.core.node import Node
from repro.core.protocols.ttl import EncounterHistory
from tests.helpers import bundle


class TestEncounterHistory:
    def test_first_encounter_sets_no_interval(self):
        h = EncounterHistory()
        h.note_encounter(100.0)
        assert h.last_interval is None
        assert h.encounter_count == 1

    def test_interval_between_rendezvous(self):
        h = EncounterHistory()
        h.note_encounter(100.0)
        h.note_encounter(700.0)
        assert h.last_interval == 600.0
        h.note_encounter(1_000.0)
        assert h.last_interval == 300.0

    def test_burst_debounced(self):
        """Encounters within the rendezvous gap are one rendezvous."""
        h = EncounterHistory(min_rendezvous_gap=120.0)
        h.note_encounter(1_000.0)
        h.note_encounter(1_005.0)  # burst: 3 devices at one spot
        h.note_encounter(1_050.0)
        assert h.last_interval is None  # still the first rendezvous
        h.note_encounter(2_000.0)
        assert h.last_interval == 1_000.0  # measured from burst start

    def test_simultaneous_encounters_no_zero_interval(self):
        h = EncounterHistory()
        h.note_encounter(500.0)
        h.note_encounter(500.0)
        assert h.last_interval is None

    def test_count_counts_everything(self):
        h = EncounterHistory()
        for t in (0.0, 1.0, 2.0):
            h.note_encounter(t)
        assert h.encounter_count == 3


class TestNodeStores:
    def test_add_origin_and_queries(self):
        node = Node(0, buffer_capacity=4)
        b = bundle(1, source=0, destination=1)
        sb = node.add_origin(b, now=5.0)
        assert sb.is_origin
        assert node.has_copy(b.bid)
        assert node.get_copy(b.bid) is sb
        assert node.sendable() == [sb]

    def test_add_origin_validates_source(self):
        node = Node(0, buffer_capacity=4)
        with pytest.raises(ValueError, match="originate"):
            node.add_origin(bundle(1, source=2, destination=1), now=0.0)

    def test_add_origin_rejects_duplicates(self):
        node = Node(0, buffer_capacity=4)
        node.add_origin(bundle(1, source=0), now=0.0)
        with pytest.raises(ValueError, match="already"):
            node.add_origin(bundle(1, source=0), now=0.0)

    def test_remove_copy_checks_both_stores(self):
        node = Node(0, buffer_capacity=4)
        origin = node.add_origin(bundle(1, source=0), now=0.0)
        assert node.remove_copy(origin.bid) is origin
        with pytest.raises(KeyError):
            node.remove_copy(origin.bid)

    def test_delivered_tracking(self):
        node = Node(1, buffer_capacity=4)
        b = bundle(1, source=0, destination=1)
        node.mark_delivered(b.bid, now=9.0)
        assert node.has_copy(b.bid)  # delivered counts as a copy
        assert node.get_copy(b.bid) is None  # ...but not a live one
        with pytest.raises(ValueError, match="twice"):
            node.mark_delivered(b.bid, now=10.0)

    def test_sendable_orders_origin_first(self):
        node = Node(0, buffer_capacity=4)
        o = node.add_origin(bundle(1, source=0), now=0.0)
        from tests.helpers import stored

        r = stored(2, stored_at=1.0)
        node.relay.add(r)
        assert node.sendable() == [o, r]

    def test_repr_mentions_stores(self):
        assert "relay=0/4" in repr(Node(3, buffer_capacity=4))
