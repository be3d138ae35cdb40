"""RelayStore mechanics."""

import pytest
from hypothesis import given, strategies as st

from repro.core.buffer import BufferFullError, RelayStore
from tests.helpers import stored


class TestCapacity:
    def test_rejects_zero_capacity(self):
        with pytest.raises(ValueError):
            RelayStore(0)

    def test_add_until_full(self):
        store = RelayStore(2)
        store.add(stored(1))
        store.add(stored(2))
        assert store.is_full
        assert len(store) == store.capacity
        with pytest.raises(BufferFullError):
            store.add(stored(3))

    def test_duplicate_rejected(self):
        store = RelayStore(3)
        store.add(stored(1))
        with pytest.raises(ValueError):
            store.add(stored(1))

    def test_remove_frees_slot(self):
        store = RelayStore(1)
        sb = stored(1)
        store.add(sb)
        assert store.remove(sb.bid) is sb
        assert len(store) == 0 and not store.is_full
        with pytest.raises(KeyError):
            store.remove(sb.bid)


class TestQueries:
    def test_contains_get_ids_values(self):
        store = RelayStore(3)
        a, b = stored(1), stored(2)
        store.add(a)
        store.add(b)
        assert a.bid in store
        assert store.get(a.bid) is a
        assert store.get(stored(9).bid) is None
        assert set(store.entries_view()) == {a.bid, b.bid}
        assert store.values() == [a, b]  # insertion order
        assert list(iter(store)) == [a, b]


class TestMaxEcEntry:
    def test_picks_highest_ec(self):
        store = RelayStore(4)
        store.add(stored(1, ec=2))
        store.add(stored(2, ec=7))
        store.add(stored(3, ec=5))
        assert store.max_ec_entry().bid.seq == 2

    def test_tie_broken_by_older_stored_at(self):
        store = RelayStore(4)
        store.add(stored(1, ec=5, stored_at=100.0))
        store.add(stored(2, ec=5, stored_at=10.0))
        assert store.max_ec_entry().bid.seq == 2

    def test_min_ec_filters(self):
        store = RelayStore(4)
        store.add(stored(1, ec=0))
        store.add(stored(2, ec=1))
        assert store.max_ec_entry(min_ec=2) is None
        assert store.max_ec_entry(min_ec=1).bid.seq == 2

    def test_exclude(self):
        store = RelayStore(4)
        store.add(stored(1, ec=9))
        assert store.max_ec_entry(exclude=stored(1).bid) is None

    def test_empty_store(self):
        assert RelayStore(2).max_ec_entry() is None


class TestStoreProperties:
    @given(
        st.lists(
            st.tuples(st.integers(1, 30), st.booleans()),
            max_size=100,
        )
    )
    def test_never_exceeds_capacity(self, ops):
        """Random add/remove interleavings keep the capacity invariant."""
        store = RelayStore(5)
        model: dict[int, bool] = {}
        for seq, is_add in ops:
            sb = stored(seq)
            if is_add:
                if len(model) >= 5 or seq in model:
                    with pytest.raises((BufferFullError, ValueError)):
                        store.add(sb)
                else:
                    store.add(sb)
                    model[seq] = True
            else:
                if seq in model:
                    store.remove(sb.bid)
                    del model[seq]
                else:
                    with pytest.raises(KeyError):
                        store.remove(sb.bid)
            assert len(store) == len(model) <= 5
        assert {bid.seq for bid in store.entries_view()} == set(model)
