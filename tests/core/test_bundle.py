"""Bundle primitives."""

import math

import pytest

from repro.core.bundle import NO_EXPIRY, Bundle, BundleId, StoredBundle, make_flow_bundles


class TestBundleId:
    def test_validation(self):
        with pytest.raises(ValueError):
            BundleId(flow=0, seq=0)
        with pytest.raises(ValueError):
            BundleId(flow=-1, seq=1)

    def test_ordering_and_str(self):
        assert BundleId(0, 1) < BundleId(0, 2) < BundleId(1, 1)
        assert str(BundleId(2, 30)) == "2.30"

    def test_hashable(self):
        assert len({BundleId(0, 1), BundleId(0, 1), BundleId(0, 2)}) == 2


class TestBundle:
    def test_rejects_self_flow(self):
        with pytest.raises(ValueError):
            Bundle(bid=BundleId(0, 1), source=3, destination=3, created_at=0.0)

    def test_rejects_negative_creation(self):
        with pytest.raises(ValueError):
            Bundle(bid=BundleId(0, 1), source=0, destination=1, created_at=-1.0)


class TestStoredBundle:
    def _sb(self, expiry=NO_EXPIRY):
        b = Bundle(bid=BundleId(0, 1), source=0, destination=1, created_at=0.0)
        return StoredBundle(bundle=b, stored_at=0.0, expiry=expiry)

    def test_no_expiry_by_default(self):
        sb = self._sb()
        assert not sb.is_expired(1e12)
        assert sb.expiry == math.inf

    def test_expiry_boundary_inclusive(self):
        sb = self._sb(expiry=100.0)
        assert not sb.is_expired(99.9)
        assert sb.is_expired(100.0)
        assert sb.expiry == 100.0

    def test_bid_shortcut(self):
        assert self._sb().bid == BundleId(0, 1)


class TestMakeFlowBundles:
    def test_sequential_seqs(self):
        bundles = make_flow_bundles(flow=3, source=1, destination=2, count=5)
        assert [b.bid.seq for b in bundles] == [1, 2, 3, 4, 5]
        assert all(b.bid.flow == 3 for b in bundles)
        assert all(b.source == 1 and b.destination == 2 for b in bundles)

    def test_rejects_empty_flow(self):
        with pytest.raises(ValueError):
            make_flow_bundles(0, 0, 1, 0)
