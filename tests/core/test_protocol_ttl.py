"""Constant and dynamic TTL protocols."""

import pytest

from repro.core.bundle import NO_EXPIRY
from repro.core.protocols.ttl import DynamicTTLConfig, FixedTTLConfig
from tests.helpers import CHAIN_ROWS, make_node, run_micro, stored


class TestFixedTTLConfig:
    def test_positive_ttl_required(self):
        with pytest.raises(ValueError):
            FixedTTLConfig(ttl=0.0)

    def test_label_shows_origin_mode(self):
        assert "origin expires" in FixedTTLConfig(expire_origin=True).label


class TestFixedTTLHooks:
    def test_received_copy_armed(self):
        node, sim = make_node(1, protocol="ttl", ttl=300.0)
        sim.advance(100.0)
        sb = node.protocol.accept(stored(1).bundle, ec=0, now=100.0)
        assert sb.expiry == 400.0

    def test_origin_untouched_by_default(self):
        node, sim = make_node(0, protocol="ttl", ttl=300.0)
        sb = node.add_origin(stored(1, source=0).bundle, now=0.0)
        node.protocol.on_bundle_created(sb, now=0.0)
        assert sb.expiry == NO_EXPIRY

    def test_origin_armed_when_enabled(self):
        node, sim = make_node(0, protocol="ttl", ttl=300.0, expire_origin=True)
        sb = node.add_origin(stored(1, source=0).bundle, now=0.0)
        node.protocol.on_bundle_created(sb, now=0.0)
        assert sb.expiry == 300.0

    def test_transmission_renews_relay_copy(self):
        node, sim = make_node(1, protocol="ttl", ttl=300.0)
        peer, _ = make_node(2)
        sb = node.protocol.accept(stored(1).bundle, ec=0, now=0.0)
        sim.advance(250.0)
        node.protocol.on_transmitted(sb, peer, now=250.0)
        assert sb.expiry == 550.0
        assert sb.ec == 1


class TestFixedTTLEndToEnd:
    def test_relay_copies_expire(self):
        """A relayed copy dies before the next hop when the gap > TTL."""
        rows = [(100.0, 350.0, 0, 1), (1_000.0, 1_250.0, 1, 2)]
        _, result = run_micro("ttl", rows, 3, load=1, protocol_kwargs={"ttl": 300.0})
        # node 1's copy (received ~200) expires ~500 < 1000 -> no delivery
        assert result.delivery_ratio == 0.0
        assert result.removals["expired"] >= 1

    def test_relay_survives_short_gap(self):
        rows = [(100.0, 350.0, 0, 1), (400.0, 650.0, 1, 2)]
        _, result = run_micro("ttl", rows, 3, load=1, protocol_kwargs={"ttl": 300.0})
        assert result.delivery_ratio == 1.0

    def test_origin_expiry_collapses_delivery(self):
        # source never meets anyone within the TTL
        rows = [(1_000.0, 1_250.0, 0, 2)]
        _, ok = run_micro("ttl", rows, 3, load=1, protocol_kwargs={"ttl": 300.0})
        assert ok.delivery_ratio == 1.0  # origin-immune default delivers
        _, dead = run_micro(
            "ttl", rows, 3, load=1,
            protocol_kwargs={"ttl": 300.0, "expire_origin": True},
        )
        assert dead.delivery_ratio == 0.0


class TestDynamicTTLConfig:
    @pytest.mark.parametrize("kwargs", [{"multiplier": 0.0}, {"default_ttl": 0.0}])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            DynamicTTLConfig(**kwargs)


class TestDynamicTTLHooks:
    def test_no_interval_means_default_infinite(self):
        node, _ = make_node(1, protocol="dynamic_ttl")
        sb = node.protocol.accept(stored(1).bundle, ec=0, now=0.0)
        assert sb.expiry == NO_EXPIRY

    def test_ttl_is_twice_last_interval(self):
        node, _ = make_node(1, protocol="dynamic_ttl")
        node.protocol.history.note_encounter(1_000.0)
        node.protocol.history.note_encounter(1_500.0)  # interval 500 (> debounce gap)
        sb = node.protocol.accept(stored(1).bundle, ec=0, now=1_500.0)
        assert sb.expiry == 1_500.0 + 2 * 500.0

    def test_finite_default_ttl_used_before_estimate(self):
        node, _ = make_node(1, protocol="dynamic_ttl", default_ttl=700.0)
        sb = node.protocol.accept(stored(1).bundle, ec=0, now=100.0)
        assert sb.expiry == 800.0

    def test_encounter_rearms_buffered_copies(self):
        node, _ = make_node(1, protocol="dynamic_ttl")
        peer, _ = make_node(2)
        node.protocol.history.note_encounter(0.0)
        node.protocol.history.note_encounter(400.0)  # interval 400
        sb = node.protocol.accept(stored(1).bundle, ec=0, now=400.0)
        assert sb.expiry == 400.0 + 800.0
        # the hook notes the encounter (interval 600) before re-arming
        node.protocol.on_encounter_started(peer, now=1_000.0)
        assert sb.expiry == 1_000.0 + 1_200.0

    def test_origin_rearmed_only_when_expiring(self):
        node, _ = make_node(0, protocol="dynamic_ttl", expire_origin=True)
        peer, _ = make_node(2)
        sb = node.add_origin(stored(1, source=0).bundle, now=0.0)
        node.protocol.on_bundle_created(sb, now=0.0)
        node.protocol.history.note_encounter(0.0)
        node.protocol.on_encounter_started(peer, now=500.0)
        assert sb.expiry == 500.0 + 1_000.0

    def test_multiplier_respected(self):
        node, _ = make_node(1, protocol="dynamic_ttl", multiplier=3.0)
        node.protocol.history.note_encounter(0.0)
        node.protocol.history.note_encounter(500.0)
        sb = node.protocol.accept(stored(1).bundle, ec=0, now=500.0)
        assert sb.expiry == 500.0 + 3 * 500.0

    def test_burst_encounters_do_not_collapse_ttl(self):
        """The rendezvous debounce keeps bursts from nuking the estimate."""
        node, _ = make_node(1, protocol="dynamic_ttl")
        node.protocol.history.note_encounter(0.0)
        node.protocol.history.note_encounter(1_000.0)  # interval 1000
        node.protocol.history.note_encounter(1_005.0)  # burst at the same spot
        sb = node.protocol.accept(stored(1).bundle, ec=0, now=1_005.0)
        assert sb.expiry == 1_005.0 + 2_000.0


class TestDynamicTTLEndToEnd:
    def test_survives_its_own_rhythm(self):
        """Copies survive gaps comparable to the node's usual interval."""
        rows = [
            (0.0, 150.0, 1, 3),        # builds node 1's interval estimate
            (1_000.0, 1_150.0, 1, 3),  # interval 1000 -> TTL basis 2000
            (2_000.0, 2_250.0, 0, 1),  # source hands over (arrives ~2100)
            (3_500.0, 3_750.0, 1, 2),  # gap 1400 < TTL 2000: still alive
        ]
        _, dyn = run_micro("dynamic_ttl", rows, 4, destination=2, load=1)
        assert dyn.delivery_ratio == 1.0
        _, fixed = run_micro(
            "ttl", rows, 4, destination=2, load=1, protocol_kwargs={"ttl": 300.0}
        )
        assert fixed.delivery_ratio == 0.0

    def test_dynamic_beats_constant_on_chain(self):
        _, dyn = run_micro("dynamic_ttl", CHAIN_ROWS, 4, load=1)
        _, fixed = run_micro("ttl", CHAIN_ROWS, 4, load=1, protocol_kwargs={"ttl": 300.0})
        assert dyn.delivery_ratio >= fixed.delivery_ratio
