"""EC and EC+TTL protocols."""

import pytest

from repro.core.protocols.ec import ECTTLConfig
from tests.helpers import bundle, make_node, run_micro, stored


class TestECEviction:
    def test_accepts_by_evicting_highest_ec(self):
        node, sim = make_node(1, capacity=2, protocol="ec")
        node.relay.add(stored(1, ec=4))
        node.relay.add(stored(2, ec=7))
        incoming = bundle(3, destination=9)
        assert node.protocol.can_accept(incoming, now=0.0)
        sb = node.protocol.accept(incoming, ec=9, now=0.0)
        assert sb is not None
        assert node.relay.get(stored(2).bid) is None  # highest EC evicted
        assert node.relay.get(stored(1).bid) is not None
        assert sim.removals[0].reason == "evicted"
        assert node.counters.evictions == 1

    def test_new_bundle_wins_even_with_higher_ec(self):
        """The paper's bundle-9 example: undelivered beats stored high-EC."""
        node, _ = make_node(1, capacity=1, protocol="ec")
        node.relay.add(stored(6, ec=2))
        sb = node.protocol.accept(bundle(9, destination=9), ec=7, now=0.0)
        assert sb is not None and sb.ec == 7
        assert node.relay.get(stored(6).bid) is None

    def test_full_buffer_accepts_without_a_scan(self, monkeypatch):
        """Every copy's EC is >= 0, so with min_ec_evict 0 a full buffer
        always holds a victim and can_accept answers without scanning it;
        EC+TTL's minimum of 1 still scans, and refuses protected copies."""
        for protocol, expected, scanned in (("ec", True, []), ("ec_ttl", False, [1])):
            node, _ = make_node(1, capacity=2, protocol=protocol)
            node.relay.add(stored(1, ec=0))
            node.relay.add(stored(2, ec=0))
            scans = []
            real_scan = node.relay.max_ec_entry

            def scan(*, min_ec, scans=scans, real_scan=real_scan):
                scans.append(min_ec)
                return real_scan(min_ec=min_ec)

            monkeypatch.setattr(node.relay, "max_ec_entry", scan)
            assert node.protocol.can_accept(bundle(3, destination=9), now=0.0) is expected
            assert scans == scanned

    def test_no_eviction_while_room(self):
        node, sim = make_node(1, capacity=2, protocol="ec")
        node.relay.add(stored(1, ec=9))
        node.protocol.accept(bundle(2, destination=9), ec=0, now=0.0)
        assert len(node.relay) == 2
        assert sim.removals == []

    def test_ec_transfer_semantics(self):
        """Sender's copy increments; receiver copy inherits the new value."""
        sender, _ = make_node(0, protocol="ec")
        receiver, _ = make_node(1, protocol="ec")
        sb = stored(4, ec=3)
        sender.relay.add(sb)
        sender.protocol.on_transmitted(sb, receiver, now=0.0)
        assert sb.ec == 4
        got = receiver.protocol.accept(sb.bundle, ec=sb.ec, now=0.0)
        assert got.ec == 4


class TestECEndToEnd:
    def test_floods_like_pure_when_buffers_fit(self):
        from tests.helpers import CHAIN_ROWS

        _, result = run_micro("ec", CHAIN_ROWS, 4, load=2)
        assert result.delivery_ratio == 1.0

    def test_eviction_under_pressure(self, small_campus_trace):
        from repro.core.protocols import make_protocol_config
        from repro.core.simulation import Simulation, SimulationConfig
        from repro.core.workload import Flow

        flows = [Flow(flow_id=0, source=0, destination=5, num_bundles=30)]
        result = Simulation(
            small_campus_trace,
            make_protocol_config("ec"),
            flows,
            config=SimulationConfig(buffer_capacity=3),
            seed=1,
        ).run()
        assert result.removals["evicted"] > 0


class TestECTTLConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"ec_threshold": -1},
            {"ttl_base": 0.0},
            {"ttl_step": -1.0},
            {"min_ec_evict": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ECTTLConfig(**kwargs)


class TestECTTLAgeing:
    def _node(self, **kw):
        return make_node(1, protocol="ec_ttl", **kw)

    def test_algorithm2_schedule(self):
        node, _ = self._node()
        proto = node.protocol
        assert proto._ttl_for_ec(8) is None  # at threshold: stored plain
        assert proto._ttl_for_ec(9) == 200.0  # 300 - 1*100
        assert proto._ttl_for_ec(10) == 100.0
        assert proto._ttl_for_ec(11) == 0.0

    def test_transmission_past_threshold_arms_ttl(self):
        node, sim = self._node()
        peer, _ = make_node(2)
        sb = stored(1, ec=8)
        node.relay.add(sb)
        sim.advance(1_000.0)
        node.protocol.on_transmitted(sb, peer, now=1_000.0)  # ec -> 9
        assert sb.expiry == 1_000.0 + 200.0

    def test_received_copy_past_threshold_armed(self):
        node, _ = self._node()
        sb = node.protocol.accept(bundle(1, destination=9), ec=10, now=500.0)
        assert sb.expiry == 600.0

    def test_aged_out_copy_removed(self):
        node, sim = self._node()
        peer, _ = make_node(2)
        sb = stored(1, ec=10)
        node.relay.add(sb)
        node.protocol.on_transmitted(sb, peer, now=0.0)  # ec -> 11, ttl 0
        assert node.relay.get(sb.bid) is None
        assert sim.removals[0].reason == "ec-aged-out"

    def test_over_duplicated_not_offered_except_to_destination(self):
        node, _ = self._node()
        relay_peer, _ = make_node(2)
        dest_peer, _ = make_node(9)
        sb = stored(1, ec=10, destination=9)
        assert not node.protocol.should_offer(sb, relay_peer, now=0.0)
        assert node.protocol.should_offer(sb, dest_peer, now=0.0)

    def test_below_threshold_offers_freely(self):
        node, _ = self._node()
        peer, _ = make_node(2)
        assert node.protocol.should_offer(stored(1, ec=3), peer, now=0.0)

    def test_origin_exempt_from_ageing(self):
        node, _ = make_node(0, protocol="ec_ttl")
        peer, _ = make_node(2)
        sb = node.add_origin(bundle(1, source=0, destination=9), now=0.0)
        sb.ec = 20
        node.protocol.on_transmitted(sb, peer, now=0.0)
        assert node.get_copy(sb.bid) is sb  # still alive

    def test_min_ec_protects_unforwarded_copies(self):
        node, _ = self._node(capacity=1, min_ec_evict=1)
        node.relay.add(stored(1, ec=0))  # never forwarded: protected
        assert not node.protocol.can_accept(bundle(2, destination=9), now=0.0)
        assert node.protocol.accept(bundle(2, destination=9), ec=0, now=0.0) is None

    def test_forwarded_copies_evictable(self):
        node, _ = self._node(capacity=1, min_ec_evict=1)
        node.relay.add(stored(1, ec=1))
        assert node.protocol.can_accept(bundle(2, destination=9), now=0.0)
        assert node.protocol.accept(bundle(2, destination=9), ec=0, now=0.0) is not None


class TestECTTLEndToEnd:
    def test_beats_plain_ec_under_pressure(self, small_campus_trace):
        from repro.core.protocols import make_protocol_config
        from repro.core.simulation import Simulation, SimulationConfig
        from repro.core.workload import Flow

        flows = [Flow(flow_id=0, source=0, destination=5, num_bundles=40)]
        cfg = SimulationConfig(buffer_capacity=4)
        r_ec = Simulation(
            small_campus_trace, make_protocol_config("ec"), flows, config=cfg, seed=2
        ).run()
        r_ecttl = Simulation(
            small_campus_trace, make_protocol_config("ec_ttl"), flows, config=cfg, seed=2
        ).run()
        assert r_ecttl.delivery_ratio >= r_ec.delivery_ratio
