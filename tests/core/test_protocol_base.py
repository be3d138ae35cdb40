"""Base protocol (pure epidemic) hooks and the registry."""

import pytest

from repro.core.protocols import (
    ControlMessage,
    make_protocol_config,
    protocol_names,
    register_protocol,
)
from tests.helpers import bundle, make_node, stored


class TestControlPayload:
    def test_base_payload_carries_no_control_state(self):
        node, _ = make_node(0, protocol="pure")
        node.relay.add(stored(1))
        msg = node.protocol.control_payload(now=0.0)
        assert isinstance(msg, ControlMessage)
        assert msg.sender == 0
        assert msg.delivered_ids == frozenset()
        assert node.protocol.control_units(msg) == 0


class TestDropTailAcceptance:
    def test_accepts_while_room(self):
        node, _ = make_node(5, capacity=2, protocol="pure")
        assert node.protocol.can_accept(bundle(1, destination=9), now=0.0)
        sb = node.protocol.accept(bundle(1, destination=9), ec=3, now=7.0)
        assert sb is not None
        assert sb.ec == 3
        assert sb.stored_at == 7.0
        assert not sb.is_origin

    def test_full_buffer_refuses(self):
        node, _ = make_node(5, capacity=1, protocol="pure")
        node.relay.add(stored(1))
        assert not node.protocol.can_accept(bundle(2, destination=9), now=0.0)
        assert node.protocol.accept(bundle(2, destination=9), ec=0, now=0.0) is None

    def test_destination_always_accepts(self):
        node, _ = make_node(5, capacity=1, protocol="pure")
        node.relay.add(stored(1))
        assert node.protocol.can_accept(bundle(2, destination=5), now=0.0)


class TestTransmitHook:
    def test_increments_ec(self):
        node, _ = make_node(0, protocol="pure")
        peer, _ = make_node(1, protocol="pure")
        sb = stored(1)
        node.protocol.on_transmitted(sb, peer, now=0.0)
        assert sb.ec == 1

    def test_base_knows_nothing_delivered(self):
        node, _ = make_node(0, protocol="pure")
        assert not node.protocol.knows_delivered(bundle(1).bid)

    def test_should_offer_default_true(self):
        node, _ = make_node(0, protocol="pure")
        peer, _ = make_node(1, protocol="pure")
        assert node.protocol.should_offer(stored(1), peer, now=0.0)


class TestRegistry:
    def test_builtin_names(self):
        names = protocol_names()
        for expected in (
            "pure",
            "pq",
            "ttl",
            "dynamic_ttl",
            "ec",
            "ec_ttl",
            "immunity",
            "cumulative_immunity",
        ):
            assert expected in names

    def test_unknown_name_lists_options(self):
        with pytest.raises(KeyError, match="available"):
            make_protocol_config("nope")

    def test_kwargs_forwarded(self):
        cfg = make_protocol_config("pq", p=0.3, q=0.7)
        assert cfg.p == 0.3 and cfg.q == 0.7

    def test_register_requires_name(self):
        class Anon:
            pass

        with pytest.raises(ValueError, match="protocol_name"):
            register_protocol(Anon)

    def test_register_rejects_name_collision(self):
        class Fake:
            protocol_name = "pure"

        with pytest.raises(ValueError, match="already registered"):
            register_protocol(Fake)

    def test_labels_are_human_readable(self):
        assert "P-Q" in make_protocol_config("pq").label
        assert "TTL=300" in make_protocol_config("ttl").label
