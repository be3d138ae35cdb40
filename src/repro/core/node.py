"""The DTN node model.

A :class:`Node` owns its stores (relay buffer + origin queue + delivered
log), its counters, and a protocol instance that encodes all policy —
including any state the policy keeps about past encounters (dynamic TTL's
:class:`~repro.core.protocols.ttl.EncounterHistory`). Everything that
mutates copy counts or buffer fill goes through the simulation services so
metrics stay exact; the node itself is bookkeeping only.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.core.buffer import RelayStore
from repro.core.bundle import Bundle, BundleId, StoredBundle
from repro.core.policies import DropPolicy, RejectPolicy

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.core.protocols.base import Protocol


@dataclass(slots=True)
class NodeCounters:
    """Per-node event counters (diagnostics and signaling metrics)."""

    bundles_sent: int = 0
    bundles_received: int = 0
    bundles_delivered: int = 0  #: received as final destination
    evictions: int = 0
    expiries: int = 0
    immunized_purges: int = 0
    rejections: int = 0  #: offers refused at completion time (wasted slots)
    control_units_sent: int = 0


class Node:
    """One DTN device: stores, counters, and a protocol."""

    def __init__(
        self,
        node_id: int,
        buffer_capacity: int,
        *,
        drop_policy: DropPolicy | None = None,
    ) -> None:
        self.id = node_id
        self.relay = RelayStore(buffer_capacity)
        #: buffer drop policy consulted by the protocol when the relay
        #: store is full (``reject`` = historical refuse-incoming default)
        self.drop_policy: DropPolicy = drop_policy or RejectPolicy()
        self.origin: dict[BundleId, StoredBundle] = {}
        self.delivered: dict[BundleId, float] = {}
        self.counters = NodeCounters()
        #: buffer slots (fractional) consumed by stored control state
        #: (immunity tables / anti-packets); maintained via the simulation's
        #: ``set_control_storage`` so the occupancy metric stays exact
        self.control_storage = 0.0
        self.protocol: Protocol = None  # type: ignore[assignment]  # bound by Simulation

    def __repr__(self) -> str:
        return (
            f"Node({self.id}, relay={len(self.relay)}/{self.relay.capacity}, "
            f"origin={len(self.origin)}, delivered={len(self.delivered)})"
        )

    # ----------------------------------------------------------- copy queries

    def has_copy(self, bid: BundleId) -> bool:
        """True if this node holds (or has consumed) the bundle."""
        return bid in self.relay or bid in self.origin or bid in self.delivered

    def get_copy(self, bid: BundleId) -> StoredBundle | None:
        """The live stored copy (origin or relay), if any."""
        sb = self.origin.get(bid)
        if sb is not None:
            return sb
        return self.relay.get(bid)

    def sendable(self) -> list[StoredBundle]:
        """Copies this node can forward: origin first, then relay.

        Within each store, copies keep insertion order (origin = seq order,
        relay = arrival order). The contact session applies
        destination-priority on top of this ordering.
        """
        return list(self.origin.values()) + self.relay.values()

    # -------------------------------------------------------------- mutation

    def add_origin(self, bundle: Bundle, now: float) -> StoredBundle:
        """Place a self-originated bundle in the (unbounded) origin queue."""
        if bundle.source != self.id:
            raise ValueError(
                f"node {self.id} cannot originate bundle from {bundle.source}"
            )
        if self.has_copy(bundle.bid):
            raise ValueError(f"bundle {bundle.bid} already present at node {self.id}")
        sb = StoredBundle(bundle=bundle, stored_at=now, is_origin=True)
        self.origin[bundle.bid] = sb
        return sb

    def remove_copy(self, bid: BundleId) -> StoredBundle:
        """Remove a live copy from whichever store holds it.

        Raises:
            KeyError: if no live copy exists.
        """
        if bid in self.origin:
            return self.origin.pop(bid)
        return self.relay.remove(bid)

    def mark_delivered(self, bid: BundleId, now: float) -> None:
        """Record final delivery at this node (the flow destination)."""
        if bid in self.delivered:
            raise ValueError(f"bundle {bid} delivered twice at node {self.id}")
        self.delivered[bid] = now
