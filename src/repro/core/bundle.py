"""Bundles — the unit of data in a DTN — and per-copy state.

Terminology follows the paper: a *bundle* is a (large) application message;
nodes buffer *copies* of bundles and exchange them during encounters. The
immutable :class:`Bundle` describes the message itself; the mutable
:class:`StoredBundle` describes one node's copy (its encounter count, TTL
expiry, where it came from).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

#: Expiry value meaning "never expires".
NO_EXPIRY = math.inf


class BundleId:
    """Globally unique bundle identity.

    ``flow`` identifies the (source, destination) conversation; ``seq`` is
    the 1-based position within the flow. Sequential ``seq`` values are what
    the cumulative immunity table compresses ("table id 30 means bundles
    1..30 were delivered").

    Immutable, ordered, and hashable — and hashed on *every* buffer /
    summary / knowledge probe of the simulation, so the hash is computed
    once at construction and cached. The cached value equals
    ``hash((flow, seq))``, exactly what the former frozen dataclass
    generated, so set/dict iteration orders (and therefore simulation
    results) are unchanged.
    """

    __slots__ = ("flow", "seq", "_hash")

    flow: int
    seq: int
    _hash: int

    def __init__(self, flow: int, seq: int) -> None:
        if seq < 1:
            raise ValueError(f"bundle seq is 1-based, got {seq}")
        if flow < 0:
            raise ValueError(f"flow id must be >= 0, got {flow}")
        object.__setattr__(self, "flow", flow)
        object.__setattr__(self, "seq", seq)
        object.__setattr__(self, "_hash", hash((flow, seq)))

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"BundleId is immutable; cannot set {name!r}")

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if other.__class__ is BundleId:
            return self.flow == other.flow and self.seq == other.seq
        return NotImplemented

    def __lt__(self, other: BundleId) -> bool:
        if other.__class__ is BundleId:
            return (self.flow, self.seq) < (other.flow, other.seq)
        return NotImplemented

    def __le__(self, other: BundleId) -> bool:
        if other.__class__ is BundleId:
            return (self.flow, self.seq) <= (other.flow, other.seq)
        return NotImplemented

    def __gt__(self, other: BundleId) -> bool:
        if other.__class__ is BundleId:
            return (self.flow, self.seq) > (other.flow, other.seq)
        return NotImplemented

    def __ge__(self, other: BundleId) -> bool:
        if other.__class__ is BundleId:
            return (self.flow, self.seq) >= (other.flow, other.seq)
        return NotImplemented

    def __reduce__(self) -> tuple[type[BundleId], tuple[int, int]]:
        return (BundleId, (self.flow, self.seq))

    def __repr__(self) -> str:
        return f"BundleId(flow={self.flow}, seq={self.seq})"

    def __str__(self) -> str:  # compact rendering for logs/tests
        return f"{self.flow}.{self.seq}"


@dataclass(frozen=True, slots=True)
class Bundle:
    """An immutable DTN message.

    Attributes:
        bid: Unique id (flow, seq).
        source: Originating node id.
        destination: Final recipient node id.
        created_at: Creation time at the source, seconds.
    """

    bid: BundleId
    source: int
    destination: int
    created_at: float

    def __post_init__(self) -> None:
        if self.source == self.destination:
            raise ValueError("bundle source and destination must differ")
        if self.created_at < 0:
            raise ValueError("created_at must be >= 0")


class StoredBundle:
    """One node's copy of a bundle, with per-copy protocol state.

    One instance per stored copy — the unit the whole simulation allocates
    most of — so this is a plain ``__slots__`` class with a trivial
    constructor and a *lazy* ``meta`` dict (only the extension protocols
    that carry per-copy state, e.g. spray tokens, ever materialise it).

    Attributes:
        bundle: The message this copy carries.
        stored_at: When this node obtained the copy.
        is_origin: True for the source's own application-queue copy.
        ec: Encounter count carried by the copy — incremented every time the
            copy is transmitted, and inherited by the receiver's new copy
            (paper Fig. "Epidemic with EC" worked example).
        expiry: Absolute expiry time; ``NO_EXPIRY`` if the protocol assigns
            no TTL. Maintained by the protocol, enforced by the simulation.
        expiry_event: Handle of the scheduled expiry event (simulation-owned).
    """

    __slots__ = ("bundle", "stored_at", "is_origin", "ec", "expiry", "expiry_event", "_meta")

    def __init__(
        self,
        bundle: Bundle,
        stored_at: float,
        is_origin: bool = False,
        ec: int = 0,
        expiry: float = NO_EXPIRY,
        expiry_event: Any = None,
        meta: dict[str, Any] | None = None,
    ) -> None:
        self.bundle = bundle
        self.stored_at = stored_at
        self.is_origin = is_origin
        self.ec = ec
        self.expiry = expiry
        self.expiry_event = expiry_event
        self._meta = meta

    @property
    def bid(self) -> BundleId:
        return self.bundle.bid

    @property
    def meta(self) -> dict[str, Any]:
        """Free-form per-copy protocol state (e.g. spray tokens).

        Travels with the node's copy, not with the bundle. Materialised on
        first access.
        """
        m = self._meta
        if m is None:
            m = self._meta = {}
        return m

    def is_expired(self, now: float) -> bool:
        """True if the copy's TTL has run out at time ``now``."""
        return now >= self.expiry

    def __repr__(self) -> str:
        origin = ", origin" if self.is_origin else ""
        return (
            f"StoredBundle({self.bid}, stored_at={self.stored_at}, "
            f"ec={self.ec}, expiry={self.expiry}{origin})"
        )


def make_flow_bundles(
    flow: int, source: int, destination: int, count: int, created_at: float = 0.0
) -> list[Bundle]:
    """Create the ``count`` sequential bundles of one flow (seq 1..count)."""
    if count < 1:
        raise ValueError(f"a flow needs at least one bundle, got {count}")
    return [
        Bundle(
            bid=BundleId(flow=flow, seq=s),
            source=source,
            destination=destination,
            created_at=created_at,
        )
        for s in range(1, count + 1)
    ]
