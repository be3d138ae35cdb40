"""Per-node bundle storage.

Two stores per node, mirroring how the paper's setup is self-consistent:

* :class:`RelayStore` — the bounded buffer (paper: 10 slots) holding copies
  accepted from peers. All buffer-occupancy metrics and eviction policies
  operate here.
* The *origin store* (a plain dict managed by :class:`~repro.core.node.Node`)
  — the unbounded application queue holding the bundles this node itself
  generated. Sources inject up to 50 bundles while buffers hold 10; origin
  copies are never *evicted*, but TTL-based protocols do *expire* them
  (the premature-discard failure mode of Figs 13–14).

The store is mechanism-only: eviction/acceptance *policy* lives above it.
When a full store receives a new copy, the protocol layer consults the
node's configured :class:`~repro.core.policies.DropPolicy` (``reject``,
``drop-tail``, ``drop-oldest``, ``drop-youngest``, ``drop-random``) to rank
an eviction victim — see :mod:`repro.core.policies`; protocols with an
intrinsic replacement rule (EC's highest-encounter-count eviction, exposed
here as :meth:`RelayStore.max_ec_entry`) bypass that delegation. Capacity
may differ per node (heterogeneous populations): each node's store is
constructed with its own ``capacity``.
"""

from __future__ import annotations

from collections.abc import Iterator

from repro.core.bundle import BundleId, StoredBundle


class BufferFullError(RuntimeError):
    """Raised when adding to a full :class:`RelayStore` without eviction."""


class RelayStore:
    """Bounded store of relayed bundle copies, insertion-ordered."""

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._entries: dict[BundleId, StoredBundle] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, bid: BundleId) -> bool:
        return bid in self._entries

    def __iter__(self) -> Iterator[StoredBundle]:
        return iter(list(self._entries.values()))

    @property
    def is_full(self) -> bool:
        return len(self._entries) >= self.capacity

    def get(self, bid: BundleId) -> StoredBundle | None:
        """The stored copy for ``bid``, or None."""
        return self._entries.get(bid)

    def add(self, sb: StoredBundle) -> None:
        """Insert a copy.

        Raises:
            BufferFullError: if the store is full.
            ValueError: if a copy of the same bundle is already stored.
        """
        if sb.bid in self._entries:
            raise ValueError(f"bundle {sb.bid} already in store")
        if self.is_full:
            raise BufferFullError(
                f"store full ({self.capacity} slots), cannot add {sb.bid}"
            )
        self._entries[sb.bid] = sb

    def remove(self, bid: BundleId) -> StoredBundle:
        """Remove and return the copy for ``bid``.

        Raises:
            KeyError: if not present.
        """
        return self._entries.pop(bid)

    def values(self) -> list[StoredBundle]:
        """Stored copies in insertion order."""
        return list(self._entries.values())

    def entries_view(self) -> dict[BundleId, StoredBundle]:
        """The live id → copy mapping — read-only by convention.

        Hot paths (the contact sweep's membership probes and its inlined
        relay store) use this to skip method-call and copy overhead.
        """
        return self._entries

    def max_ec_entry(
        self, *, min_ec: int = 0, exclude: BundleId | None = None
    ) -> StoredBundle | None:
        """The eviction candidate with the highest EC.

        Args:
            min_ec: Only copies with ``ec >= min_ec`` are eligible (the
                EC+TTL enhancement's "minimum EC before deletion" rule).
            exclude: Optional id to skip (never evict the bundle being
                inserted).

        Returns:
            The eligible copy with the highest EC (ties broken by older
            ``stored_at`` first), or None if no copy is eligible.
        """
        best: StoredBundle | None = None
        for sb in self._entries.values():
            if sb.ec < min_ec:
                continue
            if exclude is not None and sb.bid == exclude:
                continue
            if (
                best is None
                or sb.ec > best.ec
                or (sb.ec == best.ec and sb.stored_at < best.stored_at)
            ):
                best = sb
        return best
