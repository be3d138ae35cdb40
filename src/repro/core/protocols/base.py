"""Protocol interface — the policy layer of the unified framework.

Every epidemic variant is one :class:`Protocol` subclass bound to one node.
The contact session and simulation provide mechanism (who meets whom, slot
budgets, copy bookkeeping); protocols decide policy:

* what control information is exchanged at contact start
  (:meth:`Protocol.control_payload` / :meth:`Protocol.receive_control`),
* which bundles are offered (:meth:`Protocol.should_offer`) and whether the
  receiver can take them (:meth:`Protocol.can_accept` /
  :meth:`Protocol.accept`),
* what happens to copies on transmission/reception (EC increments, TTL
  assignment/renewal — :meth:`Protocol.on_transmitted` /
  :meth:`Protocol.on_copy_received`),
* what the destination does on delivery (:meth:`Protocol.on_delivered` —
  anti-packet / immunity-table generation).

The base class implements **pure epidemic** behaviour: offer everything the
peer lacks, accept while there is room, no TTL, no purging. What happens
when the buffer is *full* is delegated to the node's configured
:class:`~repro.core.policies.DropPolicy` (default ``reject`` — refuse the
incoming copy, the classic behaviour); protocols whose identity is an
eviction rule (EC, EC+TTL) override the hooks instead. Every variant
overrides only the hooks it changes, which keeps the implementations
honest about *what* each protocol actually adds — the paper's taxonomy made
executable.
"""

from __future__ import annotations

from itertools import chain
from collections.abc import Callable
from typing import TYPE_CHECKING, Protocol as TypingProtocol

from repro.core.buffer import BufferFullError
from repro.core.bundle import Bundle, BundleId, StoredBundle

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy as np

    from repro.core.knowledge import CumulativeKnowledgeStore, KnowledgeStore
    from repro.core.node import Node


class SimulationServices(TypingProtocol):
    """The slice of the simulation that protocols are allowed to touch."""

    @property
    def now(self) -> float: ...

    def remove_copy(self, node: Node, bid: BundleId, reason: str) -> None:
        """Remove a live copy (origin or relay) with metric bookkeeping."""

    def evict_copy(self, node: Node, bid: BundleId, policy: str) -> None:
        """Evict a relay copy under buffer pressure, charged to ``policy``."""

    def set_expiry(self, node: Node, sb: StoredBundle, expiry: float) -> None:
        """(Re)schedule TTL expiry for a stored copy."""

    def count_control_units(self, node: Node, kind: str, units: int) -> None:
        """Account control-plane transmissions (anti-packets, immunity...)."""

    def set_control_storage(self, node: Node, slots: float) -> None:
        """Set the node's stored-table footprint in (fractional) slots."""


class ControlMessage:
    """Control-plane payload exchanged at contact start.

    Attributes:
        sender: Originating node id.
        summary: Ids of bundles the sender holds or has consumed (the
            summary vector of the anti-entropy session). May be passed as
            a zero-argument callable: it is then built **lazily** on first
            access — in-simulation anti-entropy never reads the vector (the
            session probes node state directly), so normal runs never pay
            for its construction. Caveat: a lazy summary reflects the
            sender's state *at access time*, not at contact start — a
            protocol whose ``receive_control`` actually reads the peer's
            summary must build it eagerly in ``control_payload``
            (pass ``self._summary()``, not ``self._summary``) to get
            pre-exchange snapshot semantics.
        delivered_ids: Per-bundle delivery knowledge (anti-packets for P-Q,
            the i-list for immunity).
        cumulative: Per-flow cumulative immunity tables:
            ``{flow: highest contiguous delivered seq}``.
        extras: Free-form protocol state for extension protocols (e.g.
            PRoPHET delivery-predictability vectors).
    """

    __slots__ = ("sender", "_summary", "delivered_ids", "cumulative", "extras")

    def __init__(
        self,
        sender: int,
        summary: frozenset[BundleId] | Callable[[], frozenset[BundleId]] = frozenset(),
        delivered_ids: frozenset[BundleId] = frozenset(),
        cumulative: dict[int, int] | None = None,
        extras: dict[str, object] | None = None,
    ) -> None:
        self.sender = sender
        self._summary = summary
        self.delivered_ids = delivered_ids
        self.cumulative = {} if cumulative is None else cumulative
        self.extras = {} if extras is None else extras

    @property
    def summary(self) -> frozenset[BundleId]:
        """The summary vector; built (and cached) on first access if lazy."""
        s = self._summary
        if callable(s):
            s = s()
            self._summary = s
        return s

    def __repr__(self) -> str:
        summary = "<lazy>" if callable(self._summary) else f"{len(self._summary)} ids"
        return (
            f"ControlMessage(sender={self.sender}, summary={summary}, "
            f"delivered_ids={len(self.delivered_ids)}, "
            f"cumulative={self.cumulative!r})"
        )


class Protocol:
    """Base protocol = pure epidemic. Subclasses override policy hooks."""

    #: Registry name; subclasses must set this.
    name = "pure"
    #: Signaling-accounting category for protocol-specific control units.
    control_kind = "summary_vector"
    #: True when this class carries real control-plane state (it overrides
    #: any of ``control_payload`` / ``receive_control`` / ``control_units``).
    #: Maintained automatically by ``__init_subclass__`` — the contact
    #: session skips building/delivering control messages entirely when
    #: both peers are stateless, which is every contact of the pure and
    #: coins-only P-Q protocols.
    exchanges_control = False
    #: True when contact start is pure bookkeeping for this class: no
    #: control exchange and no ``on_encounter_started`` override. The SoA
    #: kernel then leaves zero-transfer contacts out of its sweep and
    #: settles their bookkeeping in one vectorized pass at end of run
    #: (see :mod:`repro.core.sweepkernel`). Maintained automatically by
    #: ``__init_subclass__``.
    encounter_inert = True
    #: True when ``receive_control`` consumes *only* state covered by the
    #: protocol's :attr:`knowledge` store epoch, so an exchange between
    #: two peers whose epochs are unchanged since their last meeting is
    #: provably a no-op and can be elided (accounting still runs; see
    #: :func:`repro.core.knowledge.exchange_control`). Classes built on a
    #: knowledge store declare this explicitly; ``__init_subclass__``
    #: withdraws it from any subclass that overrides a control hook
    #: without re-declaring it — extra control state the epoch does not
    #: cover must never be skipped.
    epoch_gated_control = False
    #: The protocol's delivery-knowledge store
    #: (:class:`~repro.core.knowledge.KnowledgeStore` or
    #: :class:`~repro.core.knowledge.CumulativeKnowledgeStore`), or None
    #: for protocols without control-plane state.
    knowledge: KnowledgeStore | CumulativeKnowledgeStore | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls.exchanges_control = (
            cls.control_payload is not Protocol.control_payload
            or cls.receive_control is not Protocol.receive_control
            or cls.control_units is not Protocol.control_units
        )
        cls.encounter_inert = (
            cls.on_encounter_started is Protocol.on_encounter_started
            and not cls.exchanges_control
        )
        # learn_delivered is included because the substrate's
        # receive_control delegates to it — overriding either one means
        # the exchange may do more than the epoch covers
        if "epoch_gated_control" not in cls.__dict__ and any(
            hook in cls.__dict__
            for hook in (
                "control_payload",
                "receive_control",
                "control_units",
                "learn_delivered",
            )
        ):
            cls.epoch_gated_control = False

    def __init__(self, node: Node, sim: SimulationServices, rng: np.random.Generator) -> None:
        self.node = node
        self.sim = sim
        self.rng = rng

    # ------------------------------------------------------------- lifecycle

    def on_bundle_created(self, sb: StoredBundle, now: float) -> None:
        """Called when this node originates ``sb`` (sets initial TTL etc.)."""

    def on_encounter_started(self, peer: Node, now: float) -> None:
        """Called at contact start, after encounter history is updated."""

    # ---------------------------------------------------------- control plane

    def control_payload(self, now: float) -> ControlMessage:
        """Control message sent to the peer at contact start.

        The summary vector is passed lazily (as the bound ``_summary``
        method): it is a *capability* of the anti-entropy session rather
        than a structure the simulation consumes, so it is only built when
        a protocol or test actually reads ``msg.summary``.
        """
        return ControlMessage(sender=self.node.id, summary=self._summary)

    def receive_control(self, msg: ControlMessage, now: float) -> None:
        """Process the peer's control message (purge, merge lists, ...)."""

    def control_units(self, msg: ControlMessage) -> int:
        """Units this message costs for the signaling-overhead metric.

        The summary vector is common to every protocol and excluded; only
        protocol-specific state (anti-packets, immunity tables) counts.
        """
        return 0

    def _summary(self) -> frozenset[BundleId]:
        """Summary vector: everything held or already consumed here."""
        node = self.node
        return frozenset(
            chain(node.relay.id_view(), node.origin, node.delivered)
        )

    # ------------------------------------------------------- delivery knowledge

    def knows_delivered(self, bid: BundleId) -> bool:
        """True if this node knows ``bid`` already reached its destination."""
        return False

    def on_knowledge_wiped(self, now: float) -> frozenset[BundleId]:
        """Reboot state loss: forget all delivery knowledge (see
        :mod:`repro.faults`).

        Returns the set of bundle ids the node *knew were delivered* before
        the wipe — the simulation uses it to count re-infections (copies of
        those bundles re-accepted after the reboot). Protocols without
        control-plane state have nothing to forget. Not a control hook:
        overriding it does not affect ``exchanges_control`` /
        ``encounter_inert`` / ``epoch_gated_control``.
        """
        return frozenset()

    # ------------------------------------------------------------- send side

    def should_offer(self, sb: StoredBundle, peer: Node, now: float) -> bool:
        """Decide (possibly probabilistically) to offer ``sb`` this contact.

        Called at most once per (bundle, contact); a False answer is cached
        by the session for the rest of the contact (the P-Q semantics).
        """
        return True

    def confirm_transfer(self, sb: StoredBundle, peer: Node, now: float) -> bool:
        """Final go/no-go when a planned transfer completes.

        Between planning and completion (one ``bundle_tx_time``), concurrent
        contacts may have consumed whatever resource justified the offer
        (e.g. spray tokens). Unlike :meth:`should_offer` this must be
        deterministic — probabilistic decisions stay at planning time so
        their odds are not applied twice.
        """
        return True

    def on_transmitted(self, sb: StoredBundle, peer: Node, now: float) -> None:
        """Update the sender's copy after a completed transmission.

        Base behaviour increments the copy's encounter count (the EC tag
        travels with every bundle even when the policy ignores it).
        """
        sb.ec += 1

    # ---------------------------------------------------------- receive side

    def can_accept(self, bundle: Bundle, now: float) -> bool:
        """Planning-time check: could a copy of ``bundle`` be stored?

        The destination always accepts (delivery consumes no buffer). A
        full buffer defers to the node's configured drop policy (the
        default ``reject`` never makes room — the classic refusal);
        protocols with an intrinsic eviction rule (EC) override this.

        Must not consume randomness: anti-entropy consults it repeatedly
        within one contact (stochastic policies only draw at eviction
        time, in :meth:`_make_room`).
        """
        if bundle.destination == self.node.id:
            return True
        if not self.node.relay.is_full:
            return True
        return self.node.drop_policy.can_make_room(self.node.relay, bundle)

    def accept(
        self,
        bundle: Bundle,
        ec: int,
        now: float,
        sender_copy: StoredBundle | None = None,
    ) -> StoredBundle | None:
        """Store a received copy, applying the protocol's buffer policy.

        Args:
            ec: The encounter count carried by the incoming copy (already
                incremented by the sender's :meth:`on_transmitted`).
            sender_copy: The sender's stored copy, for protocols whose
                per-copy state travels with the bundle (e.g. spray tokens).

        Returns:
            The stored copy, or None if the bundle was refused (the slot is
            consumed regardless — the transmission happened).
        """
        if self.node.relay.is_full and not self._make_room(bundle, ec, now):
            return None
        sb = StoredBundle(bundle=bundle, stored_at=now, ec=ec)
        try:
            self.node.relay.add(sb)
        except BufferFullError:
            return None
        self.on_copy_received(sb, now, sender_copy=sender_copy)
        return sb

    def _make_room(self, incoming: Bundle, ec: int, now: float) -> bool:
        """Evict per the node's drop policy to fit ``incoming``.

        With the default ``reject`` policy no victim is ever named and the
        incoming copy is refused — the historical behaviour.
        """
        policy = self.node.drop_policy
        victim = policy.select_victim(self.node.relay, incoming, now)
        if victim is None:
            return False
        self.sim.evict_copy(self.node, victim.bid, policy=policy.name)
        return True

    def on_copy_received(
        self, sb: StoredBundle, now: float, sender_copy: StoredBundle | None = None
    ) -> None:
        """Initialise per-copy state (TTL) after storing a received copy."""

    # ------------------------------------------------------------ destination

    def on_delivered(self, bundle: Bundle, now: float) -> None:
        """Called at the destination when ``bundle`` is delivered."""


__all__ = ["ControlMessage", "Protocol", "SimulationServices"]
