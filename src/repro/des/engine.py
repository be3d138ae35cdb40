"""The discrete-event calendar: one clock, one heap, one merge rule.

An :class:`Engine` owns the clock and a binary heap of
``[time, seq, action, args, alive]`` entries. :meth:`Engine.at` pushes
``action(*args)`` at an absolute time and returns the entry, which is
also the cancellation handle; callback arguments travel positionally so
hot schedulers never allocate a closure per event. Entries fire in
``(time, seq)`` order — ``seq`` is a monotonic counter, so two entries at
the same instant fire in the order they were scheduled.

Cancellation is lazy: :meth:`Engine.cancel` clears the entry's ``alive``
flag and the run loop skips it when it reaches the top. An entry is also
marked dead when it fires, so cancelling an entry that already fired —
including the one firing right now — returns False and counts nothing.
Dead entries are compacted away whenever they exceed half the heap; the
heap list is rewritten in place, never rebound, because the run loops
hold a reference to it across events.

**The stream rule.** :meth:`Engine.run` optionally merges a time-sorted
*stream* of occurrences (the simulation's contact starts) with the heap,
without pushing them. Stream item ``k`` takes seq ``base + k``, where
``base`` is the seq counter when the run starts; the run reserves that
block, so entries pushed during the run get seqs after every stream item.
An item fires before the heap's head exactly when
``(time_k, base + k) < (head_time, head_seq)``. At one instant, then:

* an entry pushed *before* the run (a flow created at t > 0, a crash or
  recovery, an origin copy's expiry) fires before the stream item;
* an entry pushed *during* the run (a transfer completion, a link
  severance, an expiry re-arm) fires after it.

That is the order pushing every item with :meth:`Engine.at`, in stream
order, just before the run would produce. The SoA sweep kernel
(:mod:`repro.core.sweepkernel`) drives this same heap with its own loop
and applies the same rule to its live contacts.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable, Sequence
from typing import Any

#: A calendar entry: ``[time, seq, action, args, alive]``.
Entry = list[Any]


class Engine:
    """Sequential discrete-event engine with a monotonic clock.

    Attributes:
        now: Current simulation time.
        events_fired: Heap entries and stream items executed so far.
        halted: True once :meth:`halt` stopped the current (or last) run.
        heap: The pending entries, a binary heap ordered by ``(time, seq)``.
        seq: The seq the next pushed entry receives.
        dead: Cancelled entries still sitting in :attr:`heap`.
    """

    __slots__ = ("now", "events_fired", "halted", "heap", "seq", "dead")

    #: Compact the heap when dead entries exceed this fraction of it ...
    _COMPACT_RATIO = 0.5
    #: ... but never bother compacting tiny heaps.
    _COMPACT_MIN = 64

    def __init__(self) -> None:
        self.now = 0.0
        self.events_fired = 0
        self.halted = False
        self.heap: list[Entry] = []
        self.seq = 0
        self.dead = 0

    def at(self, time: float, action: Callable[..., object], *args: Any) -> Entry:
        """Schedule ``action(*args)`` at absolute ``time``; return its entry.

        Raises:
            ValueError: if ``time`` is NaN or before :attr:`now`.
        """
        if not (time >= self.now):  # also rejects NaN
            raise ValueError(
                f"event time must be a number >= the current time "
                f"t={self.now}, got {time!r}"
            )
        entry: Entry = [time, self.seq, action, args, True]
        self.seq += 1
        heapq.heappush(self.heap, entry)
        return entry

    def cancel(self, entry: Entry) -> bool:
        """Cancel a pending entry. Returns False if it fired or was cancelled."""
        if not entry[4]:
            return False
        entry[4] = False
        self.dead += 1
        heap = self.heap
        size = len(heap)
        if size >= self._COMPACT_MIN and self.dead > size * self._COMPACT_RATIO:
            live = [e for e in heap if e[4]]
            heapq.heapify(live)
            heap[:] = live
            self.dead = 0
        return True

    def halt(self) -> None:
        """Stop the run loop after the current event."""
        self.halted = True

    def run(
        self,
        until: float = math.inf,
        times: Sequence[float] = (),
        action: Callable[[Any], object] | None = None,
        args: Sequence[Any] | None = None,
    ) -> None:
        """Fire heap entries, merged with an optional stream, in order.

        The stream is ``times`` (sorted ascending) with one ``action``:
        item ``k`` fires ``action(args[k])``, or ``action(k)`` when
        ``args`` is None, at ``times[k]`` — ordered against the heap by
        the stream rule in the module docstring. Each stream item counts
        as one fired event.

        Args:
            until: Inclusive time horizon. Entries and items after it do
                not fire; the clock ends at ``until`` when it is finite,
                or at the halting event's time after :meth:`halt`.

        Raises:
            ValueError: if the stream's times are NaN or go backwards.
        """
        self.halted = False
        heap = self.heap
        heappop = heapq.heappop
        n = len(times)
        if args is None:
            args = range(n)
        base = self.seq
        self.seq = base + n
        k = 0
        t = times[0] if n else math.inf
        while True:
            if heap:
                head = heap[0]
                if not head[4]:
                    heappop(heap)
                    self.dead -= 1
                    continue
                h_time = head[0]
                if k == n or h_time < t or (h_time == t and head[1] < base + k):
                    if h_time > until:
                        break
                    heappop(heap)
                    head[4] = False
                    self.now = h_time
                    self.events_fired += 1
                    head[2](*head[3])
                    if self.halted:
                        return
                    continue
            elif k == n:
                break
            if t > until:
                break
            if not (t >= self.now):
                raise ValueError(
                    f"stream item {k} at t={t!r} is out of order (clock t={self.now})"
                )
            self.now = t
            self.events_fired += 1
            action(args[k])  # type: ignore[misc]
            k += 1
            if k < n:
                t = times[k]
            if self.halted:
                return
        if until > self.now and until != math.inf:
            self.now = until
