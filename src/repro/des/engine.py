"""The discrete-event calendar: one clock, one heap.

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

:meth:`Engine.run` fires the heap alone. The simulation's contact sweep
(:mod:`repro.core.sweepkernel`) drives this same heap with its own loop,
merging the trace's contacts with it by the stream rule stated there.
"""

from __future__ import annotations

import heapq
import math
from collections.abc import Callable
from typing import Any

#: A calendar entry: ``[time, seq, action, args, alive]``.
Entry = list[Any]


class Engine:
    """Sequential discrete-event engine with a monotonic clock.

    Attributes:
        now: Current simulation time.
        events_fired: Entries executed so far (the contact sweep adds its
            contacts).
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

    def run(self, until: float = math.inf) -> None:
        """Fire heap entries in ``(time, seq)`` order.

        Args:
            until: Inclusive time horizon. Entries after it do not fire;
                the clock ends at ``until`` when it is finite, or at the
                halting event's time after :meth:`halt`.
        """
        self.halted = False
        heap = self.heap
        heappop = heapq.heappop
        while heap:
            head = heap[0]
            if not head[4]:
                heappop(heap)
                self.dead -= 1
                continue
            h_time = head[0]
            if h_time > until:
                break
            heappop(heap)
            head[4] = False
            self.now = h_time
            self.events_fired += 1
            head[2](*head[3])
            if self.halted:
                return
        if until > self.now and until != math.inf:
            self.now = until
