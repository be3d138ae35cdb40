"""The discrete-event simulation engine.

An :class:`Engine` owns a clock and an :class:`~repro.des.queue.EventQueue`.
Client code schedules callbacks at absolute times (``at``) or relative
delays (``after``); :meth:`Engine.run` fires them in order while advancing
the clock monotonically. Callback arguments are passed positionally
(``engine.at(t, fn, a, b)``) so hot schedulers never allocate a closure per
event.

Stop conditions: an explicit time horizon, a client :meth:`Engine.halt`
from inside an event, or queue exhaustion — whichever comes first. The
reason the loop ended is reported as a :class:`StopCondition`.
"""

from __future__ import annotations

import enum
import heapq
import math
from collections.abc import Callable, Iterable, Iterator
from typing import Any

from repro.des.event import EventHandle, PRIORITY_NORMAL
from repro.des.queue import EventQueue


class StopCondition(enum.Enum):
    """Why :meth:`Engine.run` returned."""

    EXHAUSTED = "exhausted"  #: no more events
    HORIZON = "horizon"  #: next event lies beyond the time horizon
    HALTED = "halted"  #: client called :meth:`Engine.halt`


class Engine:
    """Sequential discrete-event engine with a monotonic clock."""

    __slots__ = ("_now", "_queue", "_halted", "_events_fired")

    def __init__(self, *, start_time: float = 0.0) -> None:
        if not math.isfinite(start_time) or start_time < 0:
            raise ValueError("start_time must be finite and >= 0")
        self._now = start_time
        self._queue = EventQueue()
        self._halted = False
        self._events_fired = 0

    # ------------------------------------------------------------------ clock

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def events_fired(self) -> int:
        """Total number of events executed so far."""
        return self._events_fired

    @property
    def pending(self) -> int:
        """Number of live scheduled events."""
        return len(self._queue)

    def next_event_time(self) -> float:
        """Earliest pending live event time, or +inf when idle."""
        t = self._queue.peek_time()
        return math.inf if t is None else t

    def credit_events(self, count: int) -> None:
        """Add externally-executed events to the fired-event counter.

        For clients that execute work equivalent to scheduled events
        outside the engine loop (the simulation's SoA sweep kernel):
        :attr:`events_fired` keeps meaning "events of the reference
        schedule executed", so throughput accounting stays comparable
        across execution modes.

        Raises:
            ValueError: if ``count`` is negative.
        """
        if count < 0:
            raise ValueError(f"cannot credit a negative event count: {count}")
        self._events_fired += count

    def advance_clock(self, time: float) -> None:
        """Advance the clock without firing an event.

        For clients that process batched work *between* events (the
        simulation's degenerate-encounter chunks): time-weighted metric
        integrals must see the clock at each virtual occurrence time.
        Callers must not advance past :meth:`next_event_time` — the next
        fired event would otherwise appear to go back in time.

        Raises:
            ValueError: if ``time`` precedes the current clock.
        """
        if time < self._now:
            raise ValueError(
                f"cannot advance clock to t={time} before current time t={self._now}"
            )
        self._now = time

    # -------------------------------------------------------------- scheduling

    def at(
        self,
        time: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        tag: str | Callable[[], str] = "",
    ) -> EventHandle:
        """Schedule ``action(*args)`` at absolute ``time``.

        Raises:
            ValueError: if ``time`` is in the past (strictly before ``now``).
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule at t={time} before current time t={self._now}"
            )
        return self._queue.push(time, action, *args, priority=priority, tag=tag)

    def after(
        self,
        delay: float,
        action: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
        tag: str | Callable[[], str] = "",
    ) -> EventHandle:
        """Schedule ``action(*args)`` ``delay`` time units from now (>= 0)."""
        if delay < 0:
            raise ValueError(f"delay must be >= 0, got {delay}")
        return self._queue.push(
            self._now + delay, action, *args, priority=priority, tag=tag
        )

    def schedule_sorted(
        self, items: Iterable[tuple[float, Callable[..., Any], tuple[Any, ...]]]
    ) -> int:
        """Bulk-load time-ordered ``(time, action, args)`` triples (see queue docs).

        The simulation driver uses this to load a whole contact trace — a
        list already sorted by start time — in O(n) instead of n heap pushes.

        Raises:
            ValueError: if the first time lies in the past.
        """
        it = iter(items)
        try:
            first = next(it)
        except StopIteration:
            return 0
        if first[0] < self._now:
            raise ValueError(
                f"cannot schedule at t={first[0]} before current time t={self._now}"
            )

        def _chained() -> Iterator[tuple[float, Callable[..., Any], tuple[Any, ...]]]:
            yield first
            yield from it

        return self._queue.schedule_sorted(_chained())

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a pending event. Returns True if it was still pending."""
        if handle.cancel():
            self._queue.notify_cancelled()
            return True
        return False

    def halt(self) -> None:
        """Request the run loop to stop after the current event."""
        self._halted = True

    # -------------------------------------------------------------- run loop

    def run(self, *, until: float = math.inf) -> StopCondition:
        """Fire events in order until a stop condition triggers.

        Args:
            until: Inclusive time horizon; events scheduled strictly after it
                remain pending and the clock is advanced to ``until`` (when
                finite) so a subsequent ``run`` resumes correctly.

        Returns:
            The :class:`StopCondition` that ended the loop.
        """
        self._halted = False
        # Fused peek+pop over the queue's heap: one dead-entry skim and one
        # heap access per fired event, no per-event method-call pairs. The
        # entry layout (time, priority, seq, handle) is the queue's
        # documented internal representation.
        queue = self._queue
        heap = queue._heap
        heappop = heapq.heappop
        while True:
            if self._halted:
                return StopCondition.HALTED
            while heap and heap[0][3].cancelled:  # skim, inlined
                heappop(heap)
                if queue._dead:
                    queue._dead -= 1
            if not heap or heap[0][0] > until:
                if math.isfinite(until) and until > self._now:
                    self._now = until
                return StopCondition.EXHAUSTED if not heap else StopCondition.HORIZON
            handle = heappop(heap)[3]
            handle.fired = True
            ev = handle.event
            self._now = ev.time
            self._events_fired += 1
            # action is Optional only so Event() can construct empty; every
            # queue-created event carries one
            ev.action(*ev.args)  # type: ignore[misc]

    def step(self) -> bool:
        """Fire exactly one event. Returns False if the queue was empty."""
        ev = self._queue.pop()
        if ev is None:
            return False
        self._now = ev.time
        self._events_fired += 1
        ev.action(*ev.args)  # type: ignore[misc]
        return True
