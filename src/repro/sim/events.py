"""Events and the time-ordered event queue.

The queue is a binary heap of plain tuples ``(time, priority, sequence,
event)``.  ``heapq`` orders them with the interpreter's built-in tuple
comparison: earliest ``time`` first, ties broken by the integer
``priority`` (lower runs first) and then by ``sequence``, the queue's
monotone insertion counter.  ``sequence`` is unique, so the comparison is
always decided before it reaches the fourth slot and the :class:`Event`
record itself is never compared.  That ``(time, priority, insertion)``
order makes event execution fully deterministic for a given seed -- a
property the reproduction relies on so that every figure can be
regenerated bit-for-bit.  In particular an event pushed *while* another
event with the same ``(time, priority)`` executes runs after every such
event pushed earlier.  Sessions keep delayed segment deliveries out of the
queue, on a per-session calendar that reproduces this order at each period
boundary; what that means for a delivery landing exactly on a round's
timestamp is spelled out at :func:`repro.streaming.session.due_arrivals`,
and this queue is the reference the calendar is tested against.

Cancellation is a flag on the record (:attr:`Event.cancelled`): a
cancelled entry stays in the heap until it surfaces and is discarded, and
the queue keeps a count of such entries so ``len(queue)`` is the number
of events that will still run.  Cancelling an event that has already run
(or been cancelled) is a no-op.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterator, List, Optional, Tuple

EventCallback = Callable[[], None]


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulation time at which the callback fires.
    priority:
        Tie-breaker for events sharing a timestamp; lower values run first.
    sequence:
        Monotone insertion counter; the final tie-breaker.
    callback:
        Zero-argument callable executed when the event fires.
    label:
        Optional human-readable label (used in error messages and traces).
    cancelled:
        Set by :meth:`EventQueue.cancel`; a cancelled event never runs.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "label", "cancelled", "_queued")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: EventCallback,
        label: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.label = label
        self.cancelled = False
        # Whether the record still sits in its queue's heap (cleared on pop
        # and clear), so a late cancel cannot touch the pending count.
        self._queued = True

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Event(time={self.time!r}, priority={self.priority!r}, "
            f"sequence={self.sequence!r}, label={self.label!r}, "
            f"cancelled={self.cancelled!r})"
        )


_HeapEntry = Tuple[float, int, int, Event]


class EventQueue:
    """A deterministic min-heap of :class:`Event` objects.

    The queue supports lazy cancellation: :meth:`cancel` marks an event and
    :meth:`pop` silently discards cancelled entries.
    """

    def __init__(self) -> None:
        self._heap: List[_HeapEntry] = []
        self._sequence = 0
        #: cancelled entries still in the heap
        self._dead = 0

    def __len__(self) -> int:
        return len(self._heap) - self._dead

    def __bool__(self) -> bool:
        return len(self._heap) > self._dead

    def push(
        self,
        time: float,
        callback: EventCallback,
        *,
        priority: int = 0,
        label: str = "",
    ) -> Event:
        """Schedule ``callback`` at simulation time ``time`` and return the event."""
        time = float(time)
        priority = int(priority)
        sequence = self._sequence
        self._sequence = sequence + 1
        event = Event(time, priority, sequence, callback, label)
        heapq.heappush(self._heap, (time, priority, sequence, event))
        return event

    def cancel(self, event: Event) -> None:
        """Cancel a previously pushed event (no-op if already executed)."""
        if event._queued and not event.cancelled:
            event.cancelled = True
            self._dead += 1

    def is_cancelled(self, event: Event) -> bool:
        return event.cancelled

    def peek(self) -> Optional[Event]:
        """Return the next runnable event without removing it, or ``None``."""
        heap = self._heap
        while heap:
            event = heap[0][3]
            if not event.cancelled:
                return event
            heapq.heappop(heap)
            event._queued = False
            self._dead -= 1
        return None

    def pop(self) -> Optional[Event]:
        """Remove and return the next runnable event, or ``None`` when empty."""
        event = self.peek()
        if event is None:
            return None
        heapq.heappop(self._heap)
        event._queued = False
        return event

    def clear(self) -> None:
        """Drop every pending event."""
        for entry in self._heap:
            entry[3]._queued = False
        self._heap.clear()
        self._dead = 0

    def __iter__(self) -> Iterator[Event]:
        """Iterate over pending (non-cancelled) events in heap order (unsorted)."""
        return (entry[3] for entry in self._heap if not entry[3].cancelled)
