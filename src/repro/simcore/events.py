"""Event primitives for the discrete-event simulator.

Events are ordered by ``(time, priority, seq)``.  The monotonically
increasing sequence number guarantees a deterministic total order even
when two events share a timestamp, which keeps simulations reproducible
across runs and platforms.

The queue's heap holds ``(time, priority, seq, event)`` tuples rather
than the events themselves: tuples of floats and ints compare in C,
while a dataclass ordering runs a generated Python ``__lt__`` per heap
comparison.  ``seq`` is unique, so a comparison never reaches the
event.  :class:`Event` is the handle ``push`` returns, used to cancel.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable


@dataclass(order=True, slots=True)
class Event:
    """A single scheduled occurrence in simulated time.

    Attributes:
        time: Simulated timestamp (seconds) at which the event fires.
        priority: Secondary ordering key; lower fires first at equal time.
        seq: Tie-breaking sequence number assigned by the queue.
        action: Zero-argument callable invoked when the event fires.
        cancelled: When True the event is skipped by the simulator.
    """

    time: float
    priority: int = 0
    seq: int = field(default=0)
    action: Callable[[], None] | None = field(default=None, compare=False)
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        """Mark the event so the simulator drops it instead of firing it."""
        self.cancelled = True


class EventQueue:
    """A heap of ``(time, priority, seq, event)`` entries."""

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``action`` at ``time`` and return the event handle."""
        if time != time:  # NaN guard: a NaN timestamp corrupts heap order
            raise ValueError("event time must not be NaN")
        seq = next(self._counter)
        event = Event(time, priority, seq, action)
        heapq.heappush(self._heap, (time, priority, seq, event))
        return event

    def pop(self) -> Event:
        """Remove and return the earliest non-cancelled event.

        Raises:
            IndexError: If the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heapq.heappop(heap)[3]
            if not event.cancelled:
                return event
        raise IndexError("pop from empty event queue")

    def peek_time(self) -> float | None:
        """Return the timestamp of the next live event, or None if empty."""
        heap = self._heap
        while heap and heap[0][3].cancelled:
            heapq.heappop(heap)
        if not heap:
            return None
        return heap[0][0]
