"""The simulation driver: a virtual clock over an event heap."""

from __future__ import annotations

from typing import Callable

from repro.simcore.events import Event, EventQueue


class Simulator:
    """Runs events in timestamp order while advancing a virtual clock.

    The simulator is intentionally tiny: components schedule callbacks
    with :meth:`schedule` (absolute time) or :meth:`schedule_after`
    (relative delay) and the driver fires them in deterministic order.
    """

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0.0
        self._events_processed = 0
        self._run_until: float | None = None

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    def next_event_time(self) -> float | None:
        """Timestamp of the next pending event, or None when idle.

        Lets a wall-clock driver (the serving gateway) sleep exactly
        until the simulation has something to do.
        """
        return self._queue.peek_time()

    @property
    def run_bound(self) -> float | None:
        """The ``until`` limit of the in-progress :meth:`run`, if any.

        Lets a component executing inside an event callback (the
        engine's level-synchronous decode stretches) avoid
        advancing the clock past the driver's requested stop time.
        """
        return self._run_until

    def fast_forward(self, time: float) -> None:
        """Advance the clock directly, without processing an event.

        Only legal while no pending event (and no ``until`` bound of
        an in-progress :meth:`run`) falls before ``time`` — i.e. when
        the caller has proven the skipped interval is silent.  Used by
        the engine to collapse a run of pure-decode iterations
        into one batched advance.
        """
        if time < self._now:
            raise ValueError(
                f"cannot fast-forward into the past: {time} < {self._now}"
            )
        next_time = self._queue.peek_time()
        if next_time is not None and next_time < time:
            raise ValueError(
                f"cannot fast-forward over a pending event: "
                f"{next_time} < {time}"
            )
        if self._run_until is not None and time > self._run_until:
            raise ValueError(
                f"cannot fast-forward past the run bound: "
                f"{time} > {self._run_until}"
            )
        self._now = float(time)

    def schedule(
        self,
        time: float,
        action: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``action`` at absolute simulated ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule event in the past: {time} < now {self._now}"
            )
        return self._queue.push(time, action, priority=priority)

    def schedule_after(
        self,
        delay: float,
        action: Callable[[], None],
        priority: int = 0,
    ) -> Event:
        """Schedule ``action`` after a non-negative ``delay``."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        return self._queue.push(self._now + delay, action, priority=priority)

    def run(
        self,
        until: float | None = None,
        max_events: int | None = None,
    ) -> float:
        """Process events until the queue drains or a limit is reached.

        Args:
            until: Stop once the next event would fire after this time.
                The clock is advanced to ``until`` in that case.
            max_events: Safety valve against runaway simulations.

        Returns:
            The simulated time when processing stopped.
        """
        self._run_until = until
        processed = 0
        queue = self._queue
        try:
            while queue:
                next_time = queue.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    return self._now
                event = queue.pop()
                self._now = event.time
                if event.action is not None:
                    event.action()
                self._events_processed += 1
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
        finally:
            self._run_until = None
        if until is not None and self._now < until:
            self._now = until
        return self._now
