"""Event queue and simulation clock.

The engine keeps a binary heap of ``(time, sequence, callback)`` entries.
Time is measured in *cycles* and stored as an integer; the platform models
only ever schedule whole-cycle delays, which keeps comparisons exact and
the simulation fully deterministic. The ``sequence`` counter breaks ties
between events scheduled for the same cycle in FIFO order, so repeated
runs of the same model produce identical traces.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Optional

from repro.errors import SimulationError

__all__ = ["Engine", "Event"]


class Engine:
    """A deterministic discrete-event simulation engine.

    Example
    -------
    >>> engine = Engine()
    >>> hits = []
    >>> engine.schedule(5, hits.append, 5)
    >>> engine.schedule(2, hits.append, 2)
    >>> engine.run()
    5
    >>> hits
    [2, 5]
    """

    def __init__(self) -> None:
        self._queue: list[tuple[int, int, Callable[..., None], tuple]] = []
        self._now = 0
        self._sequence = 0
        self._running = False
        self._stopped = False

    @property
    def now(self) -> int:
        """Current simulation time in cycles."""
        return self._now

    @property
    def scheduled(self) -> int:
        """Number of events scheduled so far (run or still queued)."""
        return self._sequence

    @property
    def pending_events(self) -> int:
        """Number of events still waiting in the queue."""
        return len(self._queue)

    def schedule(self, delay: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run ``delay`` cycles from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        self.schedule_at(self._now + int(delay), callback, *args)

    def schedule_at(self, time: int, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to run at absolute cycle ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at cycle {time}, current time is {self._now}"
            )
        heapq.heappush(self._queue, (int(time), self._sequence, callback, args))
        self._sequence += 1

    def step(self) -> bool:
        """Execute the single next event.

        Returns ``True`` if an event was executed, ``False`` if the queue
        was empty.
        """
        if not self._queue:
            return False
        time, _seq, callback, args = heapq.heappop(self._queue)
        self._now = time
        callback(*args)
        return True

    def run(self, until: Optional[int] = None) -> int:
        """Run events until the queue drains or the clock reaches ``until``.

        Returns the final simulation time. When ``until`` is given, the
        clock is advanced to exactly ``until`` even if the last event fired
        earlier, mirroring how a hardware simulation runs for a fixed number
        of cycles.
        """
        if self._running:
            raise SimulationError("engine is already running (reentrant run())")
        self._running = True
        self._stopped = False
        try:
            while self._queue and not self._stopped:
                if until is not None and self._queue[0][0] > until:
                    break
                self.step()
        finally:
            self._running = False
        if until is not None and self._now < until and not self._stopped:
            self._now = until
        return self._now

    def stop(self) -> None:
        """Stop a running simulation after the current event completes."""
        self._stopped = True


class Event:
    """A one-shot event that processes may wait on.

    An event starts *untriggered*; calling :meth:`succeed` triggers it
    exactly once, records an optional value, and schedules all registered
    callbacks at the current cycle. Triggering twice is an error: in a
    cycle-accurate model a completion that fires twice is always a bug.
    """

    __slots__ = ("_engine", "_callbacks", "_triggered", "_value")

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        self._callbacks: list[Callable[[Event], None]] = []
        self._triggered = False
        self._value: Any = None

    @property
    def triggered(self) -> bool:
        """Whether :meth:`succeed` has been called."""
        return self._triggered

    @property
    def value(self) -> Any:
        """The value passed to :meth:`succeed` (``None`` until triggered)."""
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event, waking every waiter at the current cycle."""
        if self._triggered:
            raise SimulationError("event has already been triggered")
        self._triggered = True
        self._value = value
        for callback in self._callbacks:
            self._engine.schedule(0, callback, self)
        self._callbacks.clear()
        return self

    def add_callback(self, callback: Callable[["Event"], None]) -> None:
        """Register ``callback(event)``; runs immediately if triggered."""
        if self._triggered:
            self._engine.schedule(0, callback, self)
        else:
            self._callbacks.append(callback)
