"""Core discrete-event simulation engine.

The engine maintains a priority queue of timestamped events.  Each event is a
callback plus its arguments.  Events scheduled for the same timestamp execute
in the order they were scheduled (FIFO), which keeps runs deterministic.

Two scheduling paths share one queue:

* :meth:`Simulator.schedule` / :meth:`Simulator.schedule_at` return an
  :class:`EventHandle` that can be cancelled — the queue holds
  ``(time, seq, handle)`` tuples.
* :meth:`Simulator.schedule_call` is the allocation-free fast path for
  fire-and-forget events (the bulk of a wireless simulation's queue): it
  pushes a plain ``(time, seq, callback, args)`` tuple, so no handle object,
  no kwargs dict and no cancellation bookkeeping exist for these events.

Both entry shapes compare at C speed — the unique sequence number decides
ties before the third element is ever looked at — so the two paths interleave
in exact FIFO-per-timestamp order.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Dict, Optional

from repro.simulation.random_streams import RandomStreams


class SimulationError(RuntimeError):
    """Raised for invalid uses of the simulation engine."""


class EventHandle:
    """Handle to a scheduled event, usable to cancel it.

    A handle becomes inactive once the event has fired or been cancelled.
    """

    __slots__ = ("callback", "args", "kwargs", "time", "cancelled", "fired", "_sim")

    def __init__(self, time: float, callback: Callable[..., Any], args: tuple, kwargs: dict,
                 sim: "Optional[Simulator]" = None):
        self.time = time
        self.callback = callback
        self.args = args
        self.kwargs = kwargs
        self.cancelled = False
        self.fired = False
        self._sim = sim

    @property
    def active(self) -> bool:
        """Whether the event is still pending (not cancelled, not fired)."""
        return not self.cancelled and not self.fired

    def cancel(self) -> None:
        """Cancel the event; a no-op if it already fired."""
        if not self.fired and not self.cancelled:
            self.cancelled = True
            if self._sim is not None:
                # Still queued (it has not fired): the run loop discards it.
                self._sim._cancelled += 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "fired" if self.fired else ("cancelled" if self.cancelled else "pending")
        return f"<EventHandle t={self.time:.6f} {state} {getattr(self.callback, '__name__', self.callback)}>"


class Simulator:
    """Deterministic discrete-event simulator.

    Parameters
    ----------
    seed:
        Base seed for all named random streams (see :class:`RandomStreams`).

    Example
    -------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.0, fired.append, "a")
    >>> _ = sim.schedule(1.0, fired.append, "b")
    >>> sim.run()
    >>> fired
    ['b', 'a']
    """

    def __init__(self, seed: int = 0):
        # The queue holds plain (time, sequence, handle) tuples — or
        # (time, sequence, callback, args) for the schedule_call fast path:
        # tuple comparison runs at C speed and the unique sequence number
        # means the third element is never compared.
        self._queue: list[tuple] = []
        self._sequence = itertools.count()
        #: Current simulated time in seconds (set by the run loop only).
        self.now = 0.0
        self._running = False
        #: Whether :meth:`stop` was requested for the current run.
        #: Batch-processing events (e.g. the wireless medium's batched frame
        #: delivery) poll this between logical sub-events so a ``stop()``
        #: issued mid-batch halts exactly where the equivalent per-event
        #: schedule would have.
        self.stopping = False
        # Cancelled handles still in the queue: pending_events subtracts
        # them, so scheduling and firing keep no counter of their own.
        self._cancelled = 0
        self.events_processed = 0
        self.seed = seed
        self.streams = RandomStreams(seed)

    # ------------------------------------------------------------ scheduling
    def schedule(self, delay: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> EventHandle:
        """Schedule ``callback(*args, **kwargs)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        # Inlined schedule_at: this is the hottest call in the simulator.
        time = self.now + delay
        handle = EventHandle(time, callback, args, kwargs, sim=self)
        heapq.heappush(self._queue, (time, next(self._sequence), handle))
        return handle

    def schedule_at(self, time: float, callback: Callable[..., Any], *args: Any, **kwargs: Any) -> EventHandle:
        """Schedule ``callback`` at an absolute simulated time."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule an event at {time}, which is before now ({self.now})"
            )
        handle = EventHandle(time, callback, args, kwargs, sim=self)
        heapq.heappush(self._queue, (time, next(self._sequence), handle))
        return handle

    def schedule_call(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Allocation-free fast path: schedule a fire-and-forget callback.

        Unlike :meth:`schedule` this returns no handle (the event cannot be
        cancelled) and accepts no kwargs, so nothing is allocated beyond the
        queue tuple itself.  Ordering relative to :meth:`schedule` events is
        identical — both consume the same sequence counter.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event in the past (delay={delay})")
        heapq.heappush(self._queue, (self.now + delay, next(self._sequence), callback, args))

    def reserve_slot(self) -> int:
        """Consume and return a sequence number for :meth:`schedule_reserved`.

        Lets an event that processes a batch of logical sub-events reserve
        its ordering slot *before* running any of them, so a continuation
        enqueued mid-batch (see the wireless medium's stop/resume handling)
        still sorts ahead of everything the sub-events scheduled.
        """
        return next(self._sequence)

    def schedule_reserved(self, slot: int, callback: Callable[..., Any], *args: Any) -> None:
        """Enqueue ``callback`` at the current time under a reserved slot."""
        heapq.heappush(self._queue, (self.now, slot, callback, args))

    def cancel(self, handle: Optional[EventHandle]) -> None:
        """Cancel a previously scheduled event (safe to pass ``None``)."""
        if handle is not None:
            handle.cancel()

    # --------------------------------------------------------------- running
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until`` is reached, or ``max_events`` fire.

        ``until`` is inclusive: events scheduled exactly at ``until`` execute.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        self._running = True
        self.stopping = False
        processed = 0
        queue = self._queue
        heappop = heapq.heappop
        try:
            while queue:
                if self.stopping:
                    break
                event_time = queue[0][0]
                if until is not None and event_time > until:
                    self.now = until
                    break
                entry = heappop(queue)
                if len(entry) == 4:
                    # schedule_call fast path: no handle, not cancellable.
                    self.now = event_time
                    entry[2](*entry[3])
                else:
                    handle = entry[2]
                    if handle.cancelled:
                        self._cancelled -= 1
                        continue
                    self.now = event_time
                    handle.fired = True
                    if handle.kwargs:
                        handle.callback(*handle.args, **handle.kwargs)
                    else:
                        handle.callback(*handle.args)
                processed += 1
                if max_events is not None and processed >= max_events:
                    break
            else:
                if until is not None and until > self.now:
                    self.now = until
        finally:
            # Flushed once instead of per event; callbacks that adjust
            # events_processed mid-run (batched delivery) only add to it,
            # so the deferred flush commutes.
            self.events_processed += processed
            self._running = False

    def stop(self) -> None:
        """Stop the run loop after the currently executing event returns."""
        self.stopping = True

    # ------------------------------------------------------------- utilities
    def rng(self, name: str):
        """Return the named deterministic random stream."""
        return self.streams.get(name)

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled entries excluded).

        O(1): the queue length less the cancelled handles still in it (a
        cancel counts one, the run loop's discarding it uncounts it).
        """
        return len(self._queue) - self._cancelled

    def metrics(self) -> Dict[str, float]:
        """Engine counters for a run profile."""
        return {
            "engine.events": float(self.events_processed),
            "engine.pending_at_end": float(self.pending_events),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Simulator t={self.now:.3f} pending={self.pending_events} processed={self.events_processed}>"
