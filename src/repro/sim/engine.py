"""Event-driven simulation kernel.

The kernel is intentionally small: a heap of timestamped events,
a virtual clock, and helpers for timers.  Every component of the
serverless-edge architecture (clients, shim nodes, executors, verifier,
cloud control plane) is driven exclusively by callbacks scheduled here, so
a run is fully deterministic given the same seeds and configuration.

Hot-path layout: heap entries are plain lists ``[time, seq, callback,
args]`` rather than objects, so ``heapq`` compares them with C list
comparison (``seq`` is unique, so the comparison never reaches the
callback).  :meth:`Simulator.schedule_fast` pushes such an entry without
allocating a cancellation handle — the right call for the fire-and-forget
events that dominate a run (message deliveries, CPU job completions).
Cancelled events are marked by nulling the callback slot and are physically
removed in batches once they make up half the queue, so a workload that
cancels many timers (client timeouts, per-request consensus timers) never
degrades into scanning dead entries.
"""

from __future__ import annotations

import gc
import heapq
from typing import Any, Callable, List, Optional

from repro.errors import SimulationError
from repro.perf import PERF

_heappush = heapq.heappush
_heappop = heapq.heappop

#: Index of the callback slot inside a heap entry; ``None`` marks the entry
#: cancelled.  The arguments (slot 3) follow it.
_CB = 2
#: Compaction triggers when at least this many cancelled entries exist AND
#: they outnumber the live ones.
_COMPACT_MIN_CANCELLED = 256


class Event:
    """A cancellable handle to a scheduled callback.

    Events are ordered by ``(time, seq)``; ``seq`` is a strictly
    increasing tie-breaker so events scheduled earlier run earlier when
    timestamps collide, keeping runs deterministic.  The handle wraps the
    underlying heap entry; cancelling nulls the entry's callback so the
    simulator skips (and eventually compacts) it.
    """

    __slots__ = ("_entry", "_sim")

    def __init__(self, entry: list, sim: "Simulator") -> None:
        self._entry = entry
        self._sim = sim

    @property
    def time(self) -> float:
        return self._entry[0]

    @property
    def seq(self) -> int:
        return self._entry[1]

    @property
    def cancelled(self) -> bool:
        return self._entry[_CB] is None

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when it is popped."""
        entry = self._entry
        if entry[_CB] is not None:
            entry[_CB] = None
            entry[3] = ()
            self._sim._note_cancelled()

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        callback = self._entry[_CB]
        name = getattr(callback, "__qualname__", repr(callback))
        return f"Event(t={self._entry[0]:.6f}, cb={name}, cancelled={callback is None})"


class Simulator:
    """A minimal, deterministic discrete-event simulator.

    Virtual time is measured in seconds.  The simulator never looks at the
    wall clock; benchmark throughput/latency numbers are derived purely
    from virtual time plus the calibrated cost model.
    """

    def __init__(self) -> None:
        self._queue: List[list] = []
        self._seq = 0
        self._now = 0.0
        self._events_processed = 0
        self._running = False
        self._cancelled = 0

    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        """Number of events still queued (cancelled ones included)."""
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
    ) -> Event:
        """Schedule ``callback(*args)`` at an absolute virtual time."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time} before the current time t={self._now}"
            )
        self._seq += 1
        entry = [time, self._seq, callback, args]
        _heappush(self._queue, entry)
        return Event(entry, self)

    def schedule_fast(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget scheduling: no cancellation handle allocated.

        The hot path used by the network and CPU resources, whose events are
        never cancelled.  A negative delay would silently rewind the virtual
        clock, so it still fails fast like :meth:`schedule`.
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        self._seq += 1
        _heappush(self._queue, [self._now + delay, self._seq, callback, args])

    # ------------------------------------------------------------------ queue upkeep

    def _note_cancelled(self) -> None:
        self._cancelled += 1
        if (
            self._cancelled >= _COMPACT_MIN_CANCELLED
            and self._cancelled * 2 > len(self._queue)
        ):
            self._compact()

    def _compact(self) -> None:
        """Physically remove cancelled entries and re-heapify (batched).

        In place: :meth:`run` holds the queue in a local across callbacks.
        """
        PERF.events_compacted += self._cancelled
        queue = self._queue
        queue[:] = [entry for entry in queue if entry[_CB] is not None]
        heapq.heapify(queue)
        self._cancelled = 0

    # ------------------------------------------------------------------ running

    def step(self) -> bool:
        """Run the next non-cancelled event.  Returns False if none remain."""
        queue = self._queue
        while queue:
            entry = _heappop(queue)
            callback = entry[_CB]
            if callback is None:
                self._cancelled -= 1
                continue
            self._now = entry[0]
            self._events_processed += 1
            args = entry[3]
            entry[_CB] = None  # a late cancel() of this entry must be a no-op
            entry[3] = ()
            callback(*args)
            return True
        return False

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue drains, ``until`` is reached, or ``max_events``.

        Returns the virtual time at which the run stopped.
        """
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        queue = self._queue
        pop = _heappop
        horizon = float("inf") if until is None else until
        # Counts down to zero; a negative budget (no limit) never gets there.
        budget = -1 if max_events is None else max(max_events, 0)
        # The event loop allocates millions of small, mostly-immutable,
        # acyclic objects per simulated second (messages, results, heap
        # entries); cyclic-GC passes over them find nothing yet cost ~25% of
        # the loop.  Reference counting reclaims the garbage either way, so
        # suspend the cyclic collector for the duration of the run and let
        # the normal threshold-driven collector catch any cycles afterwards
        # (no forced collection — see the finally block).  Virtual-time
        # behaviour is unaffected.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while budget:
                if queue:
                    # Peek before popping: the until bound must leave the
                    # next event queued.
                    entry = queue[0]
                    callback = entry[_CB]
                    if callback is None:
                        pop(queue)
                        self._cancelled -= 1
                        continue
                    event_time = entry[0]
                    if event_time <= horizon:
                        pop(queue)
                        self._now = event_time
                        self._events_processed += 1
                        budget -= 1
                        args = entry[3]
                        entry[_CB] = None  # a late cancel() of this entry must be a no-op
                        entry[3] = ()
                        callback(*args)
                        continue
                # Drained, or the next event lies past the horizon.
                if until is not None and until > self._now:
                    self._now = until
                break
        finally:
            self._running = False
            if gc_was_enabled:
                # No forced collection — and no *immediate* threshold-driven
                # one either: the run left the allocation counters sky-high,
                # so the first allocation after enable() would trigger a full
                # pass over everything the run retained (~0.5s on the default
                # point).  Freezing parks those survivors in the permanent
                # generation and resets the counters; unfreezing right after
                # returns them to the oldest generation, to wait for the next
                # natural gen-2 collection — which a process that runs points
                # back to back never reaches.  So the sweep runner's point
                # primitive (``repro.sweep.runner._timed_simulate``) pauses
                # the collector itself before the build: this branch is
                # skipped there, and the primitive reclaims the finished
                # deployment in one young-generation pass.  Also skipped
                # when the embedding process froze objects of its own
                # (unfreeze would release those too).
                if gc.get_freeze_count() == 0:
                    gc.freeze()
                    gc.enable()
                    gc.unfreeze()
                else:
                    gc.enable()
        return self._now

    def run_until_idle(self, max_events: Optional[int] = None) -> float:
        """Run until no events remain (or ``max_events`` were executed)."""
        return self.run(until=None, max_events=max_events)
