"""Simulated processes and CPU resources.

The real system runs ResilientDB's multi-threaded, pipelined consensus stack
on every shim node.  We model the compute side of that stack with
:class:`CpuResource`: a node with ``cores`` cores can serve up to ``cores``
message-handling jobs in parallel; further jobs queue FIFO.  This is what
makes throughput saturate under client congestion (Figure 5) and improve
with more cores (Figure 6 ix/x), exactly as in the paper.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Optional, Tuple

from repro.errors import SimulationError
from repro.perf import PERF
from repro.sim.engine import Simulator


class CpuResource:
    """A multi-core FIFO processing resource attached to a simulated node.

    Jobs beyond the core count wait in an intrusive FIFO; when a running
    job completes, the next queued job's completion is scheduled directly
    through the kernel's fire-and-forget fast path
    (``PERF.cpu_jobs_coalesced`` counts the jobs chained this way).
    """

    def __init__(self, sim: Simulator, cores: int, name: str = "cpu") -> None:
        if cores <= 0:
            raise SimulationError("a CPU resource needs at least one core")
        self._sim = sim
        self._schedule_fast = sim.schedule_fast
        self._cores = cores
        self._name = name
        self._busy = 0
        self._pending: Deque[Tuple[float, Callable[[], Any]]] = deque()
        self._busy_time = 0.0
        self._jobs_done = 0
        self._speed_factor = 1.0

    @property
    def cores(self) -> int:
        return self._cores

    @property
    def busy_cores(self) -> int:
        return self._busy

    @property
    def queued_jobs(self) -> int:
        return len(self._pending)

    @property
    def busy_time(self) -> float:
        """Total core-seconds of work executed so far."""
        return self._busy_time

    @property
    def jobs_done(self) -> int:
        return self._jobs_done

    @property
    def speed_factor(self) -> float:
        return self._speed_factor

    def set_speed_factor(self, factor: float) -> None:
        """Stretch (>1) or restore (=1) service times of *future* submissions.

        Used by fault timelines to model a degraded node.  Applied at submit
        time only, so flipping the factor never reshuffles in-flight jobs.
        """
        if factor <= 0:
            raise SimulationError("speed factor must be positive")
        self._speed_factor = factor

    def utilisation(self, elapsed: float) -> float:
        """Average utilisation over ``elapsed`` seconds of virtual time."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self._busy_time / (elapsed * self._cores))

    def submit(self, service_time: float, on_done: Callable[..., Any], *args: Any) -> None:
        """Submit a job needing ``service_time`` core-seconds.

        ``on_done(*args)`` runs when the job finishes (possibly after
        queueing).  Passing arguments explicitly instead of closing over
        them saves a closure allocation per message on the dispatch hot
        paths.  Zero-cost jobs complete immediately without occupying a
        core.
        """
        if service_time < 0:
            raise SimulationError("service_time must be non-negative")
        if service_time == 0:
            on_done(*args)
            return
        if self._speed_factor != 1.0:
            service_time *= self._speed_factor
        if self._busy < self._cores:
            self._busy += 1
            self._busy_time += service_time
            # Job completions are never cancelled: take the kernel's fast path.
            self._schedule_fast(service_time, self._finish, on_done, args)
        else:
            self._pending.append((service_time, on_done, args))

    def _finish(self, on_done: Callable[..., Any], args: Tuple[Any, ...]) -> None:
        self._jobs_done += 1
        pending = self._pending
        if pending:
            # Chain the next queued job's completion before running this
            # job's callback, exactly where the un-chained code started it:
            # the fresh seq is allocated at the same instant, so tie-breaking
            # against any event the callback schedules is unchanged.
            service_time, queued_on_done, queued_args = pending.popleft()
            self._busy_time += service_time
            self._schedule_fast(service_time, self._finish, queued_on_done, queued_args)
            PERF.cpu_jobs_coalesced += 1
        else:
            self._busy -= 1
        on_done(*args)


class SimProcess:
    """Base class for every simulated actor (client, node, executor, verifier).

    A process owns an identity, a region, an optional CPU resource, and helper
    methods for scheduling timers.  Subclasses implement ``on_message`` to
    receive network deliveries.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        region: str,
        cores: Optional[int] = None,
    ) -> None:
        self._sim = sim
        self._name = name
        self._region = region
        self._cpu = CpuResource(sim, cores, name=f"{name}.cpu") if cores else None

    @property
    def sim(self) -> Simulator:
        return self._sim

    @property
    def name(self) -> str:
        return self._name

    @property
    def region(self) -> str:
        return self._region

    @property
    def cpu(self) -> Optional[CpuResource]:
        return self._cpu

    @property
    def now(self) -> float:
        return self._sim.now

    def set_timer(self, delay: float, callback: Callable[..., Any], *args: Any):
        """Schedule a cancellable timer owned by this process."""
        return self._sim.schedule(delay, callback, *args)

    def set_timer_fast(self, delay: float, callback: Callable[..., Any], *args: Any) -> None:
        """Fire-and-forget timer: no cancellation handle, kernel fast path.

        For delays that are never cancelled (service-time modelling,
        processing pipelines); same ordering semantics as :meth:`set_timer`.
        """
        self._sim.schedule_fast(delay, callback, *args)

    def process(self, service_time: float, on_done: Callable[..., Any], *args: Any) -> None:
        """Consume CPU time before running ``on_done(*args)`` (no CPU ⇒ immediate).

        Arguments must be values whose evaluation *now* is equivalent to
        evaluating them at completion time (use a closure when a late read
        matters, e.g. the current primary after a possible view change).
        """
        cpu = self._cpu
        if cpu is None or service_time <= 0:
            on_done(*args)
            return
        # CpuResource.submit's start-or-queue step, written out here: every
        # delivered message passes through, and calling submit would unpack
        # and re-pack ``args`` inside one more frame.
        if cpu._speed_factor != 1.0:
            service_time *= cpu._speed_factor
        if cpu._busy < cpu._cores:
            cpu._busy += 1
            cpu._busy_time += service_time
            cpu._schedule_fast(service_time, cpu._finish, on_done, args)
        else:
            cpu._pending.append((service_time, on_done, args))

    def process_parallel(
        self,
        total_time: float,
        parallelism: int,
        on_done: Callable[..., Any],
        *args: Any,
    ) -> None:
        """Consume ``total_time`` core-seconds of perfectly parallel work.

        The work is modelled as a single job whose duration is the total
        divided by the usable parallelism (bounded by the node's core count).
        This is how batched signature verification exploits ResilientDB's
        worker threads in the real system.
        """
        if self._cpu is None or total_time <= 0:
            on_done(*args)
            return
        usable = max(1, min(self._cpu.cores, parallelism))
        self._cpu.submit(total_time / usable, on_done, *args)

    def on_message(self, message: Any, sender: str) -> None:  # pragma: no cover - interface
        """Handle a delivered network message.  Subclasses override."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"{type(self).__name__}({self._name!r}, region={self._region!r})"
