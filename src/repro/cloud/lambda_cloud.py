"""Serverless function service simulator (the "AWS Lambda" of the paper).

Shim nodes do not run executors themselves: they ask the serverless cloud to
spawn them.  This module models that control plane:

* spawn latency — a cold start (container provisioning) or a cheaper warm
  start when a recently used sandbox is available in that region;
* per-region concurrency limits (the paper could not scale beyond 21
  concurrently spawned executors because of provider limits);
* unique executor identities (each executor gets its own key pair, per the
  paper's *Identity* assumption);
* accountability and payment — every spawn is billed to the shim node that
  requested it via :class:`repro.cloud.billing.CostModel`, and executors can
  never spawn further executors.

The cloud keeps a record only for invocations in flight: ``finish`` bills
the invocation and drops its handle, and an id it issued is recognised from
the id counter alone (:meth:`ServerlessCloud.issued`).
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.cloud.billing import CostModel
from repro.cloud.regions import RegionCatalog
from repro.errors import CloudError
from repro.sim.engine import Simulator
from repro.sim.rng import DeterministicRNG

_EXECUTOR_ID = re.compile(r"executor-(0|[1-9][0-9]*)\Z")


@dataclass(frozen=True)
class SpawnRequest:
    """A request by a shim node to spawn one executor in one region."""

    spawner: str
    region: str
    payload: Any


@dataclass
class ExecutorHandle:
    """Book-keeping record for one spawned executor instance."""

    executor_id: str
    region: str
    spawner: str
    spawn_time: float
    start_time: Optional[float] = None
    finish_time: Optional[float] = None
    cost: float = 0.0

    @property
    def duration(self) -> float:
        if self.start_time is None or self.finish_time is None:
            return 0.0
        return self.finish_time - self.start_time


class _RegionState:
    """Concurrency and warm-pool state of one region."""

    def __init__(self, concurrency_limit: int) -> None:
        self.concurrency_limit = concurrency_limit
        self.running = 0
        self.warm_sandboxes = 0
        self.queue: Deque[Callable[[], None]] = deque()


class ServerlessCloud:
    """A multi-region serverless function service.

    The cloud is given an ``executor_factory`` callback by the deployment
    runner: ``factory(executor_id, region, spawner, payload)`` must create
    the executor process, register it on the network, and start executing the
    payload.  The cloud only controls *when* that happens (spawn latency,
    concurrency limits) and *what it costs*.
    """

    def __init__(
        self,
        sim: Simulator,
        catalog: RegionCatalog,
        cost_model: CostModel,
        rng: DeterministicRNG,
        executor_factory: Optional[Callable[..., Any]] = None,
        cold_start_latency: float = 0.150,
        warm_start_latency: float = 0.015,
        concurrency_limit_per_region: int = 1000,
        allow_executor_spawns: bool = False,
    ) -> None:
        self._sim = sim
        self._catalog = catalog
        self._cost_model = cost_model
        self._rng = rng
        self._factory = executor_factory
        self._cold_start = cold_start_latency
        self._warm_start = warm_start_latency
        self._allow_executor_spawns = allow_executor_spawns
        self._regions: Dict[str, _RegionState] = {
            name: _RegionState(concurrency_limit_per_region) for name in catalog.names
        }
        self._handles: Dict[str, ExecutorHandle] = {}
        self._spawn_count = 0
        self._rejected_spawns = 0

    @property
    def spawn_count(self) -> int:
        return self._spawn_count

    @property
    def rejected_spawns(self) -> int:
        return self._rejected_spawns

    @property
    def handles(self) -> List[ExecutorHandle]:
        """The invocations still in flight (spawned, not yet finished)."""
        return list(self._handles.values())

    @property
    def cost_model(self) -> CostModel:
        return self._cost_model

    def set_executor_factory(self, factory: Callable[..., Any]) -> None:
        self._factory = factory

    def issued(self, executor_id: str) -> bool:
        """Whether this cloud has handed out ``executor_id`` (ids count up from 0)."""
        match = _EXECUTOR_ID.match(executor_id)
        return match is not None and int(match.group(1)) < self._spawn_count

    def running_executors(self, region: Optional[str] = None) -> int:
        if region is not None:
            return self._region_state(region).running
        return sum(state.running for state in self._regions.values())

    def spawn(self, request: SpawnRequest) -> ExecutorHandle:
        """Spawn one executor.  Returns the handle immediately; the executor
        itself starts running after the (cold or warm) start latency, or once
        a concurrency slot frees up."""
        if self._factory is None:
            raise CloudError("the serverless cloud has no executor factory configured")
        if request.region not in self._regions:
            raise CloudError(f"unknown region {request.region!r}")
        if not self._allow_executor_spawns and self.issued(request.spawner):
            # Accountability: executors cannot spawn further executors.
            self._rejected_spawns += 1
            raise CloudError(
                f"executor {request.spawner!r} attempted to spawn an executor; rejected"
            )
        executor_id = f"executor-{self._spawn_count}"
        handle = ExecutorHandle(
            executor_id=executor_id,
            region=request.region,
            spawner=request.spawner,
            spawn_time=self._sim.now,
        )
        self._handles[executor_id] = handle
        self._spawn_count += 1
        state = self._region_state(request.region)

        def launch() -> None:
            if state.warm_sandboxes > 0:
                state.warm_sandboxes -= 1
                latency = self._warm_start
            else:
                latency = self._cold_start + self._rng.uniform(0.0, self._cold_start * 0.2)
            # Launches are never cancelled: fire-and-forget fast path.
            self._sim.schedule_fast(latency, self._start_executor, handle, request)

        if state.running < state.concurrency_limit:
            state.running += 1
            launch()
        else:
            state.queue.append(lambda: (self._occupy_and_launch(state, launch)))
        return handle

    def spawn_many(self, spawner: str, regions: List[str], payload: Any) -> List[ExecutorHandle]:
        """Spawn one executor per entry of ``regions`` for the same payload."""
        return [
            self.spawn(SpawnRequest(spawner=spawner, region=region, payload=payload))
            for region in regions
        ]

    def finish(self, executor_id: str) -> None:
        """Report that an executor finished: free its slot, bill the spawner and
        drop the invocation's record.  Finishing a retired executor again is a
        no-op."""
        handle = self._handles.pop(executor_id, None)
        if handle is None:
            if self.issued(executor_id):
                return
            raise CloudError(f"unknown executor {executor_id!r}")
        handle.finish_time = self._sim.now
        state = self._region_state(handle.region)
        state.running = max(0, state.running - 1)
        state.warm_sandboxes += 1
        handle.cost = self._cost_model.charge_invocation(handle.spawner, handle.duration)
        if state.queue:
            next_launch = state.queue.popleft()
            next_launch()

    # ------------------------------------------------------------------ internals

    def _occupy_and_launch(self, state: _RegionState, launch: Callable[[], None]) -> None:
        state.running += 1
        launch()

    def _start_executor(self, handle: ExecutorHandle, request: SpawnRequest) -> None:
        handle.start_time = self._sim.now
        self._factory(handle.executor_id, request.region, request.spawner, request.payload)

    def _region_state(self, region: str) -> _RegionState:
        try:
            return self._regions[region]
        except KeyError:
            raise CloudError(f"unknown region {region!r}")
