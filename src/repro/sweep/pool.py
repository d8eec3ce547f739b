"""The warm worker pool of the one executor.

A cold ``ProcessPoolExecutor`` pays interpreter start-up plus the full
``repro`` import graph in every worker, for every ``run_sweep`` call — and
``repro.api.run_replicates`` is a ``run_sweep`` call — a fixed tax per
*invocation* that the replicate axis multiplies.  ``run_sweep`` is this
module's only client: it keeps one process-global pool alive and hands it
to every call that asks for the same worker count, so the tax is paid once
per process instead of once per call.

Correctness notes:

* Runtime-registered scenarios and systems are **not** baked into the pool
  at spawn time (a pool created before a ``register_scenario`` call must
  still serve points using it): the task function re-registers them per
  task, which is a handful of idempotent dict writes.
* Workers are warmed by an initializer that imports the deployment stack,
  so the first point scheduled on each worker does not pay the import cost
  inside its measured wall-clock.
* A pool that broke (worker crash) or whose processes were killed by the
  stall-budget timeout is discarded; the next caller gets a fresh spawn.

``pool_spawn_count()`` exposes how many pools this process created — CI
asserts that ``run_replicates``, ``run_sweep`` and ``run_replicates`` again,
interleaved, spawn exactly one.
"""

from __future__ import annotations

import atexit
from concurrent.futures import ProcessPoolExecutor
from typing import Optional

_POOL: Optional[ProcessPoolExecutor] = None
_POOL_WORKERS = 0
_SPAWNS = 0


def _warm_worker() -> None:
    """Per-worker initializer: pay the import graph once, before any task."""
    import repro.api.facade  # noqa: F401  (pulls core/cloud/crypto/sim/workload)
    import repro.sweep.runner  # noqa: F401
    import repro.sweep.serialization  # noqa: F401


def pool_spawn_count() -> int:
    """How many worker pools this process has spawned so far."""
    return _SPAWNS


def get_shared_pool(workers: int) -> ProcessPoolExecutor:
    """The process-global pool for ``workers`` workers, spawning if needed.

    A live pool with the same worker count is reused; a broken pool or a
    different worker count shuts the old pool down and spawns a fresh one.
    """
    global _POOL, _POOL_WORKERS, _SPAWNS
    pool = _POOL
    if pool is not None:
        if _POOL_WORKERS == workers and not getattr(pool, "_broken", False):
            return pool
        pool.shutdown(wait=False, cancel_futures=True)
        _POOL = None
    pool = ProcessPoolExecutor(max_workers=workers, initializer=_warm_worker)
    _POOL = pool
    _POOL_WORKERS = workers
    _SPAWNS += 1
    return pool


def discard_shared_pool(terminate: bool = False) -> None:
    """Drop the shared pool (e.g. after a stall-budget kill).

    With ``terminate=True`` the pool's worker processes are killed first —
    the caller decided they are stuck; a plain shutdown would block on them.
    """
    global _POOL
    pool = _POOL
    _POOL = None
    if pool is None:
        return
    processes = list((getattr(pool, "_processes", None) or {}).values())
    pool.shutdown(wait=False, cancel_futures=True)
    if terminate:
        for process in processes:
            process.terminate()


@atexit.register
def _shutdown_at_exit() -> None:  # pragma: no cover - interpreter teardown
    discard_shared_pool()
