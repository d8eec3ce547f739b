"""Sweep execution: in-process or fanned out across CPU cores.

``run_sweep`` resolves every point of a :class:`~repro.sweep.spec.SweepSpec`
to its content address, serves already-simulated points from the result
store (any :class:`~repro.store.backend.ResultBackend` — JSONL file,
sqlite database, or sharded directory), and simulates the rest — serially
in-process (``workers <= 1``) or on a ``ProcessPoolExecutor`` (``workers >
1``).  Results are bit-identical either way: a worker rebuilds the entire
deployment from the resolved point dict (which pins every config field and
the derived per-point seed), so nothing about scheduling, ordering, or
process boundaries can leak into the simulated run.

Parallel runs harvest results in completion order (each finished point is
written to the result store immediately) and accept a stall budget
(``timeout``): if no point completes for that long, the points still
running are recorded as failed and their workers are killed.  Progress is
reported per point through a callback (the CLI prints ``[sweep] 3/8
simulated batch_size=25 ... (1.9s)`` lines).

``run_sweep`` is the one executor: :func:`repro.api.run` with a store and
:func:`repro.api.run_replicates` run their spec as an ``"api-run"`` sweep
through it and re-raise the exception a failed :class:`PointOutcome` keeps.
"""

from __future__ import annotations

import gc
import logging
import time
from concurrent.futures import FIRST_COMPLETED, BrokenExecutor, wait
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.facade import build_deployment
from repro.api.spec import RunSpec
from repro.core.runner import SimulationResult
from repro.report.aggregate import DEFAULT_SCALAR_METRICS, resolve_result_field
from repro.report.tables import ExperimentTable
from repro.sweep.serialization import result_from_dict, result_to_dict
from repro.sweep.spec import SweepSpec, expand_replicates, point_digest, resolve_point
from repro.errors import ConfigurationError
from repro.store.backend import ResultBackend

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor

logger = logging.getLogger("repro.sweep")

ProgressCallback = Callable[["PointOutcome", int, int], None]


# The worker pool module pulls in multiprocessing, sockets and pickle, 0.6-0.9
# MB of RSS that a serial or single-point process never uses: it is imported
# on first parallel use.  The two names stay attributes of this
# module, so a test can stand in for the pool.


def get_shared_pool(workers: int) -> ProcessPoolExecutor:
    """:func:`repro.sweep.pool.get_shared_pool`, imported when first needed."""
    from repro.sweep import pool

    return pool.get_shared_pool(workers)


def discard_shared_pool(terminate: bool = False) -> None:
    """:func:`repro.sweep.pool.discard_shared_pool`, imported when first needed."""
    from repro.sweep import pool

    pool.discard_shared_pool(terminate)


# ------------------------------------------------------------------ simulating


def _timed_simulate(
    resolved: Mapping[str, object], tracer_enabled: bool = False
) -> Tuple[Dict[str, object], Dict[str, float]]:
    """Simulate one resolved point, separating setup from simulation time.

    The serial path and every pool task both call this, which is what
    makes parallel runs bit-identical to serial.  ``tracer_enabled`` is a
    collection flag, not part of the point's content address: a traced run
    produces the same simulated fingerprint as an untraced one, plus the
    flight-recorder payload riding home on ``result_dict["obs"]``.

    The timing dict records where the host seconds went: ``setup_seconds``
    (deployment construction), ``simulate_seconds`` (the event loop), and
    ``collect_seconds`` (metric collection + serialisation + reclaim).
    Stored next to each result so warm-pool amortisation is measurable from
    the store.

    The point owns its deployment's whole lifetime.  The cyclic collector is
    paused from before the build until the result dict exists; on CPython's
    generational collector everything the point allocated is then still in
    the youngest generation, so once the deployment and the
    :class:`SimulationResult` are dropped one ``gc.collect(0)`` reclaims
    them in O(point), not O(host heap).  The caller's collector setting is
    restored afterwards, also when the point raises.  (Left to itself,
    ``Simulator.run`` parks a finished deployment in the oldest generation,
    which a process that only runs points never collects: loops over points
    belong in :func:`run_sweep` / :func:`repro.api.run_replicates`, not in
    ``repro.api.run(spec)``.)
    """
    collector_was_on = gc.isenabled()
    gc.disable()
    try:
        # lint: ignore[DET001] host wall-clock accounting (feeds `timing`, never a digest)
        started = time.perf_counter()
        deployment = build_deployment(resolved, tracer_enabled=tracer_enabled)
        setup_seconds = time.perf_counter() - started  # lint: ignore[DET001] host timing
        result = deployment.run(
            duration=float(resolved["duration"]),  # type: ignore[arg-type]
            warmup=float(resolved["warmup"]),  # type: ignore[arg-type]
        )
        simulate_seconds = result.wall_clock_seconds
        result_dict = result_to_dict(result)
    finally:
        deployment = result = None
        gc.collect(0)
        if collector_was_on:
            gc.enable()
    total = time.perf_counter() - started  # lint: ignore[DET001] host timing
    timing = {
        "setup_seconds": setup_seconds,
        "simulate_seconds": simulate_seconds,
        "collect_seconds": max(0.0, total - setup_seconds - simulate_seconds),
    }
    return result_dict, timing


# ------------------------------------------------------------------ outcomes


@dataclass
class PointOutcome:
    """What happened to one point of a sweep run."""

    point: RunSpec
    resolved: Dict[str, object]
    digest: str
    result_dict: Optional[Dict[str, object]] = None
    cached: bool = False
    #: What the point failed with, kept as caught (a stalled point holds a
    #: ``TimeoutError``) so ``repro.api.run_replicates`` can re-raise it.
    exception: Optional[BaseException] = None
    #: Host seconds of a simulated point: ``sum(timing.values())`` whichever
    #: path ran it; 0.0 for a cached point, the budget for a stalled one.
    wall_clock_seconds: float = 0.0
    #: Host-side cost split of a simulated point (setup_seconds /
    #: simulate_seconds / collect_seconds); None for cached/failed points.
    timing: Optional[Dict[str, float]] = None
    #: Worker deaths this point survived (a point whose worker process dies
    #: — as opposed to timing out or raising — is retried once on a fresh
    #: pool before being recorded as failed).
    retries: int = 0

    @property
    def ok(self) -> bool:
        return self.result_dict is not None

    @property
    def error(self) -> Optional[str]:
        """``"Type: message"`` of :attr:`exception`, or None."""
        if self.exception is None:
            return None
        return f"{type(self.exception).__name__}: {self.exception}"

    @property
    def status(self) -> str:
        if self.error is not None:
            return "failed"
        return "cached" if self.cached else "simulated"

    @property
    def result(self) -> Optional[SimulationResult]:
        if self.result_dict is None:
            return None
        return result_from_dict(self.result_dict)

    def metric(self, path: str):
        """Look up a dotted path (e.g. ``latency.mean``) in the result dict.

        A path the result does not hold is None (fault-free points carry no
        recovery metrics, say).  ``abort_rate`` is computed for a simulated
        result (it is a property, not a stored field).
        """
        if self.result_dict is None:
            return None
        if path == "abort_rate" and path not in self.result_dict:
            committed = self.result_dict["committed_txns"]
            aborted = self.result_dict["aborted_txns"]
            total = committed + aborted  # type: ignore[operator]
            return aborted / total if total else 0.0  # type: ignore[operator]
        return resolve_result_field(self.result_dict, path)


#: Default table columns (``column name -> result-dict metric path``): the
#: report layer's scalar columns plus the mean latency.
_TABLE_METRICS: Tuple[Tuple[str, str], ...] = (
    *DEFAULT_SCALAR_METRICS,
    ("latency_s", "latency.mean"),
)


@dataclass
class SweepReport:
    """All outcomes of one ``run_sweep`` call, in sweep point order."""

    sweep: SweepSpec
    outcomes: List[PointOutcome] = field(default_factory=list)
    wall_clock_seconds: float = 0.0

    @property
    def simulated(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.ok and not outcome.cached)

    @property
    def cached(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.cached)

    @property
    def failed(self) -> int:
        return sum(1 for outcome in self.outcomes if outcome.error is not None)

    def table(
        self, metrics: Sequence[Tuple[str, str]] = _TABLE_METRICS
    ) -> ExperimentTable:
        """Aggregate the outcomes into an :class:`ExperimentTable`.

        Columns are the union of the points' label keys followed by the
        requested metric columns; failed points are skipped.
        """
        label_columns: List[str] = []
        for outcome in self.outcomes:
            for key in outcome.point.labels:
                if key not in label_columns:
                    label_columns.append(key)
        metric_columns = [name for name, _path in metrics]
        table = ExperimentTable(
            name=self.sweep.name, columns=tuple(label_columns + metric_columns)
        )
        for outcome in self.outcomes:
            if not outcome.ok:
                continue
            row = {key: outcome.point.labels.get(key) for key in label_columns}
            for name, path in metrics:
                row[name] = outcome.metric(path)
            table.add(**row)
        return table

    def summary(self) -> str:
        return (
            f"{self.sweep.name}: {len(self.outcomes)} points — "
            f"simulated={self.simulated} cached={self.cached} failed={self.failed} "
            f"wall={self.wall_clock_seconds:.1f}s"
        )


# ------------------------------------------------------------------ execution

#: Worker-death retries granted per point.
WORKER_RETRY_LIMIT = 1


def _should_retry(exc: BaseException, retries: int, limit: int = WORKER_RETRY_LIMIT) -> bool:
    """Whether a failed point gets another attempt.

    Only a *worker death* (the pool process vanished — OOM kill, segfault,
    interpreter abort — surfacing as :class:`BrokenExecutor`) is retried: the
    point itself may be perfectly fine and merely shared a pool with a
    culprit, since a broken pool poisons every pending future.  A point that
    *raised* is deterministic and would fail again; a stall timeout already
    has its own budget semantics.
    """
    return isinstance(exc, BrokenExecutor) and retries < limit


def _format_labels(point: RunSpec) -> str:
    if not point.labels:
        return "-"
    return " ".join(f"{key}={value}" for key, value in point.labels.items())


def print_progress(outcome: PointOutcome, index: int, total: int) -> None:
    """Default progress reporter: one line per finished point."""
    detail = f" [{outcome.error}]" if outcome.error else ""
    print(
        f"[sweep] {index}/{total} {outcome.status:<9} "
        f"{_format_labels(outcome.point)} digest={outcome.digest[:12]} "
        f"({outcome.wall_clock_seconds:.1f}s){detail}"
    )


def run_sweep(
    sweep: SweepSpec,
    workers: int = 0,
    store: Optional[ResultBackend] = None,
    timeout: Optional[float] = None,
    progress: Optional[ProgressCallback] = None,
    tracer_enabled: bool = False,
) -> SweepReport:
    """Run every point of ``sweep``, skipping points already in ``store``.

    ``workers <= 1`` simulates in-process (serial); ``workers > 1`` fans the
    uncached points out over a process pool and harvests in completion
    order.  ``timeout`` is a stall budget for parallel runs: if no point
    completes within it, the still-running points fail and their workers
    are terminated.  Finished points are written to the store as they
    complete, so an interrupted sweep resumes from where it stopped.

    Points carrying ``replicates=N`` are expanded into N per-seed points
    first (see :func:`repro.sweep.spec.expand_replicates`), so the report's
    outcomes — and the store's records — hold one entry per replicate.
    Points that share a digest simulate once; a point whose pool worker
    dies is re-run once on a fresh pool.

    ``tracer_enabled=True`` runs every simulated point with the flight
    recorder on; the observability payload rides inside each result dict
    (``obs``) across the pool, and the simulated fingerprint — hence the
    store's digest — is unchanged.
    """
    # lint: ignore[DET001] host wall-clock accounting (report wall time, never a digest)
    started = time.perf_counter()
    sweep = expand_replicates(sweep)
    outcomes: List[PointOutcome] = []
    for point in sweep.points:
        try:
            resolved = resolve_point(sweep, point)
        except (ConfigurationError, KeyError, TypeError, ValueError) as exc:
            # Invalid overrides surface as failed points, not a dead sweep:
            # ConfigurationError from validation, Key/Type/ValueError from
            # bad override values reaching the config constructors.
            logger.warning(
                "point %s failed to resolve: %s: %s",
                _format_labels(point), type(exc).__name__, exc,
            )
            outcomes.append(
                PointOutcome(point=point, resolved={}, digest="", exception=exc)
            )
            continue
        outcomes.append(
            PointOutcome(point=point, resolved=resolved, digest=point_digest(resolved))
        )

    total = len(outcomes)
    done = 0
    pending: List[PointOutcome] = []
    for outcome in outcomes:
        if outcome.error is not None:
            done += 1
            if progress is not None:
                progress(outcome, done, total)
            continue
        record = store.get(outcome.digest) if store is not None else None
        if record is not None:
            outcome.result_dict = dict(record["result"])
            outcome.cached = True
            done += 1
            if progress is not None:
                progress(outcome, done, total)
        else:
            pending.append(outcome)

    # Points that share a digest are the *same* simulation; execute one
    # representative each and serve the twins from its result (the pinned-
    # seed replicate-alias case — distinct points always differ in digest).
    executable: List[PointOutcome] = []
    representatives: Dict[str, PointOutcome] = {}
    twin_map: Dict[str, List[PointOutcome]] = {}
    for outcome in pending:
        if outcome.digest in representatives:
            twin_map.setdefault(outcome.digest, []).append(outcome)
        else:
            representatives[outcome.digest] = outcome
            executable.append(outcome)

    def finish(outcome: PointOutcome) -> None:
        nonlocal done
        if outcome.timing is not None:
            outcome.wall_clock_seconds = sum(outcome.timing.values())
        if outcome.ok and store is not None:
            store.put(
                outcome.digest,
                outcome.resolved,
                outcome.result_dict,
                sweep.name,
                timing=outcome.timing,
                retries=outcome.retries,
            )
        done += 1
        if progress is not None:
            progress(outcome, done, total)
        for twin in twin_map.pop(outcome.digest, []):
            if outcome.ok:
                twin.result_dict = dict(outcome.result_dict)
                twin.cached = True
            else:
                twin.exception = outcome.exception
                twin.wall_clock_seconds = outcome.wall_clock_seconds
            done += 1
            if progress is not None:
                progress(twin, done, total)

    retry_queue: List[PointOutcome] = []

    def fail_in_pool(outcome: PointOutcome, exc: BaseException) -> None:
        logger.warning(
            "point %s failed in worker: %s: %s",
            _format_labels(outcome.point), type(exc).__name__, exc,
        )
        outcome.exception = exc
        if _should_retry(exc, outcome.retries):
            # Worker death: the point gets one more attempt on a fresh
            # pool (the broken pool poisons every pending future, so
            # innocent bystander points land here too).
            outcome.retries += 1
            retry_queue.append(outcome)
            return
        finish(outcome)

    def harvest(future, outcome: PointOutcome) -> None:
        try:
            outcome.result_dict, outcome.timing = future.result()
        except Exception as exc:
            # Process-boundary catch: a worker can die (BrokenExecutor) or
            # re-raise literally anything the simulation threw.  Never
            # silent — the failure is logged and recorded on the outcome.
            fail_in_pool(outcome, exc)
            return
        outcome.exception = None
        finish(outcome)

    if workers > 1 and executable:

        def submit(pool, batch: List[PointOutcome]) -> Dict[object, PointOutcome]:
            """Submit ``batch`` to ``pool``; the futures map back to their points.

            A worker that dies while the batch is still being submitted
            breaks the pool under ``submit`` itself: that point and every
            one not yet submitted fail with the same ``BrokenExecutor`` and
            take the worker-death path (:func:`_should_retry`) like a
            future the broken pool poisoned.
            """
            future_map: Dict[object, PointOutcome] = {}
            for index, outcome in enumerate(batch):
                try:
                    future = pool.submit(_timed_simulate, outcome.resolved, tracer_enabled)
                except BrokenExecutor as exc:
                    for unsubmitted in batch[index:]:
                        fail_in_pool(unsubmitted, exc)
                    break
                future_map[future] = outcome
            return future_map

        def drain(future_map) -> bool:
            """Harvest one batch of futures; True if the stall budget hit.

            Harvests in *completion* order so each finished point hits the
            store immediately — an interrupted sweep keeps everything that
            actually completed.  ``timeout`` is a stall budget: if no point
            finishes within it, everything still running is declared failed.
            """
            remaining = set(future_map)
            while remaining:
                completed, remaining = wait(
                    remaining, timeout=timeout, return_when=FIRST_COMPLETED
                )
                if not completed:
                    for future in remaining:
                        future.cancel()
                        outcome = future_map[future]
                        if future.done() and not future.cancelled():
                            # Completed in the race window between wait()
                            # returning empty and this loop: keep the result.
                            harvest(future, outcome)
                            continue
                        outcome.exception = TimeoutError(f"no result within {timeout:g}s")
                        outcome.wall_clock_seconds = float(timeout or 0.0)
                        finish(outcome)
                    return True
                for future in completed:
                    harvest(future, future_map[future])
            return False

        # Warm worker pool: reused across run_sweep / run_replicates calls
        # in this process, so interpreter + import start-up is paid once.
        timed_out = drain(submit(get_shared_pool(workers), executable))
        if retry_queue and not timed_out:
            # A worker died: the shared pool is broken.  Terminate it, spawn
            # a fresh one, and re-run each affected point once (a second
            # death fails the point for good — ``retries`` caps re-queueing).
            discard_shared_pool(terminate=True)
            retries, retry_queue = retry_queue, []
            timed_out = drain(submit(get_shared_pool(workers), retries))
        for outcome in retry_queue:
            # Retry was cut short by a stall timeout: close the point out as
            # failed with its worker-death exception rather than silently.
            finish(outcome)
        if timed_out:
            # A timed-out worker is still executing its point and a plain
            # shutdown would block on it indefinitely; kill the pool's
            # processes and discard it (every live worker belongs to a
            # timed-out point by now) — the next caller spawns fresh.
            discard_shared_pool(terminate=True)
    else:
        for outcome in executable:
            try:
                outcome.result_dict, outcome.timing = _timed_simulate(
                    outcome.resolved, tracer_enabled=tracer_enabled
                )
            except Exception as exc:
                # In-process simulation failure: arbitrary exception type,
                # logged and recorded on the outcome (never swallowed).
                logger.warning(
                    "point %s failed: %s: %s",
                    _format_labels(outcome.point), type(exc).__name__, exc,
                )
                outcome.exception = exc
            finish(outcome)

    return SweepReport(
        sweep=sweep,
        outcomes=outcomes,
        # lint: ignore[DET001] report wall time is host-side accounting
        wall_clock_seconds=time.perf_counter() - started,
    )
