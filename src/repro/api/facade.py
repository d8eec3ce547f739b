"""The front door: ``run(RunSpec) -> SimulationResult``.

Everything user-facing funnels through here — examples, the sweep runner
(and so every figure preset), and the CLI all resolve a spec to a plain-JSON dict
(:func:`~repro.api.spec.resolve`), build the deployment from the table of
the four systems (:func:`build_deployment`), and run it.  One resolution
path, one knob-validation path, one construction path: a point simulated by
``repro.api.run`` is bit-identical to the same point simulated by a sweep
worker on another core.  Runs that touch a result store or a worker pool go
through the one executor, :func:`repro.sweep.run_sweep`.
"""

from __future__ import annotations

import dataclasses
from typing import List, Mapping, Optional

from repro.api.registry import get_system
from repro.api.spec import (
    RunSpec,
    compose_runner_kwargs,
    replicate_specs,
    resolve,
    run_seed,
)
from repro.core.config import ConflictMode, ProtocolConfig, SpawnPolicyName
from repro.core.runner import SimulationResult
from repro.errors import ConfigurationError
from repro.workload.ycsb import YCSBConfig


# ------------------------------------------------------------------ config rebuilding


def protocol_config_from_dict(payload: Mapping[str, object]) -> ProtocolConfig:
    """Rebuild a :class:`ProtocolConfig` from its JSONified ``asdict`` form."""
    data = dict(payload)
    data["spawn_policy"] = SpawnPolicyName(data["spawn_policy"])
    data["conflict_mode"] = ConflictMode(data["conflict_mode"])
    return ProtocolConfig(**data)  # type: ignore[arg-type]


def workload_config_from_dict(payload: Mapping[str, object]) -> YCSBConfig:
    return YCSBConfig(**dict(payload))  # type: ignore[arg-type]


# ------------------------------------------------------------------ resolve / build / run


def build_deployment(resolved: Mapping[str, object], tracer_enabled: bool = False):
    """Construct the deployment a resolved run describes (any system kind).

    The composed scenarios' runner knobs are built fresh in the executing
    process (:func:`~repro.api.spec.compose_runner_kwargs`).  The selected
    system's adapter validates every knob against the knobs it accepts
    before construction — the one place unsupported-knob errors come from.
    """
    adapter = get_system(str(resolved["system"]))
    kwargs = compose_runner_kwargs(resolved["scenarios"], resolved)
    config = protocol_config_from_dict(resolved["config"])  # type: ignore[arg-type]
    workload = workload_config_from_dict(resolved["workload"])  # type: ignore[arg-type]
    return adapter.build(
        config,
        workload,
        execution_threads=int(resolved["execution_threads"]),  # type: ignore[arg-type]
        tracer_enabled=tracer_enabled,
        **kwargs,
    )


def spec_digest(spec: RunSpec) -> str:
    """The run's content address — the same key sweeps file results under.

    SHA-256 of the fully resolved run (labels excluded), so an ad-hoc
    ``repro.api.run`` and a sweep point with the same resolved configuration
    share one cache entry.  Not to be confused with :func:`result_digest`,
    which fingerprints a finished result's simulated metrics.
    """
    from repro.sweep.spec import point_digest

    return point_digest(resolve(spec))


def run(spec: RunSpec, store=None) -> SimulationResult:
    """Resolve, build, and run one deployment — the single front door.

    Without a ``store`` this is the primitive: the deployment is built right
    here.  It leaves the finished deployment to the caller's cyclic
    collector, which in a process that does nothing but run points may never
    get to it.  A one-shot call
    gets that memory back at process exit for free, where collecting here
    would cost every call a pass over the dead deployment (≈0.05 s on the
    default point at 3 virtual seconds).  A loop over points should
    therefore call :func:`run_replicates` or :func:`repro.sweep.run_sweep`,
    whose point primitive reclaims each deployment as its point ends.

    ``store`` (any :class:`repro.store.ResultBackend`, or a store URL —
    a JSONL path, ``sqlite://path.db``, or ``shard://dir``) runs the spec
    as a one-point sweep through :func:`repro.sweep.run_sweep`: the run's
    content address (:func:`spec_digest`) is looked up before building
    anything, and a finished run is appended to the store so the next
    identical ``run`` call never re-simulates.  The backend choice is
    host-side bookkeeping — it never affects the content address or the
    result.
    """
    if spec.replicates != 1:
        raise ConfigurationError(
            f"spec declares replicates={spec.replicates}; use "
            f"repro.api.run_replicates to run the whole family"
        )
    if store is not None:
        return run_replicates(spec, store=store)[0]
    resolved = resolve(spec)
    deployment = build_deployment(resolved, tracer_enabled=spec.tracer_enabled)
    return deployment.run(
        duration=float(resolved["duration"]), warmup=float(resolved["warmup"])
    )


def run_replicates(
    spec: RunSpec,
    store=None,
    workers: int = 0,
    timeout: Optional[float] = None,
) -> List[SimulationResult]:
    """Run every replicate of a spec, in replicate order.

    The family is one sweep — ``run_sweep(SweepSpec("api-run",
    replicate_specs(spec)))`` — so :func:`run`, ``run_replicates`` and
    :func:`repro.sweep.run_sweep` share one executor: with a ``store``
    every replicate is looked up, cached and resumed individually (a re-run
    is a 100% cache hit); ``workers > 1`` fans the uncached replicates out
    over the shared warm worker pool (``repro.sweep.pool``), reused by
    every call with the same worker count; results persist in completion
    order; a replicate whose worker *dies* is re-run once on a fresh pool;
    and ``timeout`` is the stall budget (no replicate completing within it
    kills the pool's workers).  Results are bit-identical whichever path
    ran them, and ``tracer_enabled`` is honoured on all of them.

    The first failure in replicate order is re-raised — a stall as a
    ``TimeoutError`` — after every finished sibling is in the store.
    The unpinned seed is pinned first (:func:`run_seed`), so a family
    resolves exactly as :func:`resolve` would, not with a seed derived from
    the ``"api-run"`` sweep.
    """
    from repro.store.url import as_backend
    from repro.sweep.runner import run_sweep
    from repro.sweep.spec import SweepSpec

    pinned = dataclasses.replace(spec, seed=run_seed(spec))
    report = run_sweep(
        SweepSpec("api-run", replicate_specs(pinned)),
        workers=workers,
        store=as_backend(store),
        timeout=timeout,
        tracer_enabled=spec.tracer_enabled,
    )
    for outcome in report.outcomes:
        if outcome.exception is not None:
            raise outcome.exception
    return [outcome.result for outcome in report.outcomes]


def build_system(
    system: str,
    config: ProtocolConfig,
    workload: Optional[YCSBConfig] = None,
    **kwargs,
):
    """Construction for callers holding pre-built configs.

    The lower-level sibling of :func:`run`: same adapters, same knob
    validation, no declarative resolution.  It is where fault objects are
    passed directly (``node_behaviours=``, ``executor_behaviour_factory=``,
    ``network_fault_plan=``), where a spec can only name scenarios.  Used by
    the integration tests, which hold :class:`ProtocolConfig` /
    :class:`YCSBConfig` objects and read the built deployment's components.
    """
    return get_system(system).build(config, workload, **kwargs)


def result_digest(result: SimulationResult) -> str:
    """Content digest of a result's *simulated* metrics.

    Host-speed fields (wall-clock) are excluded, so two runs of the same
    resolved spec — facade or sweep worker, today or next week — must
    produce equal digests.
    """
    from repro.crypto.hashing import digest
    from repro.sweep.serialization import result_to_dict, simulated_fingerprint

    return digest(simulated_fingerprint(result_to_dict(result)))
