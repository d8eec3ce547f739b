"""One front door for every deployment the repo can simulate.

``repro.api`` is the stable, user-facing surface of the reproduction:

* :class:`~repro.api.spec.RunSpec` — declare a run: system, composable
  scenario list, dotted-key protocol/workload overrides, fault plans,
  seed, duration/warm-up.
* :func:`~repro.api.facade.run` — ``run(RunSpec) -> SimulationResult``.
* :mod:`repro.api.registry` — the pluggable system registry.  Each system
  (``serverless_bft``, ``serverless_cft``, ``pbft_replicated``,
  ``noshim``) is a :class:`~repro.api.registry.SystemAdapter` with
  declared capabilities; third-party systems register in one line, after
  which sweeps, the figure presets, and the CLI can drive them by name.

Example::

    from repro.api import RunSpec, run

    result = run(RunSpec(
        system="serverless_bft",
        scenarios=["region-outage", "skewed-ycsb"],
        overrides={"protocol.batch_size": 25, "workload.write_fraction": 0.9},
        duration=2.0, warmup=0.4,
    ))
    print(result.throughput_txn_per_sec)

See ``API.md`` at the repository root for the full guide.
"""

from repro.api.facade import (
    build_deployment,
    build_system,
    protocol_config_from_dict,
    resolve,
    result_digest,
    run,
    run_replicates,
    spec_digest,
    workload_config_from_dict,
)
from repro.api.registry import (
    DEFAULT_CONSENSUS_ENGINE,
    SystemAdapter,
    UnsupportedKnobError,
    all_systems,
    custom_systems,
    get_system,
    register_system,
    system_names,
)
from repro.api.spec import (
    SPEC_SCHEMA_VERSION,
    ComposedScenarios,
    RunSpec,
    ScenarioConflictError,
    compose_runner_kwargs,
    compose_scenarios,
    normalize_scenarios,
    replicate_specs,
    resolve_run,
    route_key,
    scenario_key,
    split_overrides,
    validate_seed_label,
)

__all__ = [
    "DEFAULT_CONSENSUS_ENGINE",
    "SPEC_SCHEMA_VERSION",
    "ComposedScenarios",
    "RunSpec",
    "ScenarioConflictError",
    "SystemAdapter",
    "UnsupportedKnobError",
    "all_systems",
    "build_deployment",
    "build_system",
    "compose_runner_kwargs",
    "compose_scenarios",
    "custom_systems",
    "get_system",
    "normalize_scenarios",
    "protocol_config_from_dict",
    "register_system",
    "replicate_specs",
    "run_replicates",
    "spec_digest",
    "validate_seed_label",
    "resolve",
    "resolve_run",
    "result_digest",
    "route_key",
    "run",
    "scenario_key",
    "split_overrides",
    "system_names",
    "workload_config_from_dict",
]
