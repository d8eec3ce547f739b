"""One front door for every deployment the repo can simulate.

``repro.api`` is the stable, user-facing surface of the reproduction:

* :class:`~repro.api.spec.RunSpec` — declare a run: system, composable
  scenario list (the only way faults enter a run), dotted-key
  protocol/workload overrides, seed, duration/warm-up.  A spec is pure
  data, and a sweep point is a ``RunSpec`` too.
* :func:`~repro.api.facade.run` — ``run(RunSpec) -> SimulationResult``;
  with a result store, and :func:`~repro.api.facade.run_replicates` always,
  through the one executor :func:`repro.sweep.run_sweep`.
* :mod:`repro.api.registry` — the paper's four systems as one closed
  table (``serverless_bft``, ``serverless_cft``, ``pbft_replicated``,
  ``noshim``): each a :class:`~repro.api.registry.SystemAdapter` naming
  the runner knobs its builder accepts.
* :mod:`repro.api.scenarios` — the paper's drills as one closed table:
  named fault/workload setups a spec composes by name
  (:func:`get_scenario`, :func:`scenario_names`).  A custom fault object
  goes to :func:`build_system` as a constructor knob instead.

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
    result_digest,
    run,
    run_replicates,
    spec_digest,
    workload_config_from_dict,
)
from repro.api.registry import (
    SystemAdapter,
    UnsupportedKnobError,
    all_systems,
    get_system,
    system_names,
)
from repro.api.scenarios import (
    Scenario,
    all_scenarios,
    get_scenario,
    scenario_names,
    validate_seed_label,
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
    resolve,
    resolve_run,
    route_key,
    scenario_key,
    split_overrides,
)

__all__ = [
    "SPEC_SCHEMA_VERSION",
    "ComposedScenarios",
    "RunSpec",
    "Scenario",
    "ScenarioConflictError",
    "SystemAdapter",
    "UnsupportedKnobError",
    "all_scenarios",
    "all_systems",
    "build_deployment",
    "build_system",
    "compose_runner_kwargs",
    "compose_scenarios",
    "get_scenario",
    "get_system",
    "normalize_scenarios",
    "protocol_config_from_dict",
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
    "scenario_names",
    "split_overrides",
    "system_names",
    "workload_config_from_dict",
]
