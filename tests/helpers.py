"""Factories shared by the integration tests."""

from __future__ import annotations

from repro.core.config import ProtocolConfig
from repro.workload.ycsb import YCSBConfig


def make_config(**overrides) -> ProtocolConfig:
    """A small deployment that simulates quickly in tests."""
    params = dict(
        shim_nodes=4,
        num_executors=3,
        num_executor_regions=3,
        batch_size=10,
        num_clients=40,
        client_groups=4,
    )
    params.update(overrides)
    return ProtocolConfig(**params)


def make_workload(**overrides) -> YCSBConfig:
    params = dict(num_records=2_000, operations_per_transaction=4, write_fraction=0.5)
    params.update(overrides)
    return YCSBConfig(**params)


def run_simulation(
    config: ProtocolConfig = None,
    workload: YCSBConfig = None,
    duration: float = 2.0,
    warmup: float = 0.2,
    **runner_kwargs,
):
    """Build, run, and return ``(simulation, result)`` for integration tests."""
    from repro.api import build_system

    config = config or make_config()
    workload = workload or make_workload()
    simulation = build_system("serverless_bft", config, workload, **runner_kwargs)
    result = simulation.run(duration=duration, warmup=warmup)
    return simulation, result


#: ``make_config()``/``make_workload()`` as dotted facade overrides, for
#: drills that go through scenario presets instead of constructor fault objects.
DRILL_OVERRIDES = {
    "protocol.shim_nodes": 4,
    "protocol.num_executors": 3,
    "protocol.num_executor_regions": 3,
    "protocol.batch_size": 10,
    "protocol.num_clients": 40,
    "protocol.client_groups": 4,
    "workload.num_records": 2_000,
    "workload.operations_per_transaction": 4,
    "workload.write_fraction": 0.5,
}


def run_drill(
    scenario,
    duration: float = 2.0,
    warmup: float = 0.0,
    overrides: dict = None,
):
    """Run a scenario-preset drill through the facade.

    Returns ``(simulation, result)`` like :func:`run_simulation`, but the
    fault machinery comes from the named scenario preset(s) — the path a
    sweep point or a composed ``RunSpec`` takes — rather than from fault
    objects passed to the constructor.
    """
    from repro.api import RunSpec
    from repro.api.facade import build_deployment, resolve

    spec = RunSpec(
        system="serverless_bft",
        base="default",
        scenarios=[scenario] if isinstance(scenario, str) else list(scenario),
        overrides={**DRILL_OVERRIDES, **(overrides or {})},
        duration=duration,
        warmup=warmup,
    )
    resolved = resolve(spec)
    simulation = build_deployment(resolved)
    result = simulation.run(duration=duration, warmup=warmup)
    return simulation, result
