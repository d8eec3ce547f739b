"""The paper's drills, one closed table: named workload/fault setups.

A scenario bundles three things under one name:

* protocol-config and workload-config defaults (applied *underneath* a
  point's own overrides, so points can still specialise),
* a factory for the runner-level fault machinery — node behaviours,
  executor behaviour factories, network fault plans — which is invoked
  inside whichever process executes the point (behaviour objects carry
  state and callbacks, so only the scenario *name* travels through specs,
  digests, and worker boundaries); the factories import the fault and
  network modules when they run, at a deployment's build, so the table
  loads no simulator,
* a one-line description for ``python -m repro.sweep scenarios``.

The table holds the paper's drills and nothing else, so every process that
imports this module — a forked or a spawned pool worker alike — knows every
scenario.  A scenario name is the only way a fault reaches a ``RunSpec``,
which holds no live objects; a bespoke fault object goes to a constructor
instead (``repro.api.build_system(..., node_behaviours=...)``).
:mod:`repro.api.spec` composes scenario lists on top of this table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import ConfigurationError


def validate_seed_label(component: object, what: str) -> object:
    """Reject ``/`` in a component that enters a ``derive_seed`` label path.

    :func:`repro.sim.rng.derive_seed` joins its labels with ``/`` and no
    escaping, so ``("a/b",)`` and ``("a", "b")`` derive the *same* seed.
    Changing the derivation would invalidate every content-addressed result
    store, so instead the components that reach seed derivation (scenario
    names, replicate labels) are validated here: a ``/`` could silently
    alias two distinct RNG streams, which is exactly what replicated runs
    must never do.
    """
    if isinstance(component, str) and "/" in component:
        raise ConfigurationError(
            f"{what} {component!r} must not contain '/': seed derivation joins "
            f"label components with '/', so it would alias another label path "
            f"(e.g. derive_seed(s, 'a/b') == derive_seed(s, 'a', 'b'))"
        )
    return component


@dataclass(frozen=True)
class Scenario:
    """A named workload/fault preset."""

    name: str
    description: str
    config_overrides: Mapping[str, object] = field(default_factory=dict)
    workload_overrides: Mapping[str, object] = field(default_factory=dict)
    #: Builds the runner keyword arguments (``node_behaviours``,
    #: ``executor_behaviour_factory``, ``network_fault_plan``) fresh in the
    #: executing process.  Receives the resolved point dict for context.
    runner_kwargs_factory: Optional[Callable[[Mapping[str, object]], Dict[str, object]]] = None

    def runner_kwargs(self, resolved: Mapping[str, object]) -> Dict[str, object]:
        if self.runner_kwargs_factory is None:
            return {}
        return dict(self.runner_kwargs_factory(resolved))


# ------------------------------------------------------------------ presets


def _lossy_network_kwargs(resolved: Mapping[str, object]) -> Dict[str, object]:
    from repro.sim.network import NetworkFaultPlan

    return {
        "network_fault_plan": NetworkFaultPlan(
            drop_probability=0.01, duplicate_probability=0.005
        )
    }


def _partition_kwargs(resolved: Mapping[str, object]) -> Dict[str, object]:
    from repro.sim.network import NetworkFaultPlan

    # Isolate the last shim node from its peers (up to f_R = 1 for the
    # 4-node scale deployment): consensus must keep committing without it.
    shim_nodes = int(resolved["config"]["shim_nodes"])  # type: ignore[index]
    victim = f"node-{shim_nodes - 1}"
    peers = [f"node-{index}" for index in range(shim_nodes - 1)]
    partitions = {(victim, peer) for peer in peers} | {(peer, victim) for peer in peers}
    return {"network_fault_plan": NetworkFaultPlan(partitions=frozenset(partitions))}


def _region_outage_kwargs(resolved: Mapping[str, object]) -> Dict[str, object]:
    from repro.sim.network import NetworkFaultPlan

    # us-east-2 is the third executor region of the paper's catalog order:
    # executors spawned there never reach the verifier, so the shim's spawn
    # redundancy and the verifier's quorum timeout carry the run.
    return {"network_fault_plan": NetworkFaultPlan(down_regions=frozenset({"us-east-2"}))}


def _byzantine_executor_kwargs(resolved: Mapping[str, object]) -> Dict[str, object]:
    from repro.faults.byzantine import WrongResultBehaviour
    from repro.faults.injector import PerBatchExecutorFaults

    return {
        "executor_behaviour_factory": PerBatchExecutorFaults(1, WrongResultBehaviour)
    }


def _silent_executor_kwargs(resolved: Mapping[str, object]) -> Dict[str, object]:
    from repro.faults.byzantine import SilentExecutorBehaviour
    from repro.faults.injector import PerBatchExecutorFaults

    return {
        "executor_behaviour_factory": PerBatchExecutorFaults(1, SilentExecutorBehaviour)
    }


# The byzantine-attack *node* drills (Section V/VI).  Behaviour objects are
# built fresh in the executing process by the factories below, so only the
# scenario name travels through specs and digests — which is what makes the
# drills composable ("request-suppression" + "skewed-ycsb" is one point) and
# content-addressable.

#: Aggressive protocol timers shared by the node drills: detection and view
#: change must fit inside a short drill run.  Scenario defaults sit *under*
#: point/spec overrides, so a caller pinning its own timers wins.
_ATTACK_TIMERS = {
    "client_timeout": 0.4,
    "node_request_timeout": 0.6,
    "retransmission_timeout": 0.4,
    "verifier_quorum_timeout": 0.4,
}


def _request_suppression_kwargs(resolved: Mapping[str, object]) -> Dict[str, object]:
    from repro.faults.byzantine import RequestIgnoranceBehaviour

    return {"node_behaviours": {"node-0": RequestIgnoranceBehaviour(drop_every=1)}}


def _fewer_executors_kwargs(resolved: Mapping[str, object]) -> Dict[str, object]:
    from repro.faults.byzantine import FewerExecutorsBehaviour

    return {"node_behaviours": {"node-0": FewerExecutorsBehaviour(spawn_at_most=1)}}


def _duplicate_spawning_kwargs(resolved: Mapping[str, object]) -> Dict[str, object]:
    from repro.faults.byzantine import DuplicateSpawningBehaviour

    return {"node_behaviours": {"node-0": DuplicateSpawningBehaviour(extra_per_batch=2)}}


def _delayed_spawning_kwargs(resolved: Mapping[str, object]) -> Dict[str, object]:
    from repro.faults.byzantine import DelaySpawningBehaviour

    return {
        "node_behaviours": {
            "node-0": DelaySpawningBehaviour(delay_seconds=10.0, delay_every=1)
        }
    }


def _verify_flooding_kwargs(resolved: Mapping[str, object]) -> Dict[str, object]:
    from repro.faults.byzantine import DuplicateVerifyBehaviour
    from repro.faults.injector import PerBatchExecutorFaults

    return {
        "executor_behaviour_factory": PerBatchExecutorFaults(
            1, lambda: DuplicateVerifyBehaviour(copies=10)
        )
    }


_SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="baseline",
            description="Fault-free run with the deployment's default workload.",
        ),
        Scenario(
            name="lossy-network",
            description="1% message drops and 0.5% duplicate deliveries on every link.",
            runner_kwargs_factory=_lossy_network_kwargs,
        ),
        Scenario(
            name="network-partition",
            description="The last shim node is partitioned from all of its peers.",
            runner_kwargs_factory=_partition_kwargs,
        ),
        Scenario(
            name="region-outage",
            description="Executor region us-east-2 is unreachable for the whole run.",
            runner_kwargs_factory=_region_outage_kwargs,
        ),
        Scenario(
            name="byzantine-executors",
            description="The first executor of every batch returns a fabricated result.",
            runner_kwargs_factory=_byzantine_executor_kwargs,
        ),
        Scenario(
            name="silent-executors",
            description="The first executor of every batch never reports to the verifier.",
            runner_kwargs_factory=_silent_executor_kwargs,
        ),
        Scenario(
            name="shim-crash",
            description="The last shim node is crashed throughout (alias of node-crash at t=0).",
            config_overrides={"fault_timeline": "crash:last@0"},
        ),
        Scenario(
            name="node-crash",
            description="Crash one node mid-run (which/when via the fault_timeline knob).",
            # The generalised form of shim-crash: override fault_timeline to
            # pick the node (literal name, 'primary', or 'last') and the
            # crash/recover times.
            config_overrides={"fault_timeline": "crash:last@0.3"},
        ),
        Scenario(
            name="request-suppression",
            description="Byzantine primary drops every client request until replaced.",
            config_overrides=_ATTACK_TIMERS,
            runner_kwargs_factory=_request_suppression_kwargs,
        ),
        Scenario(
            name="fewer-executors",
            description="Byzantine primary spawns only 1 executor; verifier forces a view change.",
            config_overrides=_ATTACK_TIMERS,
            runner_kwargs_factory=_fewer_executors_kwargs,
        ),
        Scenario(
            name="duplicate-spawning",
            description="Byzantine node spawns redundant executors (self-penalising flooding).",
            config_overrides=_ATTACK_TIMERS,
            runner_kwargs_factory=_duplicate_spawning_kwargs,
        ),
        Scenario(
            name="delayed-spawning",
            description="Byzantine primary delays its own spawns (byzantine-abort attack).",
            config_overrides=_ATTACK_TIMERS,
            runner_kwargs_factory=_delayed_spawning_kwargs,
        ),
        Scenario(
            name="verify-flooding",
            description="The first executor of every batch floods the verifier with duplicate VERIFYs.",
            runner_kwargs_factory=_verify_flooding_kwargs,
        ),
        # Crash–recovery drills (the paper's availability story, Sections
        # V-A4/V-B): dynamic fault timelines drive real node lifecycle —
        # crash, checkpoint-based catch-up on recovery, view-change
        # escalation.  All use the aggressive detection timers so fault, view
        # change, and recovery fit in a short run.
        Scenario(
            name="primary-crash",
            description="Primary crashes at 0.3s and recovers at 1.2s; view change carries the run.",
            config_overrides={
                **_ATTACK_TIMERS,
                "fault_timeline": "crash:primary@0.3;recover:primary@1.2",
                "checkpoint_interval": 16,
            },
        ),
        Scenario(
            name="rolling-restart",
            description="Each shim node of the 4-node scale crashes and restarts in turn.",
            config_overrides={
                **_ATTACK_TIMERS,
                "fault_timeline": (
                    "crash:node-0@0.2;recover:node-0@0.6;"
                    "crash:node-1@0.7;recover:node-1@1.1;"
                    "crash:node-2@1.2;recover:node-2@1.6;"
                    "crash:node-3@1.7;recover:node-3@2.1"
                ),
                "checkpoint_interval": 8,
            },
        ),
        Scenario(
            name="view-change-storm",
            description="Two consecutive primaries crash; view change must escalate past v+1.",
            config_overrides={
                **_ATTACK_TIMERS,
                "fault_timeline": (
                    "crash:node-0@0.2;crash:node-1@0.35;"
                    "recover:node-0@1.4;recover:node-1@1.6"
                ),
                "checkpoint_interval": 16,
            },
        ),
        Scenario(
            name="checkpoint-lag",
            description="A node sleeps through many commits and catches up from stable checkpoints.",
            config_overrides={
                **_ATTACK_TIMERS,
                "fault_timeline": "crash:last@0.15;recover:last@0.9",
                "checkpoint_interval": 4,
            },
        ),
        Scenario(
            name="region-outage-heal",
            description="The last shim node is isolated from everyone at 0.3s; the partition heals at 0.9s.",
            config_overrides={
                **_ATTACK_TIMERS,
                "fault_timeline": "partition:last@0.3-0.9",
            },
        ),
        Scenario(
            name="skewed-ycsb",
            description="Zipfian key selection (theta=0.9) instead of uniform keys.",
            workload_overrides={"zipfian_theta": 0.9},
        ),
        Scenario(
            name="write-heavy",
            description="90% of YCSB operations are writes.",
            workload_overrides={"write_fraction": 0.9},
        ),
        Scenario(
            name="conflict-heavy",
            description="30% conflicting transactions with unknown read-write sets.",
            workload_overrides={"conflict_fraction": 0.3, "rw_sets_known": False},
        ),
    )
}


def get_scenario(name: str) -> Scenario:
    try:
        return _SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(_SCENARIOS))
        raise ConfigurationError(f"unknown scenario {name!r} (known: {known})")


def scenario_names() -> List[str]:
    return sorted(_SCENARIOS)


def all_scenarios() -> List[Scenario]:
    return [_SCENARIOS[name] for name in scenario_names()]
