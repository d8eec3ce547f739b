"""The paper's four systems, one closed table.

Section IX-H compares exactly four deployments: ``serverless_bft``,
``serverless_cft`` (a Paxos shim), ``pbft_replicated`` (replicated
execution) and ``noshim``.  Each is a :class:`SystemAdapter`: a builder
returning a deployment object with ``.run(duration, warmup) ->
SimulationResult``, the ``ProtocolConfig`` fields the system pins, and the
knobs it accepts (``knobs``).  :meth:`SystemAdapter.build` is the one
place an unsupported knob is rejected.  Tables and figure sweeps list the
systems in table order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, List, Mapping

from repro.baselines.pbft_replicated import ReplicatedPBFTDeployment
from repro.core.runner import ServerlessDeployment
from repro.errors import ConfigurationError


class UnsupportedKnobError(ConfigurationError):
    """A run spec carries a knob the selected system cannot honour."""


@dataclass(frozen=True)
class SystemAdapter:
    """How to build one system variant, and which knobs it accepts.

    ``builder`` is called as ``builder(config, workload=..., tracer_enabled=...,
    **knobs)`` where ``knobs`` only ever contains names in :attr:`knobs` —
    validation happens in :meth:`build`, so builders never need defensive
    checks of their own.
    """

    name: str
    description: str
    builder: Callable[..., object]
    #: ``ProtocolConfig`` fields the system pins whatever the spec says —
    #: what makes it this variant rather than another (applied by
    #: :meth:`effective_config` for the simulator and the model alike).
    config_overrides: Mapping[str, object] = field(hash=False)
    #: Runner keyword arguments the builder accepts, plus
    #: ``"fault_timeline"`` if the system runs a non-empty
    #: ``ProtocolConfig.fault_timeline`` (a config field: checked by
    #: :meth:`build`, never passed to the builder).
    knobs: FrozenSet[str]

    def effective_config(self, config):
        """``config`` with this system's pinned fields applied."""
        if not self.config_overrides:
            return config
        return config.with_overrides(**self.config_overrides)

    def build(
        self,
        config,
        workload=None,
        *,
        execution_threads: int = 16,
        tracer_enabled: bool = False,
        **knobs,
    ):
        """Validate the knobs against :attr:`knobs` and build.

        A knob counts as requested only when its value is not ``None``, and
        a non-empty ``config.fault_timeline`` requests ``"fault_timeline"``;
        :class:`UnsupportedKnobError` names *every* offending knob at once.
        ``execution_threads`` is a resource knob rather than a fault
        injection: a system without an execution thread pool drops the value
        instead of rejecting it (every sweep point carries a default).
        """
        kwargs = {knob: value for knob, value in knobs.items() if value is not None}
        requested = set(kwargs)
        if config.fault_timeline:
            requested.add("fault_timeline")
        unsupported = sorted(requested - self.knobs)
        if unsupported:
            raise UnsupportedKnobError(
                f"system {self.name!r} does not support {unsupported} "
                f"(knobs: {sorted(self.knobs)})"
            )
        if "execution_threads" in self.knobs:
            kwargs["execution_threads"] = execution_threads
        return self.builder(
            self.effective_config(config),
            workload=workload,
            tracer_enabled=tracer_enabled,
            **kwargs,
        )


#: Ingest cost of a deployment that skips byzantine-grade client checks.
_LIGHT_INGEST = {"txn_ingest_cost": 15e-6}

#: What a serverless deployment (:class:`ServerlessDeployment`) accepts
#: beyond its configs.
_SERVERLESS_KNOBS = frozenset(
    {"node_behaviours", "executor_behaviour_factory", "network_fault_plan", "fault_timeline"}
)


def _build_serverless_cft(config, workload=None, **kwargs):
    """SERVERLESSCFT (Section IX-H): the shim orders with Paxos.

    "As CFT protocols do not protect against byzantine attacks, they do not
    require cryptographic signatures, which in turn reduces the amount of
    work done per consensus.  Further, unlike PBFT, Paxos is linear."  So
    the ordering engine is swapped and request ingest gets cheaper (the
    adapter's ``config_overrides``); executors skip certificate verification
    because a CFT shim produces no commit certificates.
    """
    return ServerlessDeployment(config, workload, consensus_engine="paxos", **kwargs)


_SYSTEMS: Dict[str, SystemAdapter] = {
    adapter.name: adapter
    for adapter in (
        SystemAdapter(
            name="serverless_bft",
            description="ServerlessBFT: PBFT shim, serverless executors, trusted verifier.",
            builder=ServerlessDeployment,
            config_overrides={},
            knobs=_SERVERLESS_KNOBS,
        ),
        SystemAdapter(
            name="serverless_cft",
            description="Crash-fault-tolerant shim (Paxos, no signatures), same pipeline.",
            builder=_build_serverless_cft,
            config_overrides=_LIGHT_INGEST,
            knobs=_SERVERLESS_KNOBS,
        ),
        SystemAdapter(
            name="pbft_replicated",
            description="Classic replicated-execution PBFT: no executors, no verifier.",
            builder=ReplicatedPBFTDeployment,
            config_overrides={},
            # No fault_timeline: its replicas execute locally and have no
            # checkpoint-based catch-up path for a recovered node.
            knobs=frozenset({"node_behaviours", "execution_threads"}),
        ),
        # NOSHIM (Section IX-H): "there is no shim; no BFT consensus takes
        # place.  All the clients send their requests to a node, which
        # instantaneously spawns executors."  A shim of exactly one node is
        # precisely that: with n_R = 1 PBFT has f_R = 0 and a quorum of one,
        # so a proposal commits in a single local step and the
        # executor/verifier pipeline is unchanged.
        SystemAdapter(
            name="noshim",
            description="No consensus: one ingest node spawns executors immediately.",
            builder=ServerlessDeployment,
            config_overrides={**_LIGHT_INGEST, "shim_nodes": 1},
            knobs=_SERVERLESS_KNOBS,
        ),
    )
}


def get_system(name: str) -> SystemAdapter:
    try:
        return _SYSTEMS[name]
    except KeyError:
        known = ", ".join(_SYSTEMS)
        raise ConfigurationError(f"unknown system {name!r} (known: {known})")


def system_names() -> List[str]:
    """The four system names, in table order."""
    return list(_SYSTEMS)


def all_systems() -> List[SystemAdapter]:
    return list(_SYSTEMS.values())
