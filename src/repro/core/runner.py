"""Deployment base class and the serverless-edge deployment.

:class:`Deployment` owns what every system of the evaluation shares — the
simulation substrates, client groups, the single ``run(duration, warmup)``
loop and the common :class:`~repro.core.result.SimulationResult` fields.
:class:`ServerlessDeployment` adds the serverless-edge architecture on top:
shim, serverless cloud, executors, verifier, and storage.  Deployments are
built from the table of the four systems (``repro.api.build_system`` /
``repro.api.run``), which first rejects any knob the system does not
accept.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Optional

from repro.cloud.billing import CostModel
from repro.cloud.lambda_cloud import ServerlessCloud
from repro.cloud.regions import GeoLatencyModel, RegionCatalog
from repro.core.client import ClientGroup
from repro.core.config import (
    COLD_START_LATENCY,
    EXECUTOR_CONCURRENCY_LIMIT,
    VERIFIER_CORES,
    WARM_START_LATENCY,
    ProtocolConfig,
)
from repro.core.executor import Executor
from repro.core.messages import ExecuteMsg
from repro.core.result import SimulationResult
from repro.core.shim_node import ShimNode
from repro.core.verifier import Verifier
from repro.crypto.costs import CRYPTO_COSTS
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import SignatureService, resolve_backend
from repro.errors import ConfigurationError
from repro.faults.byzantine import ExecutorBehaviour, NodeBehaviour
from repro.obs.context import ObsContext
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkFaultPlan
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import LatencyRecorder, ThroughputRecorder
from repro.storage.kvstore import VersionedKVStore
from repro.storage.service import StorageService
from repro.workload.config import YCSBConfig
from repro.workload.ycsb import YCSBWorkload


class Deployment:
    """What every system's deployment shares: substrates, clients, run, collect.

    Subclasses build their nodes into ``self.nodes`` (anything exposing
    ``.name`` and ``.replica``), then call :meth:`_build_clients`; a system
    with executors or a verifier overrides :meth:`_system_counters` and
    :meth:`_charge_vm_fleets`.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        workload: Optional[YCSBConfig] = None,
        network_fault_plan: Optional[NetworkFaultPlan] = None,
        tracer_enabled: bool = False,
    ) -> None:
        self.config = config
        self.workload_config = workload or YCSBConfig(clients=config.num_clients, seed=config.seed)
        self.sim = Simulator()
        self.rng = DeterministicRNG(config.seed)
        self.catalog = RegionCatalog()
        # The run's one recorder, handed to every component; None when
        # tracing is off, which is the whole of the off path: components
        # guard each instrumentation site with ``is not None``.
        self.obs: Optional[ObsContext] = ObsContext() if tracer_enabled else None
        self.network = Network(
            self.sim,
            GeoLatencyModel(self.catalog),
            self.rng.child("network"),
            fault_plan=network_fault_plan,
        )
        self.keystore = KeyStore(deployment_secret=f"deployment-{config.seed}")
        self.crypto_backend = resolve_backend(config.crypto_backend)
        self.cost_model = CostModel()
        self.workload = YCSBWorkload(self.workload_config)
        self.throughput = ThroughputRecorder()
        self.latency = LatencyRecorder()
        self.shim_names = [f"node-{index}" for index in range(config.shim_nodes)]
        self.nodes: List = []
        self.clients: List[ClientGroup] = []
        self.fault_engine = None

    # ------------------------------------------------------------------ wiring helpers

    def _make_signer(self, owner: str) -> SignatureService:
        """A signature service bound to the deployment's crypto backend."""
        return SignatureService(self.keystore, owner, backend=self.crypto_backend)

    def _build_clients(self, verifier_name: str) -> None:
        """Create the client groups; ``verifier_name`` is who answers them."""
        config = self.config
        group_size = config.clients_per_group
        for index in range(config.client_groups):
            self.clients.append(
                ClientGroup(
                    sim=self.sim,
                    network=self.network,
                    name=f"client-group-{index}",
                    region=config.client_region,
                    group_size=group_size,
                    workload=self.workload,
                    signer=self._make_signer(f"client-group-{index}"),
                    costs=CRYPTO_COSTS,
                    primary_name=self.shim_names[0],
                    verifier_name=verifier_name,
                    client_timeout=config.client_timeout,
                    latency_recorder=self.latency,
                    obs=self.obs,
                    client_index_offset=index * group_size,
                )
            )

    # ------------------------------------------------------------------ system hooks

    def _system_counters(self) -> Dict[str, int]:
        """The :class:`SimulationResult` counters only this system can fill.

        The default is an edge-only deployment: no executors, no verifier.
        """
        return dict(
            aborted_txns=0,
            spawned_executors=0,
            cloud_invocations=0,
            verifier_ignored_verify=0,
            verifier_replace_sent=0,
            verifier_errors_sent=0,
        )

    def _charge_vm_fleets(self, duration: float) -> None:
        """Bill the always-on VMs of the deployment for the run (shim nodes)."""
        self.cost_model.charge_vm_fleet(
            machines=self.config.shim_nodes,
            cores=self.config.shim_cores,
            memory_gb=16.0,
            duration_seconds=duration,
        )

    # ------------------------------------------------------------------ running

    def run(self, duration: float = 5.0, warmup: float = 0.5) -> SimulationResult:
        """Run the deployment for ``duration`` seconds of virtual time."""
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        if warmup < 0 or warmup >= duration:
            raise ConfigurationError("warmup must be inside [0, duration)")
        self.throughput._warmup = warmup  # measurement window starts after warm-up
        self.latency._warmup = warmup
        stagger = 0.001
        for index, group in enumerate(self.clients):
            group._stop_time = duration
            self.sim.schedule(index * stagger, group.start)
        # Per-run PERF discipline: delta over this baseline, not process
        # totals (warm pool workers and back-to-back runs share the global).
        if self.obs is not None:
            self.obs.on_run_start()
        # lint: ignore[DET001] wall_clock_seconds is a declared HOST_SPEED_FIELDS field
        started = time.perf_counter()
        self.sim.run(until=duration)
        wall_clock = time.perf_counter() - started  # lint: ignore[DET001] host timing
        return self._collect(duration, warmup, wall_clock)

    def _collect(self, duration: float, warmup: float, wall_clock: float) -> SimulationResult:
        window = max(1e-9, duration - warmup)
        committed = self.throughput.completed
        self._charge_vm_fleets(duration)
        billing = self.cost_model.report
        result = SimulationResult(
            duration=duration,
            warmup=warmup,
            committed_txns=committed,
            throughput_txn_per_sec=committed / window,
            latency=self.latency.summary(),
            completed_requests=sum(group.completed_requests for group in self.clients),
            client_retransmissions=sum(group.retransmissions for group in self.clients),
            # Paxos replicas have no views to change.
            view_changes=sum(
                getattr(node.replica, "view_changes_installed", 0) for node in self.nodes
            ),
            messages_sent=self.network.messages_sent,
            messages_dropped=self.network.messages_dropped,
            bytes_sent=self.network.bytes_sent,
            wall_clock_seconds=wall_clock,
            events_processed=self.sim.events_processed,
            billing=billing,
            cents_per_kilo_txn=billing.cents_per_kilo_txn(committed),
            **self._system_counters(),
        )
        if self.fault_engine is not None:
            result.extra.update(self.fault_engine.metrics(duration))
        if self.obs is not None:
            result.obs = self.obs.finalize(duration, extra=result.extra)
        return result


class ServerlessDeployment(Deployment):
    """The full serverless-edge deployment (SERVERLESSBFT / -CFT / NOSHIM)."""

    def __init__(
        self,
        config: ProtocolConfig,
        workload: Optional[YCSBConfig] = None,
        consensus_engine: str = "pbft",
        node_behaviours: Optional[Dict[str, NodeBehaviour]] = None,
        executor_behaviour_factory: Optional[
            Callable[[str, ExecuteMsg], Optional[ExecutorBehaviour]]
        ] = None,
        network_fault_plan: Optional[NetworkFaultPlan] = None,
        tracer_enabled: bool = False,
    ) -> None:
        if consensus_engine not in ("pbft", "paxos"):
            raise ConfigurationError(f"unknown consensus engine {consensus_engine!r}")
        super().__init__(
            config,
            workload,
            network_fault_plan=network_fault_plan,
            tracer_enabled=tracer_enabled,
        )
        self.consensus_engine = consensus_engine
        self._executor_behaviour_factory = executor_behaviour_factory
        node_behaviours = node_behaviours or {}
        self.store = VersionedKVStore()

        # --- serverless cloud ---------------------------------------------------------
        self.cloud = ServerlessCloud(
            sim=self.sim,
            catalog=self.catalog,
            cost_model=self.cost_model,
            rng=self.rng.child("cloud"),
            executor_factory=self._spawn_executor,
            cold_start_latency=COLD_START_LATENCY,
            warm_start_latency=WARM_START_LATENCY,
            concurrency_limit_per_region=EXECUTOR_CONCURRENCY_LIMIT,
        )
        # An executor's key pair is derived from its id when asked for, so
        # neither the cloud nor the key store keeps anything per spawn.
        self.keystore.derive_issued(self.cloud.issued)

        # --- verifier + storage ---------------------------------------------------------
        self.verifier = Verifier(
            sim=self.sim,
            network=self.network,
            name="verifier",
            region=config.verifier_region,
            cores=VERIFIER_CORES,
            store=self.store,
            signer=self._make_signer("verifier"),
            costs=CRYPTO_COSTS,
            shim_node_names=self.shim_names,
            match_quorum=config.executor_match_quorum,
            executor_faults=config.derived_executor_faults,
            expected_executors=config.num_executors,
            quorum_timeout=config.verifier_quorum_timeout,
            throughput=self.throughput,
            obs=self.obs,
        )
        self.storage_service = StorageService(
            sim=self.sim,
            network=self.network,
            store=self.store,
            name="storage",
            region=config.verifier_region,
        )

        # --- shim ----------------------------------------------------------------------
        executor_regions = config.regions_for_executors(self.catalog.names)
        for name in self.shim_names:
            node = ShimNode(
                sim=self.sim,
                network=self.network,
                name=name,
                region=config.shim_region,
                config=config,
                shim_names=self.shim_names,
                signer=self._make_signer(name),
                costs=CRYPTO_COSTS,
                cloud=self.cloud,
                executor_regions=executor_regions,
                verifier_name="verifier",
                consensus_engine=consensus_engine,
                behaviour=node_behaviours.get(name),
                obs=self.obs,
            )
            self.nodes.append(node)

        self._build_clients(verifier_name="verifier")

        # Keep clients pointed at the current primary across view changes.
        for node in self.nodes:
            node.add_primary_change_listener(self._on_primary_change)

        # --- fault timeline ----------------------------------------------------------
        # Built only when configured: a fault-free run constructs no engine,
        # schedules no events, and registers no commit listener, so its
        # results stay bit-identical to a build without this feature.
        if config.fault_timeline:
            from repro.faults.timeline import FaultTimelineEngine

            self.fault_engine = FaultTimelineEngine(self)
            self.throughput.set_commit_listener(self.fault_engine.watchdog.on_commit)

        self._executor_required_signers = (
            config.shim_quorum if consensus_engine == "pbft" else 0
        )

    def _on_primary_change(self, primary: str) -> None:
        for group in self.clients:
            group.update_primary(primary)

    def _spawn_executor(self, executor_id: str, region: str, spawner: str, payload) -> None:
        """Factory handed to the serverless cloud: build and invoke one executor."""
        behaviour = None
        if self._executor_behaviour_factory is not None and isinstance(payload, ExecuteMsg):
            behaviour = self._executor_behaviour_factory(executor_id, payload)
        executor = Executor(
            sim=self.sim,
            network=self.network,
            name=executor_id,
            region=region,
            signer=self._make_signer(executor_id),
            costs=CRYPTO_COSTS,
            cloud=self.cloud,
            storage_name="storage",
            verifier_name="verifier",
            required_certificate_signers=self._executor_required_signers,
            behaviour=behaviour,
            obs=self.obs,
        )
        if isinstance(payload, ExecuteMsg):
            executor.invoke(payload, spawner)

    def _system_counters(self) -> Dict[str, int]:
        return dict(
            aborted_txns=self.verifier.aborted_txns,
            spawned_executors=sum(node.spawned_executors for node in self.nodes),
            cloud_invocations=self.cloud.spawn_count,
            verifier_ignored_verify=self.verifier.ignored_verify_messages,
            verifier_replace_sent=self.verifier.replace_messages_sent,
            verifier_errors_sent=self.verifier.error_messages_sent,
        )

    def _charge_vm_fleets(self, duration: float) -> None:
        super()._charge_vm_fleets(duration)
        self.cost_model.charge_vm_fleet(
            machines=1,
            cores=VERIFIER_CORES,
            memory_gb=8.0,
            duration_seconds=duration,
        )
