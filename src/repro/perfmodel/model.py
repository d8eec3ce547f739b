"""Closed-form throughput/latency model of the serverless-edge pipeline.

The model treats the deployment as a pipeline of resources — the primary's
cores, a non-primary replica's cores, the verifier's cores, the serverless
executor pool, and the primary's NIC — each with a per-batch demand derived
from the same cost constants the discrete-event simulator charges
(:data:`repro.crypto.costs.CRYPTO_COSTS`, message sizes, and the deployment
constants of :mod:`repro.core.config` such as ``SPAWN_API_COST``).

* **Maximum throughput** is the reciprocal of the largest per-batch demand
  divided by that resource's capacity (the pipeline bottleneck).
* **Latency under load** follows the closed-loop interactive response-time
  law: with ``N`` clients each keeping one transaction outstanding,
  ``X(N) = min(N / R0, X_max)`` and ``R(N) = max(R0, N / X_max)``.
* **Monetary cost** combines the OCI VM prices for the always-on shim and
  verifier with the AWS Lambda per-invocation prices for executors
  (:mod:`repro.cloud.billing`), yielding the cents-per-kilo-transaction
  metric of Figure 8.

The model intentionally shares its parameters with the simulator so the two
can be cross-validated on the same resolved point (see
:func:`repro.perfmodel.evaluate_point`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.cloud.billing import LambdaPricing, VmPricing
from repro.cloud.regions import RegionCatalog
from repro.core.config import (
    EXECUTOR_CONCURRENCY_LIMIT,
    EXECUTOR_READ_OPS_COST,
    SPAWN_API_COST,
    VERIFIER_CORES,
    ConflictMode,
    ProtocolConfig,
)
from repro.crypto.costs import CRYPTO_COSTS
from repro.errors import ConfigurationError
from repro.workload.ycsb import YCSBConfig

#: Bytes of PREPREPARE payload per transaction (5392 B for the paper's batch of 100).
_PREPREPARE_BYTES_PER_TXN = 54.0
#: Fixed per-message framing bytes.
_MESSAGE_OVERHEAD_BYTES = 220.0
#: NIC bandwidth of the shim VMs (10 GbE in the paper's setup).
_NIC_BYTES_PER_SEC = 1.25e9
#: Super-linear batch-processing overhead (memory management, copying) per txn²;
#: this is what eventually makes very large batches counter-productive
#: (Figure 6 iii/iv).
_BATCH_QUADRATIC_COST = 5e-10

#: CPU cost of executing one key-value operation locally on a shim node
#: (replicated-execution baseline); remote executors pay the larger
#: ``EXECUTOR_READ_OPS_COST`` because they fetch data over the network.
_LOCAL_OPERATION_COST = 5e-6


class SystemKind(str, enum.Enum):
    """Which deployment the model describes."""

    SERVERLESS_BFT = "serverlessbft"
    SERVERLESS_CFT = "serverlesscft"
    PBFT_REPLICATED = "pbft"
    NOSHIM = "noshim"


@dataclass(frozen=True)
class PipelineBreakdown:
    """Per-batch resource demands and the resulting capacity."""

    primary_cpu_seconds: float
    replica_cpu_seconds: float
    verifier_cpu_seconds: float
    executor_seconds: float
    nic_seconds: float
    base_latency_seconds: float
    max_batches_per_second: float
    bottleneck: str


class AnalyticalModel:
    """Analytical throughput/latency/cost model for one deployment.

    ``config`` is the deployment's effective config: a system's pinned
    fields (:meth:`repro.api.SystemAdapter.effective_config`) already
    applied, so NOSHIM arrives as the one-node shim it is.
    """

    def __init__(
        self,
        config: ProtocolConfig,
        workload: Optional[YCSBConfig] = None,
        system: SystemKind = SystemKind.SERVERLESS_BFT,
        execution_threads: int = 16,
        catalog: Optional[RegionCatalog] = None,
        lambda_pricing: Optional[LambdaPricing] = None,
        vm_pricing: Optional[VmPricing] = None,
    ) -> None:
        self.config = config
        self.workload = workload or YCSBConfig(clients=config.num_clients)
        self.system = SystemKind(system)
        self.execution_threads = max(1, execution_threads)
        self.catalog = catalog or RegionCatalog()
        self.lambda_pricing = lambda_pricing or LambdaPricing()
        self.vm_pricing = vm_pricing or VmPricing()

    # ------------------------------------------------------------------ demands

    def breakdown(self) -> PipelineBreakdown:
        """Per-batch demands on every pipeline resource and the bottleneck."""
        config = self.config
        costs = CRYPTO_COSTS
        n = config.shim_nodes
        batch = config.batch_size
        ops = self.workload.operations_per_transaction
        exec_seconds = self.workload.execution_seconds

        batch_bytes = _PREPREPARE_BYTES_PER_TXN * batch + _MESSAGE_OVERHEAD_BYTES
        hash_cost = costs.hash_cost(int(batch_bytes))
        batch_overhead = _BATCH_QUADRATIC_COST * batch * batch

        byzantine = self.system in (SystemKind.SERVERLESS_BFT, SystemKind.PBFT_REPLICATED, SystemKind.NOSHIM)
        # Ingesting the batch's client requests: one signature/MAC check plus the
        # per-transaction ingest cost (parsing and bookkeeping).
        if byzantine:
            ingest = costs.ds_verify + config.txn_ingest_cost * batch
        else:
            # The CFT shim still authenticates every client transaction with a MAC.
            ingest = costs.mac_verify + (config.txn_ingest_cost + costs.mac_verify) * batch

        if byzantine:
            # Three-phase PBFT demands (a one-node NOSHIM shim degenerates to
            # the ingest/hash/spawn terms because every (n-1) factor is zero).
            primary = (
                ingest
                + hash_cost
                + (n - 1) * costs.mac_sign      # PREPREPARE MACs
                + (n - 1) * costs.mac_sign      # own PREPARE broadcast
                + (n - 1) * costs.mac_verify    # PREPARE receipts
                + costs.ds_sign                 # COMMIT signature
                + (n - 1) * costs.ds_verify     # COMMIT receipts
                + batch_overhead
            )
            replica = (
                costs.mac_verify
                + hash_cost
                + (n - 1) * costs.mac_sign
                + (n - 1) * costs.mac_verify
                + costs.ds_sign
                + (n - 1) * costs.ds_verify
                + batch_overhead
            )
        else:
            # Linear Paxos demands (no signatures).
            primary = (
                ingest
                + hash_cost
                + (n - 1) * costs.mac_sign      # ACCEPT
                + (n - 1) * costs.mac_verify    # ACCEPTED
                + (n - 1) * costs.mac_sign      # LEARN
                + batch_overhead
            )
            replica = costs.mac_verify + hash_cost + costs.mac_sign + costs.mac_verify + batch_overhead

        offloads = self.system in (
            SystemKind.SERVERLESS_BFT,
            SystemKind.SERVERLESS_CFT,
            SystemKind.NOSHIM,
        )
        if offloads:
            primary += config.num_executors * SPAWN_API_COST + costs.ds_sign
            verifier = config.num_executors * (costs.ds_verify + 30e-6) + batch * 5e-6
            executor_time = (
                costs.ds_verify * (config.shim_quorum if byzantine else 0)
                + self._storage_rtt()
                + exec_seconds
                + EXECUTOR_READ_OPS_COST * ops * batch
                + costs.ds_sign
            )
        else:
            verifier = 0.0
            executor_time = 0.0

        # NIC serialisation at the primary: the PREPREPARE goes to n-1 peers,
        # EXECUTE messages to the executors.
        nic = batch_bytes * (n - 1) / _NIC_BYTES_PER_SEC
        if offloads:
            nic += (batch_bytes + 96 * (2 * config.shim_faults + 1)) * config.num_executors / _NIC_BYTES_PER_SEC

        capacities: Dict[str, float] = {}
        capacities["primary-cpu"] = config.shim_cores / primary if primary > 0 else float("inf")
        if n > 1:
            capacities["replica-cpu"] = config.shim_cores / replica if replica > 0 else float("inf")
        if offloads and verifier > 0:
            capacities["verifier-cpu"] = VERIFIER_CORES / verifier
        if offloads and executor_time > 0:
            pool = EXECUTOR_CONCURRENCY_LIMIT * max(1, config.num_executor_regions)
            capacities["executor-pool"] = pool / (config.num_executors * executor_time)
        if not offloads:
            local_exec = exec_seconds + _LOCAL_OPERATION_COST * ops * batch
            if local_exec > 0:
                capacities["execution-threads"] = self.execution_threads / local_exec
        if nic > 0:
            capacities["primary-nic"] = 1.0 / nic

        bottleneck = min(capacities, key=capacities.get)
        max_batches = capacities[bottleneck]
        base_latency = self._base_latency(primary, replica, verifier, executor_time)

        return PipelineBreakdown(
            primary_cpu_seconds=primary,
            replica_cpu_seconds=replica,
            verifier_cpu_seconds=verifier,
            executor_seconds=executor_time,
            nic_seconds=nic,
            base_latency_seconds=base_latency,
            max_batches_per_second=max_batches,
            bottleneck=bottleneck,
        )

    # ------------------------------------------------------------------ latency

    def _storage_rtt(self) -> float:
        """Round trip from the median executor region to the on-premise storage."""
        regions = self.config.regions_for_executors(self.catalog.names)
        if not regions:
            return 0.0
        home = self.config.verifier_region
        latencies = sorted(self.catalog.one_way_latency(region, home) for region in regions)
        quorum_index = min(len(latencies) - 1, self.config.executor_match_quorum - 1)
        return 2.0 * latencies[quorum_index]

    def _base_latency(
        self, primary: float, replica: float, verifier: float, executor_time: float
    ) -> float:
        config = self.config
        intra = self.catalog.one_way_latency(config.shim_region, config.shim_region)
        latency = intra  # client -> primary
        if config.shim_nodes > 1:
            latency += 3 * intra  # PREPREPARE, PREPARE, COMMIT one-way hops
        latency += primary / config.shim_cores
        latency += replica / config.shim_cores
        offloads = self.system in (
            SystemKind.SERVERLESS_BFT,
            SystemKind.SERVERLESS_CFT,
            SystemKind.NOSHIM,
        )
        if offloads:
            regions = config.regions_for_executors(self.catalog.names)
            home = config.verifier_region
            latencies = sorted(self.catalog.one_way_latency(region, home) for region in regions)
            quorum_index = min(len(latencies) - 1, config.executor_match_quorum - 1)
            to_region = latencies[quorum_index]
            latency += config.warm_start_latency + to_region  # spawn + EXECUTE delivery
            latency += executor_time
            latency += to_region  # VERIFY back to the verifier
            latency += verifier / VERIFIER_CORES
            latency += intra  # RESPONSE to the client
        else:
            latency += self.workload.execution_seconds
            latency += intra  # reply to the client
        return latency

    # ------------------------------------------------------------------ predictions

    def throughput_latency(self, num_clients: Optional[int] = None) -> Tuple[float, float]:
        """Predicted (txn/s, latency seconds) for a closed-loop client population."""
        clients = num_clients if num_clients is not None else self.config.num_clients
        if clients <= 0:
            raise ConfigurationError("num_clients must be positive")
        breakdown = self.breakdown()
        base_latency = breakdown.base_latency_seconds
        x_max_txn = breakdown.max_batches_per_second * self.config.batch_size
        goodput_factor = 1.0 - self.abort_fraction()
        x_unsaturated = clients / base_latency
        throughput = min(x_unsaturated, x_max_txn)
        latency = max(base_latency, clients / x_max_txn)
        return throughput * goodput_factor, latency

    def abort_fraction(self) -> float:
        """Fraction of transactions aborted because of conflicts (Figure 6 xi)."""
        conflict = self.workload.conflict_fraction
        if conflict <= 0:
            return 0.0
        if self.config.conflict_mode is ConflictMode.CONFLICT_AVOIDANCE:
            # Known read-write sets: the lock map avoids (almost all) aborts.
            return 0.02 * conflict
        # Optimistic execution: a conflicting transaction aborts when it raced
        # with an earlier conflicting one still in flight; with deep pipelines
        # most of them do.
        return 0.85 * conflict

    def cost_cents_per_kilo_txn(self, num_clients: Optional[int] = None) -> float:
        """Monetary cost (Figure 8 metric) at the achieved throughput."""
        throughput, _latency = self.throughput_latency(num_clients)
        if throughput <= 0:
            return float("inf")
        config = self.config
        vm_dollars_per_sec = (
            config.shim_nodes
            * self.vm_pricing.vm_cost(config.shim_cores, 16.0, 1.0)
        )
        offloads = self.system in (
            SystemKind.SERVERLESS_BFT,
            SystemKind.SERVERLESS_CFT,
            SystemKind.NOSHIM,
        )
        lambda_dollars_per_sec = 0.0
        if offloads:
            vm_dollars_per_sec += self.vm_pricing.vm_cost(VERIFIER_CORES, 8.0, 1.0)
            breakdown = self.breakdown()
            batches_per_sec = throughput / config.batch_size
            invocations_per_sec = batches_per_sec * config.num_executors
            lambda_dollars_per_sec = invocations_per_sec * self.lambda_pricing.invocation_cost(
                breakdown.executor_seconds
            )
        dollars_per_txn = (vm_dollars_per_sec + lambda_dollars_per_sec) / throughput
        return dollars_per_txn * 100.0 * 1000.0
