"""PBFT replicated-execution baseline (no serverless, no verifier).

"We also test our ServerlessBFT protocol against a BFT system (e.g.
ResilientDB) running the PBFT protocol.  In this system, we assume each node
is a replica and executes the request in the agreed order post consensus.
As a result, there are no costs associated with spawning executors and
waiting for the verifier to validate the requests." (Section IX-H.)

Every replica executes each committed batch: it pays the batch's CPU time
on its own execution-thread pool (the ``ET`` knob of Figure 8), then applies
the batch's state transition — its write sets — to its own copy of the data
store.  Nothing verifies a replica's result, so no replica reads the store
or computes a result digest.  The primary replies to the clients.  This
baseline is used for:

* Figure 7 — throughput/latency versus the number of replicas, and
* Figure 8 — task offloading: with compute-heavy transactions the replicas
  become resource-bounded while ServerlessBFT offloads the work to the
  serverless cloud.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional

from repro.consensus.log import CommittedEntry
from repro.consensus.messages import MessageRouter
from repro.consensus.pbft import NetworkTransport, PBFTConfig, PBFTReplica
from repro.core.config import BATCH_FLUSH_TIMEOUT, REPLICA_OPERATION_COST, ProtocolConfig
from repro.core.messages import ClientRequestMsg, ResponseMsg
from repro.core.runner import Deployment
from repro.crypto.costs import CRYPTO_COSTS
from repro.crypto.signatures import SignatureService
from repro.errors import ConfigurationError
from repro.faults.byzantine import NodeBehaviour
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import CpuResource, SimProcess
from repro.sim.stats import ThroughputRecorder
from repro.storage.kvstore import VersionedKVStore
from repro.workload.transactions import Transaction, TransactionBatch
from repro.workload.config import YCSBConfig


class ReplicatedNode(SimProcess):
    """A classic PBFT replica that orders *and executes* client batches."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        region: str,
        config: ProtocolConfig,
        shim_names: List[str],
        signer: SignatureService,
        execution_threads: int,
        throughput: Optional[ThroughputRecorder] = None,
        behaviour: Optional[NodeBehaviour] = None,
        obs=None,
    ) -> None:
        super().__init__(sim, name, region, cores=config.shim_cores)
        self._network = network
        self._config = config
        self._signer = signer
        self._throughput = throughput
        self._obs = obs

        self._execution_pool = CpuResource(sim, execution_threads, name=f"{name}.exec")
        self._store = VersionedKVStore()
        self._pending_txns: Deque[Transaction] = deque()
        self._flush_timer = None
        self._batch_counter = 0
        self._executed_batches = 0

        network.register(name, region, self.on_message)
        self._replica = PBFTReplica(
            replica_id=name,
            replicas=shim_names,
            config=PBFTConfig(
                checkpoint_interval=config.checkpoint_interval,
                request_timeout=config.node_request_timeout,
            ),
            transport=NetworkTransport(network, name, shim_names),
            signer=signer,
            cost_model=CRYPTO_COSTS,
            host=self,
            on_committed=self._on_committed,
            obs=obs,
            behaviour=behaviour,
        )
        self._handlers = MessageRouter(
            ((ClientRequestMsg, self._on_client_request),), default=self._replica.handle
        )

    # ------------------------------------------------------------------ properties

    @property
    def network(self) -> Network:
        return self._network

    @property
    def replica(self) -> PBFTReplica:
        return self._replica

    @property
    def is_primary(self) -> bool:
        return self._replica.is_primary

    @property
    def executed_batches(self) -> int:
        return self._executed_batches

    @property
    def store(self) -> VersionedKVStore:
        return self._store

    # ------------------------------------------------------------------ messages

    def on_message(self, message, sender: str) -> None:
        self._handlers[type(message)](message, sender)

    def _on_client_request(self, request: ClientRequestMsg, sender: str) -> None:
        if not self.is_primary:
            self._network.send(self.name, self._replica.primary, request, request.size_bytes)
            return
        verification = (
            CRYPTO_COSTS.ds_verify
            + CRYPTO_COSTS.hash_cost(request.size_bytes)
            + self._config.txn_ingest_cost * max(1, len(request.transactions))
        )
        self.process_parallel(
            verification, len(request.transactions), lambda: self._enqueue(request)
        )

    def _enqueue(self, request: ClientRequestMsg) -> None:
        self._pending_txns.extend(request.transactions)
        while len(self._pending_txns) >= self._config.batch_size:
            self._propose(self._config.batch_size)
        if self._pending_txns and self._flush_timer is None:
            self._flush_timer = self.set_timer(BATCH_FLUSH_TIMEOUT, self._flush)

    def _flush(self) -> None:
        self._flush_timer = None
        if self.is_primary and self._pending_txns:
            self._propose(len(self._pending_txns))

    def _propose(self, size: int) -> None:
        transactions = tuple(self._pending_txns.popleft() for _ in range(size))
        self._batch_counter += 1
        batch = TransactionBatch(
            batch_id=f"{self.name}-b{self._batch_counter}", transactions=transactions
        )
        self._replica.propose(batch)

    # ------------------------------------------------------------------ execution

    def _on_committed(self, entry: CommittedEntry) -> None:
        if entry.batch is None:
            return
        batch: TransactionBatch = entry.batch
        if self._obs is not None:
            self._obs.begin_span("execute", entry.seq, self.now, self.name)
        duration = batch.execution_seconds + REPLICA_OPERATION_COST * batch.operation_count
        self._execution_pool.submit(max(1e-9, duration), self._after_execution, entry, batch)

    def _after_execution(self, entry: CommittedEntry, batch: TransactionBatch) -> None:
        # What a write stores does not depend on what was read, and nothing
        # verifies a replica's result, so the state transition is the batch's
        # write sets (one memo shared by the n replicas).
        self._store.apply_write_sets(batch.writes)
        self._executed_batches += 1
        if self._obs is not None:
            self._obs.record(self.now, "replicated.executed", self.name, seq=entry.seq)
            self._obs.end_span("execute", entry.seq, self.now)
        if not self.is_primary:
            return
        if self._throughput is not None:
            self._throughput.record_commit(self.now, len(batch))
        for (origin, request_id), txn_ids in batch.request_groups:
            if not origin:
                continue
            response = ResponseMsg(
                request_id=request_id,
                seq=entry.seq,
                digest=entry.digest,
                committed_txn_ids=txn_ids,
            )
            self._network.send(self.name, origin, response, response.size_bytes)


class ReplicatedPBFTDeployment(Deployment):
    """The replicated-execution PBFT baseline: every shim node is a replica."""

    def __init__(
        self,
        config: ProtocolConfig,
        workload: Optional[YCSBConfig] = None,
        execution_threads: int = 16,
        node_behaviours: Optional[Dict[str, NodeBehaviour]] = None,
        tracer_enabled: bool = False,
    ) -> None:
        if execution_threads < 1:
            raise ConfigurationError("execution_threads must be at least 1")
        super().__init__(config, workload, tracer_enabled=tracer_enabled)
        self.execution_threads = execution_threads
        node_behaviours = node_behaviours or {}
        for name in self.shim_names:
            self.nodes.append(
                ReplicatedNode(
                    sim=self.sim,
                    network=self.network,
                    name=name,
                    region=config.shim_region,
                    config=config,
                    shim_names=self.shim_names,
                    signer=self._make_signer(name),
                    execution_threads=execution_threads,
                    throughput=self.throughput,
                    behaviour=node_behaviours.get(name),
                    obs=self.obs,
                )
            )
        # No verifier: the primary replica answers the clients itself.  With
        # no executors either, the inherited zero counters and shim-only VM
        # bill are already this system's.
        self._build_clients(verifier_name=self.shim_names[0])
