"""Shim nodes (edge devices).

A shim node is an edge device (a UAV in the motivating use case) that
participates in ordering client transactions and — once a transaction is
committed — spawns serverless executors at the cloud and hands them the
commit certificate.  The node hosts:

* an ordering engine (PBFT by default, Paxos for the SERVERLESSCFT baseline);
* the *invoker*: the component that asks the serverless cloud to spawn
  executors after a commit (primary-only or decentralized spawning);
* the recovery logic of Figure 4: forwarding verifier ERROR messages to the
  primary, the retransmission timer ``Υ``, and view-change triggering on
  REPLACE messages or timeouts;
* optionally a byzantine behaviour that perturbs any of those decisions.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.cloud.lambda_cloud import ServerlessCloud, SpawnRequest
from repro.consensus.log import CommittedEntry
from repro.consensus.messages import MessageRouter
from repro.consensus.paxos import PaxosConfig, PaxosReplica
from repro.consensus.pbft import NetworkTransport, PBFTConfig, PBFTReplica
from repro.core.certificates import CommitCertificate
from repro.core.config import (
    BATCH_FLUSH_TIMEOUT,
    MESSAGE_HANDLING_COST,
    SPAWN_API_COST,
    ConflictMode,
    ProtocolConfig,
    SpawnPolicyName,
)
from repro.core.conflict import ConflictPlanner
from repro.core.messages import (
    AckMsg,
    ClientRequestMsg,
    ErrorMsg,
    ExecuteMsg,
    ReplaceMsg,
    ResponseMsg,
)
from repro.core.spawning import DecentralizedSpawnPolicy, PrimarySpawnPolicy
from repro.crypto.costs import CryptoCostModel
from repro.crypto.hashing import seed_cached_digest
from repro.crypto.signatures import SignatureService
from repro.faults.byzantine import NodeBehaviour
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.workload.transactions import Transaction, TransactionBatch


class ShimNode(SimProcess):
    """One edge device of the shim."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        region: str,
        config: ProtocolConfig,
        shim_names: List[str],
        signer: SignatureService,
        costs: CryptoCostModel,
        cloud: Optional[ServerlessCloud],
        executor_regions: List[str],
        verifier_name: str,
        consensus_engine: str = "pbft",
        behaviour: Optional[NodeBehaviour] = None,
        obs=None,
    ) -> None:
        super().__init__(sim, name, region, cores=config.shim_cores)
        self._network = network
        self._config = config
        self._signer = signer
        self._costs = costs
        self._cloud = cloud
        self._verifier_name = verifier_name
        self._behaviour = behaviour
        self._obs = obs

        self._pending_txns: Deque[Transaction] = deque()
        self._flush_timer = None
        self._batch_counter = 0
        # Verifier notices that overtook this node's own commit of the
        # sequence number; the commit consumes its notice, or the stable
        # watermark passing it does.
        self._verified_seqs: set = set()
        # Committed here but not yet acknowledged by the verifier: exactly the
        # sequence numbers a (new) primary may still have to spawn for.  An
        # entry pins its batch, so it goes once both halves have happened.
        self._committed_entries: Dict[int, CommittedEntry] = {}
        self._request_seq: Dict[str, int] = {}
        self._retransmission_timers: Dict[str, Any] = {}
        self._spawned_executors = 0
        self._planner = ConflictPlanner()
        self._primary_change_listeners: List[Callable[[str], None]] = []
        self._crashed = False

        network.register(name, region, self.on_message)

        if config.spawn_policy is SpawnPolicyName.DECENTRALIZED:
            self._spawn_policy = DecentralizedSpawnPolicy(
                num_executors=config.num_executors,
                regions=executor_regions,
                shim_nodes=config.shim_nodes,
                shim_faults=config.shim_faults,
            )
        else:
            self._spawn_policy = PrimarySpawnPolicy(
                num_executors=config.num_executors, regions=executor_regions
            )

        transport = self._transport = NetworkTransport(network, name, shim_names)
        if consensus_engine == "paxos":
            self._replica = PaxosReplica(
                replica_id=name,
                replicas=shim_names,
                config=PaxosConfig(checkpoint_interval=config.checkpoint_interval),
                transport=transport,
                cost_model=costs,
                host=self,
                on_committed=self._on_committed,
                obs=obs,
                on_stable=self._on_stable,
            )
        else:
            self._replica = PBFTReplica(
                replica_id=name,
                replicas=shim_names,
                config=PBFTConfig(
                    checkpoint_interval=config.checkpoint_interval,
                    request_timeout=config.node_request_timeout,
                ),
                transport=transport,
                signer=signer,
                cost_model=costs,
                host=self,
                on_committed=self._on_committed,
                on_view_installed=self._on_view_installed,
                obs=obs,
                behaviour=behaviour,
                on_stable=self._on_stable,
            )
        self._handlers = MessageRouter(
            (
                (ClientRequestMsg, self._on_client_request),
                (ErrorMsg, self._on_error),
                (ReplaceMsg, self._on_replace),
                (AckMsg, self._on_ack),
                (ResponseMsg, self._on_verified_notice),
            ),
            default=self._replica.handle,
        )

    # ------------------------------------------------------------------ properties

    @property
    def network(self) -> Network:
        return self._network

    @property
    def replica(self):
        return self._replica

    @property
    def is_primary(self) -> bool:
        return self._replica.is_primary

    @property
    def current_primary(self) -> str:
        return self._replica.primary

    @property
    def spawned_executors(self) -> int:
        return self._spawned_executors

    @property
    def verified_sequence_numbers(self) -> set:
        """Sequence numbers the verifier confirmed before this node committed them."""
        return set(self._verified_seqs)

    def add_primary_change_listener(self, listener: Callable[[str], None]) -> None:
        self._primary_change_listeners.append(listener)

    # ------------------------------------------------------------------ lifecycle

    @property
    def is_crashed(self) -> bool:
        return self._crashed

    def crash(self) -> None:
        """Crash the node: volatile state is lost, processing stops.

        ``_batch_counter`` deliberately survives — batch ids must never be
        reused across an incarnation, or a stale pre-crash proposal could
        collide with a fresh one.
        """
        if self._crashed:
            return
        self._crashed = self._transport.crashed = True
        self._pending_txns.clear()
        if self._flush_timer is not None:
            self._flush_timer.cancel()
            self._flush_timer = None
        for key in list(self._retransmission_timers):
            self._retransmission_timers.pop(key).cancel()
        self._planner = ConflictPlanner()
        self._committed_entries.clear()
        self._request_seq.clear()
        self._verified_seqs.clear()
        if hasattr(self._replica, "crash"):
            self._replica.crash()
        self._trace("node.crashed")

    def recover(self) -> None:
        """Restart the node; the replica initiates checkpoint catch-up."""
        if not self._crashed:
            return
        self._crashed = self._transport.crashed = False
        if hasattr(self._replica, "recover"):
            self._replica.recover()
        self._trace("node.recovered")

    # ------------------------------------------------------------------ dispatch

    def on_message(self, message, sender: str) -> None:
        if self._crashed:
            return
        if self._behaviour is not None and self._behaviour.is_crashed():
            return
        self._handlers[type(message)](message, sender)

    # ------------------------------------------------------------------ client requests

    def _on_client_request(self, request: ClientRequestMsg, sender: str) -> None:
        if not self.is_primary:
            # Non-primary nodes forward client requests to the current primary.
            self.process(
                MESSAGE_HANDLING_COST,
                lambda: self._network.send(
                    self.name, self.current_primary, request, request.size_bytes
                ),
            )
            return
        if self._behaviour is not None and self._behaviour.should_drop_request(request):
            self._trace("node.request_dropped", request_id=request.request_id)
            return
        # Verify the client's signature over the request and pay the per-
        # transaction ingest cost; this work parallelises over the node's cores.
        verification = (
            self._costs.ds_verify
            + self._costs.hash_cost(request.size_bytes)
            + self._config.txn_ingest_cost * max(1, len(request.transactions))
        )
        self.process_parallel(
            verification,
            len(request.transactions),
            lambda: self._enqueue_transactions(request),
        )

    def _enqueue_transactions(self, request: ClientRequestMsg) -> None:
        self._pending_txns.extend(request.transactions)
        self._maybe_propose()

    def _maybe_propose(self) -> None:
        # The crash guard catches deferred CPU completions (a signature check
        # submitted before the crash finishing after it).
        if self._crashed or not self.is_primary:
            return
        while len(self._pending_txns) >= self._config.batch_size:
            self._propose_batch(self._config.batch_size)
        if self._pending_txns and self._flush_timer is None:
            self._flush_timer = self.set_timer(BATCH_FLUSH_TIMEOUT, self._flush_partial_batch)

    def _flush_partial_batch(self) -> None:
        self._flush_timer = None
        if self._crashed or not self.is_primary or not self._pending_txns:
            return
        self._propose_batch(len(self._pending_txns))

    def _propose_batch(self, size: int) -> None:
        pending = self._pending_txns
        if size == len(pending):
            transactions = tuple(pending)
            pending.clear()
        else:
            transactions = tuple(pending.popleft() for _ in range(size))
        self._batch_counter += 1
        batch = TransactionBatch(
            batch_id=f"{self.name}-b{self._batch_counter}", transactions=transactions
        )
        seq = self._replica.propose(batch)
        # Once per client request (the batch's memoised grouping, which the
        # verifier reads too), not once per transaction.
        request_seq = self._request_seq
        for (_origin, request_id), _txn_ids in batch.request_groups:
            request_seq[request_id] = seq
        self._trace("node.batch_proposed", seq=seq, size=size)

    # ------------------------------------------------------------------ commits and spawning

    def _on_committed(self, entry: CommittedEntry) -> None:
        overtaken = entry.seq in self._verified_seqs
        self._verified_seqs.discard(entry.seq)
        if entry.batch is None:
            # Committed via a featherweight checkpoint without the payload:
            # nothing to execute locally (the shim never executes anyway).
            return
        self._committed_entries[entry.seq] = entry
        if self._config.conflict_mode is ConflictMode.CONFLICT_AVOIDANCE:
            self._planner.add(entry.seq, entry.batch)
            for seq, _batch in self._planner.ready():
                self._spawn_for_seq(seq)
        else:
            # Optimistic concurrent spawning (Section VI-A).
            self._spawn_for_seq(entry.seq)
        if overtaken:
            # The verifier's notice overtook this node's own commit.
            del self._committed_entries[entry.seq]

    def _on_stable(self, stable: int) -> None:
        """The replica's watermark moved: no commit at or below it will come.

        A notice waiting for a sequence number the replica skipped past (a
        recovery or a partition) would otherwise wait forever.
        """
        if self._verified_seqs:
            self._verified_seqs = {seq for seq in self._verified_seqs if seq > stable}

    def _spawn_for_seq(self, seq: int) -> None:
        entry = self._committed_entries.get(seq)
        if entry is None or self._cloud is None:
            return
        plan = self._spawn_policy.plan(self.name, self.is_primary)
        if plan.count == 0:
            return
        planned = plan.count
        delay = 0.0
        extra = 0
        if self._behaviour is not None:
            planned = self._behaviour.executor_spawn_count(plan.count, seq)
            delay = self._behaviour.spawn_delay(seq)
            extra = self._behaviour.duplicate_spawn_count(seq)
        regions = list(plan.regions[:planned])
        regions.extend(plan.regions[0] for _ in range(extra))
        if not regions:
            self._trace("node.spawn_suppressed", seq=seq)
            return
        certificate = CommitCertificate(
            view=entry.view,
            seq=entry.seq,
            digest=entry.digest,
            signatures=entry.certificate,
        )
        unsigned = ExecuteMsg(
            seq=entry.seq,
            view=entry.view,
            batch=entry.batch,
            digest=entry.digest,
            certificate=certificate,
            spawner=self.name,
        )
        signature = self._signer.sign(unsigned)
        execute = ExecuteMsg(
            seq=entry.seq,
            view=entry.view,
            batch=entry.batch,
            digest=entry.digest,
            certificate=certificate,
            spawner=self.name,
            signature=signature,
        )
        seed_cached_digest(execute, signature.message_digest)
        if self._obs is not None:
            self._obs.begin_span("spawn", seq, self.now, self.name)
        spawn_cost = SPAWN_API_COST * len(regions) + self._costs.ds_sign
        self.process(spawn_cost, self._invoke_cloud, execute, regions, delay)

    def _invoke_cloud(self, execute: ExecuteMsg, regions: List[str], delay: float) -> None:
        if self._crashed:
            return
        if delay > 0:
            self.set_timer(delay, self._invoke_cloud, execute, regions, 0.0)
            return
        for region in regions:
            self._cloud.spawn(
                SpawnRequest(spawner=self.name, region=region, payload=execute)
            )
            self._spawned_executors += 1
        self._trace("node.executors_spawned", seq=execute.seq, count=len(regions))

    # ------------------------------------------------------------------ verifier feedback

    def _on_verified_notice(self, message: ResponseMsg, sender: str) -> None:
        if sender != self._verifier_name:
            return
        if not self._replica.log.is_committed(message.seq):
            self._verified_seqs.add(message.seq)
        self._committed_entries.pop(message.seq, None)
        if self._obs is not None:
            self._obs.end_span("commit", message.seq, self.now)
        if self._config.conflict_mode is ConflictMode.CONFLICT_AVOIDANCE:
            for seq, _batch in self._planner.complete(message.seq):
                self._spawn_for_seq(seq)

    def _on_error(self, message: ErrorMsg, sender: str) -> None:
        """Node action on an ERROR message from the verifier (Figure 4, Lines 15–17)."""
        if sender != self._verifier_name:
            return
        key = message.canonical()
        if self.is_primary:
            self._handle_error_as_primary(message)
            return
        if key not in self._retransmission_timers:
            self._retransmission_timers[key] = self.set_timer(
                self._config.retransmission_timeout, self._on_retransmission_timeout, key
            )
        self._network.send(self.name, self.current_primary, message, message.size_bytes)
        self._trace("node.error_forwarded", key=key)

    def _handle_error_as_primary(self, message: ErrorMsg) -> None:
        if message.missing_seq is not None:
            self._respawn_if_known(message.missing_seq)
            return
        if message.request is None:
            return
        request = message.request
        if self._behaviour is not None and self._behaviour.should_drop_request(request):
            # A byzantine primary keeps stonewalling; the nodes' retransmission
            # timers will eventually expire and trigger its replacement.
            self._trace("node.error_ignored", request_id=request.request_id)
            return
        seq = self._request_seq.get(request.request_id)
        if seq is not None:
            self._respawn_if_known(seq)
        else:
            # The request never reached consensus: order it now.
            self._enqueue_transactions(request)

    def _respawn_if_known(self, seq: int) -> None:
        if seq in self._committed_entries:
            self._trace("node.respawn", seq=seq)
            self._spawn_for_seq(seq)

    def _on_replace(self, message: ReplaceMsg, sender: str) -> None:
        if sender != self._verifier_name:
            return
        if hasattr(self._replica, "request_view_change"):
            self._trace("node.replace_received", reason=message.reason)
            self._replica.request_view_change(reason=f"verifier:{message.reason}")

    def _on_ack(self, message: AckMsg, sender: str) -> None:
        if sender != self._verifier_name:
            return
        # Exactly the keys ErrorMsg.canonical() built: seq 1's ACK must leave
        # seq 12's timer armed, or a stuck request is never escalated.
        keys = []
        if message.missing_seq is not None:
            keys.append(f"error:seq:{message.missing_seq}")
        if message.request_id is not None:
            keys.append(f"error:request:{message.request_id}")
        for key in keys:
            timer = self._retransmission_timers.pop(key, None)
            if timer is not None:
                timer.cancel()

    def _on_retransmission_timeout(self, key: str) -> None:
        """The primary never resolved a forwarded ERROR: ask for a view change."""
        self._retransmission_timers.pop(key, None)
        if self._crashed:
            return
        if hasattr(self._replica, "request_view_change"):
            self._trace("node.retransmission_timeout", key=key)
            self._replica.request_view_change(reason=f"retransmission:{key}")

    # ------------------------------------------------------------------ view changes

    def _on_view_installed(self, new_view: int, primary: str) -> None:
        self._trace("node.view_installed", view=new_view, primary=primary)
        for listener in self._primary_change_listeners:
            listener(primary)
        if primary != self.name:
            return
        # As the new primary, make sure every committed-but-unverified batch
        # gets its executors (the old primary may have withheld them).
        for seq in sorted(self._committed_entries):
            self._spawn_for_seq(seq)
        self._maybe_propose()

    def _trace(self, category: str, **details) -> None:
        if self._obs is not None:
            self._obs.record(self.now, category, self.name, **details)
