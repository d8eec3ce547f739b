"""Serverless executors.

Each executor is a fleeting, stateless serverless function (an AWS Lambda in
the paper) spawned by a shim node for one committed batch.  An honest
executor (Figure 3, Lines 14–20):

1. checks that the EXECUTE message is well-formed and that its certificate
   ``C`` carries ``2f_R + 1`` distinct shim signatures on the COMMIT message;
2. fetches the current state of the batch's read-write sets from the
   on-premise storage (read-only access);
3. executes the transactions deterministically (plus any synthetic
   compute-intensive phase);
4. signs and sends a VERIFY message with the result and the observed
   read-write set versions to the verifier; and
5. terminates — the cloud bills the spawner for the invocation.

Executors never talk to each other and never write to storage.  Byzantine
executors may stay silent, fabricate results, or flood the verifier; those
behaviours are injected via :mod:`repro.faults.byzantine`.
"""

from __future__ import annotations

import itertools
from typing import Optional

from repro.cloud.lambda_cloud import ServerlessCloud
from repro.core.messages import ExecuteMsg, VerifyMsg
from repro.crypto.costs import CryptoCostModel
from repro.crypto.hashing import seed_cached_digest
from repro.crypto.signatures import SignatureService
from repro.faults.byzantine import ExecutorBehaviour
from repro.sim.engine import Simulator
from repro.sim.network import Network
from repro.sim.process import SimProcess
from repro.storage.service import StorageReadReply, StorageReadRequest, StorageService
from repro.workload.transactions import execute_batch_cached


class Executor(SimProcess):
    """One spawned serverless executor instance."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        name: str,
        region: str,
        signer: SignatureService,
        costs: CryptoCostModel,
        cloud: ServerlessCloud,
        storage_name: str,
        verifier_name: str,
        required_certificate_signers: int,
        per_operation_cost: float = 20e-6,
        behaviour: Optional[ExecutorBehaviour] = None,
        obs=None,
    ) -> None:
        super().__init__(sim, name, region, cores=None)
        self._network = network
        self._signer = signer
        self._costs = costs
        self._cloud = cloud
        self._storage_name = storage_name
        self._verifier_name = verifier_name
        self._required_signers = required_certificate_signers
        self._per_operation_cost = per_operation_cost
        self._behaviour = behaviour
        self._obs = obs
        self._read_counter = itertools.count()
        self._pending_execute: Optional[ExecuteMsg] = None
        self._spawner: Optional[str] = None
        self._finished = False
        network.register(name, region, self.on_message)

    # ------------------------------------------------------------------ lifecycle

    def invoke(self, execute: ExecuteMsg, spawner: str) -> None:
        """Entry point called by the serverless cloud once the sandbox starts."""
        self._pending_execute = execute
        self._spawner = spawner
        if self._obs is not None:
            self._obs.end_span("spawn", execute.seq, self.now)
            self._obs.begin_span("execute", execute.seq, self.now, self.name)
        if self._behaviour is not None and self._behaviour.should_ignore():
            self._trace("executor.ignored", seq=execute.seq)
            self._finish()
            return
        # Verify the commit certificate before doing any work.  An executor's
        # pipeline timers are never cancelled, so they all take the kernel's
        # fire-and-forget fast path (no Event handle per stage).
        verify_cost = execute.certificate.verification_cost(self._costs, self._required_signers)
        self.set_timer_fast(verify_cost, self._after_certificate_check, execute)

    def _after_certificate_check(self, execute: ExecuteMsg) -> None:
        if self._required_signers > 0 and not execute.certificate.verify(
            self._signer, self._required_signers
        ):
            # An EXECUTE without a valid certificate is evidence of a byzantine
            # spawner: refuse to execute and terminate (the spawner still pays).
            self._trace("executor.invalid_certificate", seq=execute.seq, spawner=self._spawner)
            self._finish()
            return
        keys = execute.batch.sorted_keys
        if not keys:
            self._execute_with_data(execute, {}, {})
            return
        request = StorageReadRequest(
            request_id=f"{self.name}-read-{next(self._read_counter)}",
            keys=keys,
        )
        size = StorageService.REQUEST_BYTES_PER_KEY * len(keys)
        self._network.send(self.name, self._storage_name, request, size_bytes=size)
        self._trace("executor.storage_read", seq=execute.seq, keys=len(keys))

    def on_message(self, message, sender: str) -> None:
        execute = self._pending_execute
        if execute is None or not isinstance(message, StorageReadReply):
            return
        # One storage read per invocation: the first reply is consumed, so a
        # duplicated reply (lossy network) cannot start a second pipeline.
        self._pending_execute = None
        # Executors spawned for the same batch usually receive the same
        # (cached) ReadResult object, so these maps are built only once
        # per observed storage snapshot.
        result = message.result
        self._execute_with_data(
            execute,
            result.plain_values(),
            result.versions_map(),
            snapshot_token=result.snapshot_token,
        )

    # ------------------------------------------------------------------ execution

    def _execute_with_data(
        self, execute: ExecuteMsg, values, versions, snapshot_token: int = -1
    ) -> None:
        batch = execute.batch
        compute_time = batch.execution_seconds
        compute_time += self._per_operation_cost * batch.operation_count
        self.set_timer_fast(
            max(0.0, compute_time),
            self._finish_execution,
            execute,
            values,
            versions,
            snapshot_token,
        )

    def _finish_execution(self, execute: ExecuteMsg, values, versions, snapshot_token=-1) -> None:
        # Honest execution is deterministic, so the 3f_E+1 executors spawned
        # for one batch share the memoised result when they observed the same
        # storage versions; byzantine corruption happens after the memo.
        result = execute_batch_cached(execute.batch, values, versions, snapshot_token)
        if self._behaviour is not None:
            result = self._behaviour.corrupt_result(result)
        unsigned = VerifyMsg(
            seq=execute.seq,
            batch=execute.batch,
            digest=execute.digest,
            certificate=execute.certificate,
            result=result,
            executor=self.name,
        )
        signature = self._signer.sign(unsigned)
        message = VerifyMsg(
            seq=execute.seq,
            batch=execute.batch,
            digest=execute.digest,
            certificate=execute.certificate,
            result=result,
            executor=self.name,
            signature=signature,
        )
        seed_cached_digest(message, signature.message_digest)
        copies = 1 if self._behaviour is None else self._behaviour.verify_copies()
        sign_cost = self._costs.ds_sign
        self.set_timer_fast(sign_cost, self._send_verify, message, copies)

    def _send_verify(self, message: VerifyMsg, copies: int) -> None:
        for _ in range(max(1, copies)):
            self._network.send(self.name, self._verifier_name, message, message.size_bytes)
        self._trace("executor.verify_sent", seq=message.seq, copies=copies)
        if self._obs is not None:
            self._obs.end_span("execute", message.seq, self.now)
        self._finish()

    def _finish(self) -> None:
        """Terminate: free the sandbox, drop the EXECUTE and leave the network.

        A terminated executor is inert and unreachable — late deliveries are
        dropped by the network — so nothing keeps it (or its batch) alive.
        """
        if self._finished:
            return
        self._finished = True
        self._pending_execute = None
        self._network.unregister(self.name)
        self._cloud.finish(self.name)

    def _trace(self, category: str, **details) -> None:
        if self._obs is not None:
            self._obs.record(self.now, category, self.name, **details)
