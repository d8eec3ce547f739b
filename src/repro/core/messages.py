"""Messages of the serverless-edge transactional flow.

These are the messages of Figure 3 and Figure 4 that travel *outside* the
shim's ordering engine: client requests, EXECUTE (shim → executors), VERIFY
(executors → verifier), RESPONSE/ABORT (verifier → client and primary), and
the recovery messages ERROR / REPLACE / ACK.
Wire sizes follow the paper where reported (EXECUTE 3320 B, RESPONSE 2270 B).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from repro.core.certificates import CommitCertificate
from repro.crypto.signatures import Signature
from repro.workload.transactions import ExecutionResult, Transaction, TransactionBatch

EXECUTE_BYTES = 3320
RESPONSE_BYTES = 2270
CLIENT_REQUEST_BYTES_PER_TXN = 128
VERIFY_BASE_BYTES = 1024
ERROR_BYTES = 256
REPLACE_BYTES = 256
ACK_BYTES = 128
ABORT_BYTES = 256


@dataclass(frozen=True)
class ClientRequestMsg:
    """``⟨T⟩_C``: a digitally signed client request.

    One message may carry several transactions when a client group batches
    the requests of the clients it simulates; each transaction still carries
    its own logical ``client_id``.
    """

    request_id: str
    origin: str
    transactions: Tuple[Transaction, ...]
    signature: Optional[Signature] = None

    def canonical(self) -> str:
        return f"request:{self.request_id}:{self.origin}:" + "|".join(
            [txn.canonical() for txn in self.transactions]
        )

    @property
    def size_bytes(self) -> int:
        return CLIENT_REQUEST_BYTES_PER_TXN * max(1, len(self.transactions))


@dataclass(frozen=True)
class ExecuteMsg:
    """Primary → executor: execute the committed batch (Figure 3, Line 9)."""

    seq: int
    view: int
    batch: TransactionBatch
    digest: str
    certificate: CommitCertificate
    spawner: str
    signature: Optional[Signature] = None

    def canonical(self) -> str:
        return f"execute:{self.seq}:{self.view}:{self.digest}:{self.spawner}"

    @property
    def size_bytes(self) -> int:
        return EXECUTE_BYTES + self.certificate.size_bytes


@dataclass(frozen=True)
class VerifyMsg:
    """Executor → verifier: the execution result (Figure 3, Line 20)."""

    seq: int
    batch: TransactionBatch
    digest: str
    certificate: CommitCertificate
    result: ExecutionResult
    executor: str
    signature: Optional[Signature] = None

    def canonical(self) -> str:
        return f"verify:{self.seq}:{self.digest}:{self.executor}:{self.result.result_digest}"

    @property
    def match_key(self) -> Tuple[int, str, str]:
        """Two VERIFY messages "match" when seq, batch digest, and result agree."""
        return (self.seq, self.digest, self.result.result_digest)

    @property
    def size_bytes(self) -> int:
        return VERIFY_BASE_BYTES + 64 * len(self.batch)


@dataclass(frozen=True)
class ResponseMsg:
    """Verifier → client (and primary): the transaction outcome."""

    request_id: str
    seq: int
    digest: str
    committed_txn_ids: Tuple[str, ...] = ()
    aborted_txn_ids: Tuple[str, ...] = ()
    signature: Optional[Signature] = None

    def canonical(self) -> str:
        return (
            f"response:{self.request_id}:{self.seq}:{self.digest}:"
            f"{','.join(self.committed_txn_ids)}:{','.join(self.aborted_txn_ids)}"
        )

    @property
    def size_bytes(self) -> int:
        return RESPONSE_BYTES

    @property
    def txn_count(self) -> int:
        return len(self.committed_txn_ids) + len(self.aborted_txn_ids)


@dataclass(frozen=True)
class AbortMsg:
    """Verifier → client: the transaction was aborted (Section VI-B)."""

    request_id: str
    seq: int
    txn_ids: Tuple[str, ...]
    reason: str = "stale-reads"

    def canonical(self) -> str:
        return f"abort:{self.request_id}:{self.seq}:{self.reason}"

    @property
    def size_bytes(self) -> int:
        return ABORT_BYTES


@dataclass(frozen=True)
class ErrorMsg:
    """Verifier → shim nodes: something is missing (Figure 4, Lines 10/12).

    Either ``missing_seq`` is set (the verifier is stuck waiting for the
    ``k_max``-th request) or ``request`` is set (the verifier never saw any
    VERIFY message for that client request).
    """

    missing_seq: Optional[int] = None
    request: Optional[ClientRequestMsg] = None

    def canonical(self) -> str:
        if self.missing_seq is not None:
            return f"error:seq:{self.missing_seq}"
        request_id = self.request.request_id if self.request else "?"
        return f"error:request:{request_id}"

    @property
    def size_bytes(self) -> int:
        return ERROR_BYTES + (self.request.size_bytes if self.request else 0)


@dataclass(frozen=True)
class ReplaceMsg:
    """Verifier → shim nodes: the primary is byzantine, replace it (Line 14)."""

    request_id: Optional[str] = None
    seq: Optional[int] = None
    reason: str = "missing-verify-quorum"

    def canonical(self) -> str:
        return f"replace:{self.request_id}:{self.seq}:{self.reason}"

    @property
    def size_bytes(self) -> int:
        return REPLACE_BYTES


@dataclass(frozen=True)
class AckMsg:
    """Verifier → shim nodes: the previously reported problem is resolved."""

    missing_seq: Optional[int] = None
    request_id: Optional[str] = None

    def canonical(self) -> str:
        return f"ack:{self.missing_seq}:{self.request_id}"

    @property
    def size_bytes(self) -> int:
        return ACK_BYTES
