"""Messages exchanged between shim nodes during ordering.

Wire sizes follow the paper's reported message sizes (Section IX, Setup):
PREPREPARE 5392 B, PREPARE 216 B, COMMIT 220 B.  View-change and checkpoint
messages scale with the number of entries they carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.crypto.signatures import Signature

#: Default wire sizes, in bytes, as measured by the authors.
PREPREPARE_BYTES = 5392
PREPARE_BYTES = 216
COMMIT_BYTES = 220
VIEWCHANGE_BASE_BYTES = 512
NEWVIEW_BASE_BYTES = 512
CHECKPOINT_BASE_BYTES = 256
CHECKPOINT_REQUEST_BYTES = 128


class MessageRouter(dict):
    """``type(message)`` → handler, resolved once per concrete type.

    ``routes`` is an ordered sequence of ``(message class, handler)``.  A
    type seen for the first time gets the handler of the first class it
    subclasses — the order an ``isinstance`` chain would try them in — or
    ``default``; after that a dispatch is one dict subscript.
    """

    def __init__(self, routes, default=None) -> None:
        super().__init__()
        self._routes = tuple(routes)
        self._default = default

    def __missing__(self, message_type: type):
        handler = self._default
        for base, candidate in self._routes:
            if issubclass(message_type, base):
                handler = candidate
                break
        self[message_type] = handler
        return handler


@dataclass(frozen=True)
class PrePrepareMsg:
    """Primary's proposal assigning sequence ``seq`` to a batch in ``view``."""

    view: int
    seq: int
    digest: str
    batch: Any

    def canonical(self) -> str:
        return f"preprepare:{self.view}:{self.seq}:{self.digest}"


@dataclass(frozen=True)
class PrepareMsg:
    """A node's agreement to support sequence ``seq`` for digest ``digest``."""

    view: int
    seq: int
    digest: str
    replica: str

    def canonical(self) -> str:
        return f"prepare:{self.view}:{self.seq}:{self.digest}:{self.replica}"


@dataclass(frozen=True)
class CommitMsg:
    """A node's commit vote; digitally signed so it can serve in certificates."""

    view: int
    seq: int
    digest: str
    replica: str
    signature: Optional[Signature] = None

    def canonical(self) -> str:
        return f"commit:{self.view}:{self.seq}:{self.digest}:{self.replica}"


@dataclass(frozen=True)
class ViewChangeMsg:
    """Request to replace the primary of ``view`` with the primary of ``new_view``."""

    new_view: int
    replica: str
    # Prepared-but-uncommitted slots the replica knows about: seq -> (digest, batch).
    prepared: Tuple[Tuple[int, str], ...] = ()
    signature: Optional[Signature] = None

    def canonical(self) -> str:
        prepared = ";".join(f"{seq}:{digest}" for seq, digest in self.prepared)
        return f"viewchange:{self.new_view}:{self.replica}:{prepared}"

    @property
    def size_bytes(self) -> int:
        return VIEWCHANGE_BASE_BYTES + 64 * len(self.prepared)


@dataclass(frozen=True)
class NewViewMsg:
    """The new primary's message installing ``new_view``."""

    new_view: int
    primary: str
    # Slots the new primary re-proposes: seq -> (digest, batch).
    reproposals: Tuple[Tuple[int, str, Any], ...] = ()
    supporters: FrozenSet[str] = frozenset()
    signature: Optional[Signature] = None

    def canonical(self) -> str:
        slots = ";".join(f"{seq}:{digest}" for seq, digest, _batch in self.reproposals)
        return f"newview:{self.new_view}:{self.primary}:{slots}"

    @property
    def size_bytes(self) -> int:
        return NEWVIEW_BASE_BYTES + 128 * len(self.reproposals)


@dataclass(frozen=True)
class CheckpointMsg:
    """Featherweight checkpoint (Section V-B).

    Unlike classic PBFT checkpoints, shim nodes neither execute requests nor
    hold state, so the checkpoint carries only the *commit certificates*
    (digest plus the 2f+1 commit signatures) of every sequence number decided
    since the last checkpoint — enough for a node kept in the dark to verify
    and adopt those decisions.
    """

    view: int
    up_to_seq: int
    replica: str
    #: seq -> (digest, commit view, commit signatures).  The *commit view*
    #: is the view the certificate's signatures were produced in — required
    #: to re-verify them after later view changes (the sender's current
    #: ``view`` above may have moved on).
    certificates: Dict[int, Tuple[str, int, Tuple[Signature, ...]]] = field(default_factory=dict)
    #: Sender's stable (truncated) watermark: sequence numbers ≤ it are
    #: 2f+1-checkpointed cluster-wide and their certificates are no longer
    #: retained.  A recovering node adopts the watermark once f+1 distinct
    #: responders vouch for it.
    stable_seq: int = 0
    signature: Optional[Signature] = None

    def canonical(self) -> str:
        certs = ";".join(
            f"{seq}:{view}:{digest}"
            for seq, (digest, view, _sigs) in sorted(self.certificates.items())
        )
        return f"checkpoint:{self.view}:{self.up_to_seq}:{self.stable_seq}:{self.replica}:{certs}"

    @property
    def size_bytes(self) -> int:
        return CHECKPOINT_BASE_BYTES + 96 * sum(
            1 + len(sigs) for _digest, _view, sigs in self.certificates.values()
        )


@dataclass(frozen=True)
class CheckpointRequestMsg:
    """A recovering (or dark) node asking peers for catch-up state.

    The requester announces the highest sequence number it still holds
    (``low_seq``); each peer replies with a targeted :class:`CheckpointMsg`
    carrying the certificates it retains beyond that point plus its stable
    watermark and current view — together the state-transfer path of
    Section V-B for a node rejoining after a crash.
    """

    replica: str
    low_seq: int = 0

    def canonical(self) -> str:
        return f"checkpoint-request:{self.replica}:{self.low_seq}"

    @property
    def size_bytes(self) -> int:
        return CHECKPOINT_REQUEST_BYTES


# --------------------------------------------------------------------------- Paxos
# Messages for the crash-fault-tolerant shim baseline (SERVERLESSCFT).


@dataclass(frozen=True)
class PaxosAcceptMsg:
    """Leader's accept (phase-2a) message for a slot."""

    ballot: int
    seq: int
    digest: str
    batch: Any

    def canonical(self) -> str:
        return f"paxos-accept:{self.ballot}:{self.seq}:{self.digest}"


@dataclass(frozen=True)
class PaxosAcceptedMsg:
    """Acceptor's accepted (phase-2b) message."""

    ballot: int
    seq: int
    digest: str
    replica: str

    def canonical(self) -> str:
        return f"paxos-accepted:{self.ballot}:{self.seq}:{self.digest}:{self.replica}"


PAXOS_ACCEPT_BYTES = 5200
PAXOS_ACCEPTED_BYTES = 96
