"""Concrete byzantine behaviours for shim nodes and executors.

Shim-node behaviours map to the attacks of Section V:

* :class:`RequestIgnoranceBehaviour` — a byzantine primary drops or delays
  client requests (request suppression, form i).
* :class:`UnsuccessfulConsensusBehaviour` — the primary involves fewer than
  ``2f_R + 1`` nodes so consensus never completes (form ii).
* :class:`FewerExecutorsBehaviour` — the primary commits the request but
  spawns fewer than ``n_E`` executors (form iii).
* :class:`NodesInDarkBehaviour` — the primary excludes up to ``f_R`` honest
  nodes from every consensus (Section V-B, node exclusion).
* :class:`EquivocationBehaviour` — the primary assigns the same sequence
  number to two different requests (Section V-B, equivocation).
* :class:`DuplicateSpawningBehaviour` — a node replays old certificates to
  spawn redundant executors (verifier flooding, forms i/ii).
* :class:`DelaySpawningBehaviour` — the primary delays spawning for selected
  sequence numbers to force aborts of conflicting transactions
  (the byzantine-abort attack of Section VI-B).
* :class:`CrashBehaviour` — the node stops participating entirely.

Executor behaviours map to the executor-side faults:

* :class:`WrongResultBehaviour` — returns a fabricated result.
* :class:`SilentExecutorBehaviour` — never reports to the verifier.
* :class:`DuplicateVerifyBehaviour` — floods the verifier with duplicates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, List, Optional, Set, Tuple


class NodeBehaviour:
    """Base (honest) behaviour: every hook is a pass-through.

    Subclasses override only the hooks relevant to their attack, so protocol
    code can consult every hook unconditionally.
    """

    # --- hooks used by the ordering engine (PBFT) ---------------------------------

    def preprepare_targets(self, targets: List[str]) -> List[str]:
        """Which nodes receive the PREPREPARE for a new proposal."""
        return targets

    def equivocation(self, seq: int, batch: Any) -> Optional[Tuple[Any, List[str]]]:
        """Return ``(other_batch, targets)`` to equivocate, or None."""
        return None

    def suppress(self, phase: str) -> bool:
        """Whether to suppress sending our own message of the given phase."""
        return False

    # --- hooks used by the shim node (serverless-edge layer) -----------------------

    def should_drop_request(self, request: Any) -> bool:
        """Primary-only: silently drop an incoming client request."""
        return False

    def executor_spawn_count(self, planned: int, seq: int) -> int:
        """How many executors to actually spawn (``planned`` for honest nodes)."""
        return planned

    def spawn_delay(self, seq: int) -> float:
        """Extra delay before spawning executors for ``seq`` (0 for honest)."""
        return 0.0

    def duplicate_spawn_count(self, seq: int) -> int:
        """Extra redundant executors to spawn (verifier flooding)."""
        return 0

    def is_crashed(self) -> bool:
        return False


@dataclass
class RequestIgnoranceBehaviour(NodeBehaviour):
    """Drop a fraction of client requests (or every request) at the primary."""

    drop_every: int = 1
    _seen: int = 0

    def should_drop_request(self, request: Any) -> bool:
        self._seen += 1
        return self.drop_every > 0 and self._seen % self.drop_every == 0


@dataclass
class UnsuccessfulConsensusBehaviour(NodeBehaviour):
    """Send PREPREPARE to fewer than ``2f_R`` other nodes so consensus stalls."""

    max_targets: int = 0

    def preprepare_targets(self, targets: List[str]) -> List[str]:
        return targets[: self.max_targets]


@dataclass
class NodesInDarkBehaviour(NodeBehaviour):
    """Exclude a fixed set of honest nodes from every consensus."""

    dark_nodes: Set[str] = field(default_factory=set)

    def preprepare_targets(self, targets: List[str]) -> List[str]:
        return [target for target in targets if target not in self.dark_nodes]


@dataclass
class EquivocationBehaviour(NodeBehaviour):
    """Propose a different batch (same sequence number) to a subset of nodes."""

    victim_nodes: List[str] = field(default_factory=list)
    forged_batch_factory: Optional[Any] = None

    def equivocation(self, seq: int, batch: Any) -> Optional[Tuple[Any, List[str]]]:
        if not self.victim_nodes or self.forged_batch_factory is None:
            return None
        return self.forged_batch_factory(seq, batch), list(self.victim_nodes)


@dataclass
class FewerExecutorsBehaviour(NodeBehaviour):
    """Spawn fewer executors than required (request suppression, form iii)."""

    spawn_at_most: int = 0

    def executor_spawn_count(self, planned: int, seq: int) -> int:
        return min(planned, self.spawn_at_most)


@dataclass
class DelaySpawningBehaviour(NodeBehaviour):
    """Delay spawning for selected sequence numbers (byzantine-abort attack)."""

    delay_seconds: float = 5.0
    target_seqs: Optional[Set[int]] = None
    delay_every: int = 0

    def spawn_delay(self, seq: int) -> float:
        if self.target_seqs is not None:
            return self.delay_seconds if seq in self.target_seqs else 0.0
        if self.delay_every > 0 and seq % self.delay_every == 0:
            return self.delay_seconds
        return 0.0


@dataclass
class DuplicateSpawningBehaviour(NodeBehaviour):
    """Spawn redundant executors for every committed request (flooding)."""

    extra_per_batch: int = 2

    def duplicate_spawn_count(self, seq: int) -> int:
        return self.extra_per_batch


@dataclass
class CrashBehaviour(NodeBehaviour):
    """The node stops participating (omission failures)."""

    def is_crashed(self) -> bool:
        return True

    def suppress(self, phase: str) -> bool:
        return True

    def should_drop_request(self, request: Any) -> bool:
        return True

    def executor_spawn_count(self, planned: int, seq: int) -> int:
        return 0


# --------------------------------------------------------------------------- executors


class ExecutorBehaviour:
    """Base (honest) executor behaviour."""

    def should_ignore(self) -> bool:
        """Skip execution and never contact the verifier."""
        return False

    def corrupt_result(self, result: Any) -> Any:
        """Optionally replace the execution result with a fabricated one."""
        return result

    def verify_copies(self) -> int:
        """How many copies of the VERIFY message to send (honest: 1)."""
        return 1


@dataclass
class WrongResultBehaviour(ExecutorBehaviour):
    """Return a fabricated execution result.

    Both the result digest and every write value are replaced, so if the
    verifier ever accepted this result the corruption would be visible in the
    data store.
    """

    marker: str = "byzantine"

    def corrupt_result(self, result: Any) -> Any:
        from dataclasses import replace

        return replace(
            result,
            result_digest=f"{self.marker}-{result.result_digest[:8]}",
            writes=tuple(
                {key: f"{self.marker}-corrupted" for key in writes} for writes in result.writes
            ),
        )


class SilentExecutorBehaviour(ExecutorBehaviour):
    """Never send the VERIFY message (crash / straggler executor)."""

    def should_ignore(self) -> bool:
        return True


@dataclass
class DuplicateVerifyBehaviour(ExecutorBehaviour):
    """Send many duplicate VERIFY messages (verifier flooding, form iii)."""

    copies: int = 5

    def verify_copies(self) -> int:
        return max(1, self.copies)
