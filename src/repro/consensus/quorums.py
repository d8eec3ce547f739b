"""Quorum counting.

PBFT phases repeatedly need "identical messages from N distinct nodes".
:class:`QuorumTracker` collects votes keyed by an arbitrary vote key (e.g.
``(view, seq, digest)``), deduplicates by sender, and reports when a
threshold is met.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    List,
    Optional,
    Tuple,
    TypeVar,
)

VoteKey = TypeVar("VoteKey", bound=Hashable)


class QuorumTracker(Generic[VoteKey]):
    """Counts distinct voters per key and fires once a threshold is reached."""

    def __init__(self, threshold: int) -> None:
        if threshold < 1:
            raise ValueError(f"a quorum needs at least one vote, not {threshold}")
        self._threshold = threshold
        self._votes: Dict[VoteKey, Dict[str, Any]] = {}

    @property
    def threshold(self) -> int:
        return self._threshold

    def add(self, key: VoteKey, voter: str, payload: Any = None) -> bool:
        """Record a vote.  Returns True the *first* time the quorum is reached.

        Duplicate votes from the same voter for the same key are ignored, as
        required to tolerate byzantine vote replays.  A key gains one voter
        per counted vote, so the quorum is first reached exactly when the
        count equals the threshold.
        """
        voters = self._votes.get(key)
        if voters is None:
            voters = self._votes[key] = {}
        elif voter in voters:
            return False
        voters[voter] = payload
        return len(voters) == self._threshold

    def count(self, key: VoteKey) -> int:
        return len(self._votes.get(key, {}))

    def reached(self, key: VoteKey) -> bool:
        return self.count(key) >= self._threshold

    def voters(self, key: VoteKey) -> List[str]:
        return list(self._votes.get(key, {}))

    def payloads(self, key: VoteKey) -> List[Any]:
        return list(self._votes.get(key, {}).values())

    def keys(self) -> List[VoteKey]:
        return list(self._votes.keys())

    def best_key_with_prefix(
        self, prefix_filter: Callable[[VoteKey], bool]
    ) -> Optional[Tuple[VoteKey, int]]:
        """Return the key with the most votes among those accepted by ``prefix_filter``."""
        best: Optional[Tuple[VoteKey, int]] = None
        for key, voters in self._votes.items():
            if not prefix_filter(key):
                continue
            if best is None or len(voters) > best[1]:
                best = (key, len(voters))
        return best

    def clear(self, key: VoteKey) -> None:
        self._votes.pop(key, None)

    def drop_through(self, seq: int) -> None:
        """Forget every ``(view, seq, digest)`` key with a sequence number ≤ ``seq``.

        For the per-sequence trackers of an ordering engine, called when its
        stable watermark reaches ``seq``: the engine counts no vote at or
        below the watermark again, so those keys are dead.
        """
        self._votes = {key: voters for key, voters in self._votes.items() if key[1] > seq}
