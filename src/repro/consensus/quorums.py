"""Quorum counting.

PBFT phases repeatedly need "identical messages from N distinct nodes".
:class:`QuorumTracker` collects votes keyed by an arbitrary vote key (e.g.
``(view, seq, digest)``), deduplicates by sender, and reports when a
threshold is met.  A caller that needs nothing from a key once it has
fired settles it (:meth:`QuorumTracker.settle`): the key then holds no
voters, only the fact that it decided.
"""

from __future__ import annotations

from typing import Any, Dict, Generic, Hashable, List, TypeVar

VoteKey = TypeVar("VoteKey", bound=Hashable)

#: The voters of every settled key: one shared, never-mutated empty dict
#: (``add`` returns before writing to it).
_SETTLED: Dict[str, Any] = {}


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
        count equals the threshold.  A settled key has already fired, so
        every later vote for it returns False.
        """
        voters = self._votes.get(key)
        if voters is None:
            voters = self._votes[key] = {}
        elif voters is _SETTLED or voter in voters:
            return False
        voters[voter] = payload
        return len(voters) == self._threshold

    def settle(self, key: VoteKey) -> None:
        """Drop a fired key's voters; it keeps only the fact that it decided.

        ``add`` answers every later vote for the key with False, exactly as
        it does for a key past its threshold, and ``voters``/``payloads``
        read empty.  ``drop_through`` forgets the key like any other.
        """
        self._votes[key] = _SETTLED

    def voters(self, key: VoteKey) -> List[str]:
        return list(self._votes.get(key, {}))

    def payloads(self, key: VoteKey) -> List[Any]:
        return list(self._votes.get(key, {}).values())

    def keys(self) -> List[VoteKey]:
        return list(self._votes.keys())

    def drop_through(self, seq: int) -> None:
        """Forget every ``(view, seq, digest)`` key with a sequence number ≤ ``seq``.

        For the per-sequence trackers of an ordering engine, called when its
        stable watermark reaches ``seq``: the engine counts no vote at or
        below the watermark again, so those keys are dead.
        """
        self._votes = {key: voters for key, voters in self._votes.items() if key[1] > seq}

    def drop_views_through(self, view: int) -> None:
        """Forget every key ≤ ``view``, for a tracker keyed by the view a
        VIEWCHANGE asks for: once ``view`` is installed, no vote for it or an
        older view is counted again."""
        self._votes = {key: voters for key, voters in self._votes.items() if key > view}
