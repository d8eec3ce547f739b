"""Unit tests for quorum tracking and the consensus log."""

from repro.consensus.log import CommittedEntry, ConsensusLog
from repro.consensus.quorums import QuorumTracker


def test_quorum_reached_exactly_once():
    tracker = QuorumTracker(threshold=3)
    key = (0, 1, "digest")
    assert tracker.add(key, "a") is False
    assert tracker.add(key, "b") is False
    assert tracker.add(key, "c") is True
    assert tracker.add(key, "d") is False  # already reached
    assert set(tracker.voters(key)) == {"a", "b", "c", "d"}


def test_duplicate_voters_do_not_count():
    tracker = QuorumTracker(threshold=2)
    key = "slot-1"
    assert tracker.add(key, "a") is False
    assert tracker.add(key, "a") is False
    assert tracker.voters(key) == ["a"]
    assert tracker.add(key, "b") is True


def test_payloads_and_voters_preserved():
    tracker = QuorumTracker(threshold=2)
    tracker.add("k", "a", payload="sig-a")
    tracker.add("k", "b", payload="sig-b")
    assert set(tracker.voters("k")) == {"a", "b"}
    assert set(tracker.payloads("k")) == {"sig-a", "sig-b"}


def test_independent_keys_tracked_separately():
    tracker = QuorumTracker(threshold=2)
    tracker.add(("v", 1), "a")
    tracker.add(("v", 2), "a")
    assert tracker.voters(("v", 1)) == ["a"]
    assert tracker.voters(("v", 2)) == ["a"]
    assert set(tracker.keys()) == {("v", 1), ("v", 2)}


def test_a_settled_key_keeps_no_voters_and_fires_no_more():
    tracker = QuorumTracker(threshold=2)
    decided, pending = ("v", 1, "d"), ("v", 2, "d")
    tracker.add(decided, "a", payload="sig-a")
    tracker.add(pending, "a", payload="sig-a")
    assert tracker.add(decided, "b", payload="sig-b") is True
    tracker.settle(decided)
    assert tracker.voters(decided) == [] and tracker.payloads(decided) == []
    # A new voter and a replayed one both return False, as after the
    # threshold of an unsettled key ...
    assert tracker.add(decided, "c") is False
    assert tracker.add(decided, "a") is False
    assert tracker.voters(decided) == []
    # ... the key is still known (and dropped with the watermark) ...
    assert set(tracker.keys()) == {decided, pending}
    # ... and the other keys are unaffected.
    assert tracker.voters(pending) == ["a"]
    assert tracker.add(pending, "b") is True
    tracker.drop_through(1)
    assert tracker.keys() == [pending]


# ------------------------------------------------------------------ consensus log


def entry(seq, digest="d"):
    return CommittedEntry(seq=seq, view=0, digest=digest, batch=f"batch-{seq}", certificate=())


def test_log_slots_and_commits():
    log = ConsensusLog()
    slot = log.slot(3)
    slot.prepared = True
    assert log.has_slot(3)
    assert not log.is_committed(3)
    log.record_commit(entry(3))
    assert log.is_committed(3)
    assert log.committed_count() == 1
    assert log.max_committed_seq() == 3


def test_committed_entries_sorted_and_since():
    log = ConsensusLog()
    for seq in (5, 2, 7):
        log.record_commit(entry(seq))
    assert [e.seq for e in log.committed_entries()] == [2, 5, 7]
    assert [e.seq for e in log.committed_since(2)] == [5, 7]


def test_prepared_uncommitted_listing():
    log = ConsensusLog()
    log.slot(1).prepared = True
    log.slot(2).prepared = True
    log.record_commit(entry(2))
    pending = log.prepared_uncommitted()
    assert [slot.seq for slot in pending] == [1]


def test_checkpoint_advancement_and_missing():
    log = ConsensusLog()
    for seq in (1, 2, 4):
        log.record_commit(entry(seq))
    assert log.missing_below(4) == [3]
    log.advance_checkpoint(2)
    assert log.last_checkpoint_seq == 2
    log.advance_checkpoint(1)
    assert log.last_checkpoint_seq == 2  # never goes backwards


def test_slot_certificate_collects_distinct_signatures():
    log = ConsensusLog()
    slot = log.slot(1)
    slot.commit_signatures["node-0"] = "sig-0"
    slot.commit_signatures["node-1"] = "sig-1"
    slot.commit_signatures["node-0"] = "sig-0-bis"
    assert len(slot.certificate) == 2
    # The committed entry takes the certificate; the slot keeps none.
    log.record_commit(CommittedEntry(1, 0, "d", None, slot.certificate))
    assert slot.commit_signatures == {}
    assert log.committed_entries()[0].certificate == ("sig-0-bis", "sig-1")
