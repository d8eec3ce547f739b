"""Perf-overhaul guardrails.

The hot-path PRs (cached digests, pooled event kernel, memoised execution,
FastCryptoBackend, incremental verifier validation) must
not change any simulated-time result.  These tests pin that down:

* the same seed produces bit-identical runs;
* the ``FastCryptoBackend`` produces results bit-identical to real crypto —
  commit sequence, latency statistics, and message counts included;
* the kernel runs any program of schedules, cancels, compactions and
  bounded runs in exactly sorted ``(time, priority, seq)`` order;
* the supporting machinery (digest memo, canonicalisation fix, bounded
  samplers, execution memo, duplicate-delivery fix, incremental percentiles)
  behaves exactly like the unoptimised equivalents.
"""

import random

import pytest

from repro.core.config import ProtocolConfig
from repro.api import build_system
from repro.crypto.hashing import cached_digest, canonical_bytes, digest, seed_cached_digest
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import (
    FastCryptoBackend,
    RealCryptoBackend,
    SignatureService,
    resolve_backend,
)
from repro.errors import ConfigurationError, CryptoError
from repro.perf import PERF
from repro.sim.engine import Simulator
from repro.sim.network import Network, NetworkFaultPlan, UniformLatencyModel
from repro.sim.rng import DeterministicRNG
from repro.sim.stats import LatencyRecorder
from repro.workload.transactions import execute_batch, execute_batch_cached
from repro.workload.ycsb import YCSBConfig, YCSBWorkload


def _small_config(**overrides) -> ProtocolConfig:
    params = dict(
        num_clients=120,
        client_groups=4,
        batch_size=20,
        shim_nodes=4,
        num_executors=3,
        seed=7,
    )
    params.update(overrides)
    return ProtocolConfig(**params)


def _run(config: ProtocolConfig, system: str = "serverless_bft", duration: float = 1.0):
    simulation = build_system(system, config)
    result = simulation.run(duration=duration, warmup=0.2)
    commit_sequence = [
        (entry.seq, entry.digest)
        for entry in simulation.nodes[0].replica.log.committed_entries()
    ]
    return simulation, result, commit_sequence


def _fingerprint(result):
    latency = result.latency
    return (
        result.committed_txns,
        result.aborted_txns,
        result.throughput_txn_per_sec,
        result.completed_requests,
        result.client_retransmissions,
        result.messages_sent,
        result.messages_dropped,
        result.bytes_sent,
        result.events_processed,
        latency.count,
        latency.mean,
        latency.p50,
        latency.p95,
        latency.p99,
        latency.minimum,
        latency.maximum,
    )


# ------------------------------------------------------------ determinism


def test_same_seed_is_bit_identical():
    _, first, first_commits = _run(_small_config())
    _, second, second_commits = _run(_small_config())
    assert _fingerprint(first) == _fingerprint(second)
    assert first_commits == second_commits


def test_fast_crypto_backend_matches_real_crypto_exactly():
    """The PR's core guardrail: swapping the crypto backend changes nothing
    observable in simulated time — commit sequence, latency stats, and
    message counts are bit-identical — and every system really builds its
    signers on the configured backend (``pbft_replicated`` once ignored it)."""
    for system in ("serverless_bft", "serverless_cft", "pbft_replicated", "noshim"):
        # Without a verifier round trip pbft_replicated commits ~15x more per
        # virtual second; a shorter run keeps its share of host time level.
        duration = 0.3 if system == "pbft_replicated" else 1.0
        real_sim, real, real_commits = _run(_small_config(crypto_backend="real"), system, duration)
        fast_sim, fast, fast_commits = _run(_small_config(crypto_backend="fast"), system, duration)
        for simulation, backend_type in (
            (real_sim, RealCryptoBackend),
            (fast_sim, FastCryptoBackend),
        ):
            signers = [member._signer for member in simulation.nodes + simulation.clients]
            assert signers and all(type(s.backend) is backend_type for s in signers), system
        assert real_commits, f"{system} must commit something for the comparison to mean anything"
        assert real_commits == fast_commits, system
        assert _fingerprint(real) == _fingerprint(fast), system


def test_wall_clock_metrics_populated():
    _, result, _ = _run(_small_config())
    assert result.wall_clock_seconds > 0
    assert result.events_processed > 0
    assert result.events_per_second == pytest.approx(
        result.events_processed / result.wall_clock_seconds
    )


def test_unknown_crypto_backend_rejected():
    with pytest.raises(ConfigurationError):
        _small_config(crypto_backend="quantum")


# ------------------------------------------------------------ event order


def test_deferred_slot_preserves_schedule_order():
    """Same-timestamp events run in seq order whichever call scheduled them.

    (Named for the deferred slot the kernel once had; the order it pinned is
    the heap's.)
    """
    order = []
    sim = Simulator()
    sim.schedule_fast(1.0, order.append, "fast-a")
    sim.schedule(1.0, order.append, "timer-b")
    sim.schedule_fast(1.0, order.append, "fast-c")
    sim.schedule_fast(0.5, order.append, "fast-d")
    sim.run_until_idle()
    assert order == ["fast-d", "fast-a", "timer-b", "fast-c"]


def test_coalescing_disabled_uses_heap_only():
    """The deferred slot is gone for good: every event goes through the heap,
    and ``PERF.events_coalesced`` — a field kept only because perfledger's
    ``sim.engine.coalesced_ratio`` row reads it — stays 0."""
    PERF.reset()
    sim = Simulator()
    remaining = [100]

    def tick() -> None:
        if remaining[0] > 0:
            remaining[0] -= 1
            sim.schedule_fast(1e-6, tick)

    sim.schedule_fast(0.0, tick)
    sim.run_until_idle()
    assert sim.events_processed == 101
    assert PERF.events_coalesced == 0


class _RandomProgram:
    """A random kernel program that keeps its own model of what must run next.

    Every pending event is modelled as ``(time, priority, seq)`` — ``seq``
    mirrors the kernel's: one per schedule call, in call order — and each
    callback checks that it is the smallest one pending.  Callbacks schedule
    children, cancel other pending timers, cancel themselves (too late: a
    no-op) and now and then cancel in bulk, which makes the kernel compact
    its heap in the middle of a run.
    """

    LIMIT = 2_500

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.sim = Simulator()
        self.pending = {}  # seq -> (time, priority, seq)
        self.timers = {}  # seq -> Event, the cancellable part of ``pending``
        self.executed = 0
        self.scheduled = 0

    def schedule(self) -> None:
        rng = self.rng
        self.scheduled += 1
        seq = self.scheduled
        delay = rng.choice([0.0, 0.0, 0.001, rng.random(), rng.random() * 5])
        priority = 0
        if rng.random() < 0.4:
            self.sim.schedule_fast(delay, self.fire, seq)
        else:
            priority = rng.choice([0, 0, -1, 1])
            self.timers[seq] = self.sim.schedule(delay, self.fire, seq, priority=priority)
        self.pending[seq] = (self.sim.now + delay, priority, seq)

    def cancel(self, seq: int) -> None:
        self.timers.pop(seq).cancel()
        del self.pending[seq]

    def fire(self, seq: int) -> None:
        rng = self.rng
        mine = self.pending.pop(seq)
        assert self.sim.now == mine[0]
        assert not self.pending or mine < min(self.pending.values())
        self.executed += 1
        own_handle = self.timers.pop(seq, None)
        if own_handle is not None and rng.random() < 0.5:
            own_handle.cancel()  # already running: must change nothing
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            if self.scheduled < self.LIMIT:
                self.schedule()
        if self.timers and rng.random() < 0.4:
            self.cancel(rng.choice(sorted(self.timers)))
        if rng.random() < 0.02:
            for timer in sorted(self.timers):
                self.cancel(timer)


@pytest.mark.parametrize("seed", range(6))
def test_kernel_runs_random_programs_in_sorted_order(seed):
    """schedule / schedule_fast / cancel / cancel-from-a-callback / compaction
    mid-run / run(until) / run(max_events): every event that runs is the
    smallest ``(time, priority, seq)`` pending, the first event past ``until``
    stays queued, and the run ends with ``now == until``."""
    program = _RandomProgram(seed)
    sim = program.sim
    for _ in range(800):
        program.schedule()
    compacted_before = PERF.events_compacted

    horizon = 0.0
    for _ in range(5):
        horizon += program.rng.random()
        assert sim.run(until=horizon) == horizon == sim.now
        assert min(program.pending.values())[0] > horizon  # all due ran, the next did not
        assert sim.pending_events >= len(program.pending)

    before = program.executed
    clock = sim.run(max_events=7)
    assert program.executed == before + 7
    assert clock == sim.now <= min(program.pending.values())[0]  # no jump to a bound
    assert sim.run(max_events=0) == clock and program.executed == before + 7

    sim.run_until_idle()
    assert not program.pending
    assert sim.events_processed == program.executed
    assert sim.pending_events == 0
    assert PERF.events_compacted > compacted_before, "no compaction happened mid-run"


def test_run_until_keeps_the_next_event_queued_and_never_rewinds():
    sim = Simulator()
    hits = []
    sim.schedule_fast(1.0, hits.append, "a")
    sim.schedule_fast(2.0, hits.append, "b")
    assert sim.run(until=1.5) == 1.5
    assert hits == ["a"] and sim.pending_events == 1
    assert sim.run(until=1.0) == 1.5  # a bound in the past moves nothing
    assert sim.run(until=2.0) == 2.0 and hits == ["a", "b"]  # an event *at* the bound runs
    assert sim.run(until=3.0) == 3.0  # drained: the clock still advances to the bound


# ------------------------------------------------------------ crypto layer


def test_fast_backend_sign_verify_roundtrip_and_forgery():
    store = KeyStore()
    signer = SignatureService(store, "node-0", backend="fast")
    verifier = SignatureService(store, "node-1", backend="fast")
    signature = signer.sign({"seq": 3})
    assert verifier.verify({"seq": 3}, signature)
    assert not verifier.verify({"seq": 4}, signature)
    # Claiming another signer invalidates the token (it embeds the key).
    from dataclasses import replace

    forged = replace(signature, signer="node-1")
    assert not verifier.verify({"seq": 3}, forged)


def test_mac_authenticator_supports_fast_backend():
    """MACs accept the backend knob too (callers opt in per authenticator;
    the deployed simulation only wires the backend into signatures)."""
    from repro.crypto.signatures import MacAuthenticator

    store = KeyStore()
    alice = MacAuthenticator(store, "alice", backend="fast")
    bob = MacAuthenticator(store, "bob", backend="fast")
    tag = alice.tag("ping", peer="bob")
    assert bob.verify("ping", peer="alice", tag=tag)
    assert not bob.verify("pong", peer="alice", tag=tag)
    assert not bob.verify("ping", peer="carol", tag=tag)
    # Fast tags are distinct from real HMAC tags for the same channel.
    real_alice = MacAuthenticator(store, "alice")
    assert real_alice.tag("ping", peer="bob") != tag


def test_resolve_backend_names():
    assert resolve_backend(None).name == "real"
    assert resolve_backend("fast").name == "fast"
    backend = FastCryptoBackend()
    assert resolve_backend(backend) is backend
    with pytest.raises(CryptoError):
        resolve_backend("rot13")


def test_cached_digest_memoises_and_seed_propagates():
    class Payload:
        def __init__(self, body):
            self.body = body

        def canonical(self):
            return f"payload:{self.body}"

    payload = Payload("x")
    first = cached_digest(payload)
    assert first == digest("payload:x")
    # Mutating after the first digest must NOT change the memo (payloads are
    # immutable by contract; this asserts the memo actually sticks).
    payload.body = "y"
    assert cached_digest(payload) == first

    other = Payload("x")
    seed_cached_digest(other, first)
    assert cached_digest(other) == first

    # Objects that cannot carry the memo still digest correctly.
    assert cached_digest("payload") == digest("payload")


def test_mixed_key_dicts_hash_identically():
    """The canonicalisation satellite: mixed-type dict keys used to fall back
    to insertion-ordered repr, so logically equal dicts hashed differently."""
    first = {1: "a", "b": 2}
    second = {"b": 2, 1: "a"}
    assert digest(first) == digest(second)
    # Distinct logical content still separates in the explicit fallback.
    assert digest({1: "a", "b": 2}) != digest({"1": "a", "b": 2})
    # (A pure-int-keyed dict stays on the JSON path, which coerces int keys
    # to strings — pre-existing behaviour this fix deliberately preserves.)
    assert digest({1: "a"}) == digest({"1": "a"})
    # The fix must not disturb JSON-serialisable values.
    assert digest({"a": 1, "b": 2}) == digest({"b": 2, "a": 1})
    assert canonical_bytes("plain") == b"plain"


# ------------------------------------------------------------ sampler + memo


def test_bounded_int_fn_matches_randint_draw_for_draw():
    mine = DeterministicRNG(123)
    reference = random.Random(DeterministicRNG(123).seed)
    draw_small = mine.bounded_int_fn(7)
    draw_one = mine.bounded_int_fn(1)
    draw_large = mine.bounded_int_fn(10**9 + 1)
    for _ in range(500):
        assert draw_small() == reference.randint(0, 6)
        assert draw_one() == reference.randint(0, 0)
        assert draw_large() == reference.randint(0, 10**9)


def test_next_transactions_matches_single_transaction_entry_point():
    """The hoisted batch generator and next_transaction stay draw-identical.

    next_transactions inlines the uniform operation builder for speed; this
    pins the contract that every future change to the key scheme keeps the
    two entry points emitting the same transactions for the same draws.
    """
    batched = YCSBWorkload(YCSBConfig(clients=8, seed=21))
    looped = YCSBWorkload(YCSBConfig(clients=8, seed=21))
    from_batch = batched.next_transactions(16, client_index_offset=2, origin="o", request_id="r")
    one_by_one = tuple(
        looped.next_transaction(client_index=2 + slot, origin="o", request_id="r")
        for slot in range(16)
    )
    assert from_batch == one_by_one
    # And with conflicts + skew, where the general builder path is taken.
    config = YCSBConfig(clients=8, seed=22, conflict_fraction=0.4, zipfian_theta=0.8)
    batched, looped = YCSBWorkload(config), YCSBWorkload(config)
    assert batched.next_transactions(16) == tuple(
        looped.next_transaction(client_index=slot) for slot in range(16)
    )


def test_workload_generation_unchanged_by_fast_paths():
    """The inlined uniform generator must equal the general path's output."""
    uniform = YCSBWorkload(YCSBConfig(clients=4, seed=11))
    txns = uniform.transactions(50)
    assert len({txn.txn_id for txn in txns}) == 50
    for txn in txns:
        assert len(txn.operations) == 4
        writes = [op for op in txn.operations if op.is_write]
        assert len(writes) == 2
        for op in writes:
            assert op.value is not None and op.value.startswith("val-")
        assert txn.keys == frozenset(op.key for op in txn.operations)


def test_execute_batch_cached_shares_and_separates_results():
    workload = YCSBWorkload(YCSBConfig(clients=2, seed=3))
    batch = workload.next_batch(5)
    versions_a = {key: 0 for key in batch.keys}
    values = {key: "" for key in batch.keys}
    plain = execute_batch(batch, values, versions_a)
    cached_one = execute_batch_cached(batch, values, versions_a, snapshot_token=9)
    cached_two = execute_batch_cached(batch, values, versions_a, snapshot_token=9)
    assert cached_one is cached_two  # memo hit via snapshot token
    assert cached_one == plain  # and identical to the uncached path
    # Same versions under a different token also share via the versions key.
    cached_three = execute_batch_cached(batch, values, versions_a, snapshot_token=12)
    assert cached_three is cached_one
    # A genuinely different snapshot yields a different result object/digest.
    versions_b = dict(versions_a)
    any_key = next(iter(versions_b))
    versions_b[any_key] = 5
    different = execute_batch_cached(batch, values, versions_b, snapshot_token=13)
    assert different is not cached_one
    assert different.result_digest != cached_one.result_digest


# ------------------------------------------------------------ kernel + network


def test_duplicate_delivery_gets_minimum_offset_and_bytes_counted():
    """Satellite fix: with zero base latency the duplicate used to collapse
    onto the original delivery time, and its bytes were never counted."""
    sim = Simulator()
    network = Network(
        sim,
        UniformLatencyModel(base_delay=0.0, jitter=0.0, bandwidth_bytes_per_sec=0.0),
        DeterministicRNG(1),
        fault_plan=NetworkFaultPlan(duplicate_probability=1.0),
    )
    deliveries = []
    network.register("a", "r", lambda msg, sender: deliveries.append(sim.now))
    network.register("b", "r", lambda msg, sender: None)
    network.send("b", "a", "x", size_bytes=100)
    sim.run_until_idle()
    assert len(deliveries) == 2
    assert deliveries[1] >= deliveries[0] + Network.MIN_DUPLICATE_OFFSET
    assert network.bytes_sent == 200  # original + duplicate


def test_cancelled_events_are_compacted():
    sim = Simulator()
    events = [sim.schedule(1.0 + index * 1e-6, lambda: None) for index in range(2000)]
    keeper_ran = []
    sim.schedule(0.5, keeper_ran.append, True)
    for event in events:
        event.cancel()
    # Compaction triggered once cancelled entries dominated the queue; only
    # a sub-threshold residue of cancelled marks (< 256) may remain.
    assert sim.pending_events < 300
    sim.run_until_idle()
    assert keeper_ran == [True]


def test_event_cancel_after_run_is_noop():
    sim = Simulator()
    hits = []
    event = sim.schedule(0.1, hits.append, "ran")
    sim.run_until_idle()
    event.cancel()  # must not corrupt queue accounting
    sim.schedule(0.2, hits.append, "second")
    sim.run_until_idle()
    assert hits == ["ran", "second"]


# ------------------------------------------------------------ stats


def test_incremental_percentiles_match_full_resort():
    recorder = LatencyRecorder()
    reference = []
    rng = random.Random(5)
    for round_index in range(5):
        for _ in range(200):
            sample = rng.random()
            recorder.record_value(sample)
            reference.append(sample)
        summary = recorder.summary()  # merge happens incrementally per round
        ordered = sorted(reference)
        assert summary.count == len(ordered)
        assert summary.minimum == min(ordered)
        assert summary.maximum == max(ordered)
        assert summary.mean == pytest.approx(sum(ordered) / len(ordered))
        assert summary.p50 == pytest.approx(_reference_percentile(ordered, 0.50))
        assert summary.p95 == pytest.approx(_reference_percentile(ordered, 0.95))
        assert summary.p99 == pytest.approx(_reference_percentile(ordered, 0.99))


def _reference_percentile(ordered, fraction):
    import math

    rank = fraction * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    weight = rank - low
    return ordered[low] * (1 - weight) + ordered[high] * weight
