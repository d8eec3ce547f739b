"""Unit tests for core building blocks: config, certificates, spawning,
conflict planner, and message envelopes."""

import pytest

from repro.consensus.messages import CommitMsg
from repro.core.certificates import CommitCertificate
from repro.core.config import ConflictMode, ProtocolConfig, SpawnPolicyName
from repro.core.conflict import ConflictPlanner
from repro.core.messages import ClientRequestMsg, ErrorMsg, ExecuteMsg, ResponseMsg, VerifyMsg
from repro.core.spawning import DecentralizedSpawnPolicy, PrimarySpawnPolicy, executors_per_node
from repro.crypto.costs import CryptoCostModel
from repro.crypto.hashing import digest
from repro.crypto.keys import KeyStore
from repro.crypto.signatures import SignatureService
from repro.errors import ConfigurationError, ProtocolViolation
from repro.workload.transactions import Operation, Transaction, TransactionBatch, execute_batch
from repro.workload.ycsb import YCSBConfig


# ------------------------------------------------------------------ config


def test_shim_fault_tolerance_derivation():
    assert ProtocolConfig(shim_nodes=4).shim_faults == 1
    assert ProtocolConfig(shim_nodes=4).shim_quorum == 3
    assert ProtocolConfig(shim_nodes=8).shim_faults == 2
    assert ProtocolConfig(shim_nodes=32).shim_faults == 10
    assert ProtocolConfig(shim_nodes=1).shim_faults == 0


def test_executor_fault_derivation_depends_on_conflict_mode():
    optimistic = ProtocolConfig(num_executors=7, conflict_mode=ConflictMode.OPTIMISTIC)
    assert optimistic.derived_executor_faults == 2       # n_E >= 3 f_E + 1
    avoidance = ProtocolConfig(num_executors=7, conflict_mode=ConflictMode.CONFLICT_AVOIDANCE)
    assert avoidance.derived_executor_faults == 3        # n_E >= 2 f_E + 1
    assert optimistic.executor_match_quorum == 3
    explicit = ProtocolConfig(num_executors=7, executor_faults=1)
    assert explicit.derived_executor_faults == 1


def test_config_validation_errors():
    with pytest.raises(ConfigurationError):
        ProtocolConfig(shim_nodes=0)
    with pytest.raises(ConfigurationError):
        ProtocolConfig(batch_size=0)
    with pytest.raises(ConfigurationError):
        ProtocolConfig(num_executors=0)
    with pytest.raises(ConfigurationError):
        ProtocolConfig(num_executors=2, executor_faults=2)
    # The message names the bound the check enforces.
    with pytest.raises(ConfigurationError, match=r"need >= 2f_E\+1 = 3"):
        ProtocolConfig(num_executors=2, executor_faults=1)
    ProtocolConfig(num_executors=3, executor_faults=1)
    with pytest.raises(ConfigurationError):
        ProtocolConfig(shim_cores=0)
    with pytest.raises(ConfigurationError):
        ProtocolConfig(num_clients=0)


def test_config_surface_is_pinned():
    # A field belongs in the spec only while a preset, scenario, figure or
    # test varies it; anything else is a named module constant.  Adding a
    # field means editing this list on purpose.
    assert sorted(ProtocolConfig.__dataclass_fields__) == [
        "batch_size",
        "checkpoint_interval",
        "client_groups",
        "client_region",
        "client_timeout",
        "cold_start_latency",
        "conflict_mode",
        "crypto_backend",
        "executor_faults",
        "fault_timeline",
        "node_request_timeout",
        "num_clients",
        "num_executor_regions",
        "num_executors",
        "retransmission_timeout",
        "seed",
        "shim_cores",
        "shim_nodes",
        "shim_region",
        "spawn_policy",
        "storage_records",
        "txn_ingest_cost",
        "verifier_quorum_timeout",
        "verifier_region",
        "warm_start_latency",
    ]
    assert sorted(YCSBConfig.__dataclass_fields__) == [
        "clients",
        "conflict_fraction",
        "execution_seconds",
        "hot_keys",
        "num_records",
        "operations_per_transaction",
        "rw_sets_known",
        "seed",
        "write_fraction",
        "zipfian_theta",
    ]


def test_with_overrides_creates_modified_copy():
    config = ProtocolConfig(shim_nodes=4)
    bigger = config.with_overrides(shim_nodes=16, batch_size=500)
    assert bigger.shim_nodes == 16
    assert bigger.batch_size == 500
    assert config.shim_nodes == 4


def test_regions_for_executors_uses_paper_order():
    config = ProtocolConfig(num_executor_regions=3)
    names = ["us-west-1", "us-west-2", "us-east-2", "ca-central-1"]
    assert config.regions_for_executors(names) == ["us-west-1", "us-west-2", "us-east-2"]


def test_clients_per_group():
    config = ProtocolConfig(num_clients=1000, client_groups=16)
    assert config.clients_per_group == 62
    assert ProtocolConfig(num_clients=4, client_groups=8).clients_per_group == 1


# ------------------------------------------------------------------ certificates


def build_cert(keystore, view=0, seq=1, batch_digest="d", signers=("node-0", "node-1", "node-2")):
    signatures = []
    for name in signers:
        unsigned = CommitMsg(view=view, seq=seq, digest=batch_digest, replica=name)
        signatures.append(SignatureService(keystore, name).sign(unsigned.canonical()))
    return CommitCertificate(view, seq, batch_digest, tuple(signatures))


def test_certificate_verifies_with_quorum_of_valid_signatures():
    keystore = KeyStore()
    certificate = build_cert(keystore)
    verifier = SignatureService(keystore, "executor-0")
    assert certificate.verify(verifier, required=3)
    assert certificate.signer_count == 3
    assert certificate.size_bytes == 3 * 96


def test_certificate_fails_with_too_few_signers():
    keystore = KeyStore()
    certificate = build_cert(keystore, signers=("node-0", "node-1"))
    verifier = SignatureService(keystore, "executor-0")
    assert not certificate.verify(verifier, required=3)


def test_certificate_fails_for_wrong_digest():
    keystore = KeyStore()
    certificate = build_cert(keystore, batch_digest="original")
    tampered = CommitCertificate(
        view=certificate.view,
        seq=certificate.seq,
        digest="tampered",
        signatures=certificate.signatures,
    )
    verifier = SignatureService(keystore, "executor-0")
    assert not tampered.verify(verifier, required=3)


def test_certificate_verification_cost_depends_on_encoding():
    keystore = KeyStore()
    certificate = build_cert(keystore)
    costs = CryptoCostModel()
    assert certificate.verification_cost(costs, required=3) == pytest.approx(3 * costs.ds_verify)
    threshold_cert = CommitCertificate(view=0, seq=1, digest="d")
    assert threshold_cert.verification_cost(costs, required=0) == 0.0


# ------------------------------------------------------------------ spawning


def test_executors_per_node_equation_one():
    # n_E <= n_R: one executor per node suffices.
    assert executors_per_node(num_executors=3, shim_nodes=4, shim_faults=1) == 1
    # n_E > n_R: ceil(n_E / (2 f_R + 1)).
    assert executors_per_node(num_executors=21, shim_nodes=4, shim_faults=1) == 7
    assert executors_per_node(num_executors=10, shim_nodes=7, shim_faults=2) == 2


def test_executors_per_node_equation_two_with_dark_nodes():
    assert executors_per_node(21, 4, 1, nodes_in_dark=True) == 11
    assert executors_per_node(10, 7, 2, nodes_in_dark=True) == 4
    assert executors_per_node(3, 7, 2, nodes_in_dark=True) == 1


def test_executors_per_node_guarantees_enough_honest_spawners():
    for n_executors in (5, 10, 21):
        for shim_nodes, faults in ((4, 1), (7, 2), (13, 4)):
            per_node = executors_per_node(n_executors, shim_nodes, faults)
            honest_spawners = 2 * faults + 1
            if n_executors > shim_nodes:
                assert per_node * honest_spawners >= n_executors


def test_executors_per_node_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        executors_per_node(0, 4, 1)


def test_primary_spawn_policy_round_robins_regions():
    policy = PrimarySpawnPolicy(num_executors=5, regions=["r1", "r2", "r3"])
    plan = policy.plan("node-0", is_primary=True)
    assert plan.count == 5
    assert plan.regions == ["r1", "r2", "r3", "r1", "r2"]
    assert policy.plan("node-1", is_primary=False).count == 0
    assert policy.expected_total() == 5


def test_decentralized_spawn_policy_every_node_spawns():
    policy = DecentralizedSpawnPolicy(
        num_executors=3, regions=["r1", "r2", "r3"], shim_nodes=4, shim_faults=1
    )
    assert policy.per_node == 1
    plans = [policy.plan(f"node-{i}", is_primary=(i == 0)) for i in range(4)]
    assert all(plan.count == 1 for plan in plans)
    assert policy.expected_total() == 4


def test_decentralized_spawn_plan_is_process_stable():
    # The region stagger must not depend on the builtin (per-process
    # randomised) string hash: every process simulating this deployment —
    # parallel sweep workers included — must pick the same regions.
    import zlib

    regions = ["r1", "r2", "r3"]
    policy = DecentralizedSpawnPolicy(
        num_executors=3, regions=regions, shim_nodes=4, shim_faults=1
    )
    for index in range(4):
        node = f"node-{index}"
        expected = regions[zlib.crc32(node.encode("utf-8")) % len(regions)]
        assert policy.plan(node, is_primary=False).regions == [expected]


def test_spawn_policies_require_regions():
    with pytest.raises(ConfigurationError):
        PrimarySpawnPolicy(num_executors=3, regions=[])
    with pytest.raises(ConfigurationError):
        DecentralizedSpawnPolicy(num_executors=3, regions=[], shim_nodes=4, shim_faults=1)


# ------------------------------------------------------------------ conflict planner


def batch_with_keys(batch_id, reads=(), writes=()):
    operations = [Operation(key=key, is_write=False) for key in reads]
    operations += [Operation(key=key, is_write=True, value="v") for key in writes]
    txn = Transaction(txn_id=f"{batch_id}-t", client_id="c", operations=tuple(operations))
    return TransactionBatch(batch_id=batch_id, transactions=(txn,))


def test_non_conflicting_batches_dispatch_together():
    planner = ConflictPlanner()
    planner.add(1, batch_with_keys("b1", writes=("a",)))
    planner.add(2, batch_with_keys("b2", writes=("b",)))
    ready = planner.ready()
    assert [seq for seq, _ in ready] == [1, 2]


def test_conflicting_batch_waits_for_completion():
    planner = ConflictPlanner()
    planner.add(1, batch_with_keys("b1", writes=("x",)))
    planner.add(2, batch_with_keys("b2", reads=("x",)))
    first = planner.ready()
    assert [seq for seq, _ in first] == [1]
    assert planner.ready() == []  # still blocked
    released = planner.complete(1)
    assert [seq for seq, _ in released] == [2]


def test_write_write_conflicts_serialise():
    planner = ConflictPlanner()
    planner.add(1, batch_with_keys("b1", writes=("k",)))
    planner.add(2, batch_with_keys("b2", writes=("k",)))
    planner.add(3, batch_with_keys("b3", writes=("other",)))
    ready = [seq for seq, _ in planner.ready()]
    assert 1 in ready and 3 in ready and 2 not in ready
    assert [seq for seq, _ in planner.complete(1)] == [2]


def test_read_read_sharing_is_allowed():
    planner = ConflictPlanner()
    planner.add(1, batch_with_keys("b1", reads=("k",)))
    planner.add(2, batch_with_keys("b2", reads=("k",)))
    assert [seq for seq, _ in planner.ready()] == [1, 2]


def test_duplicate_registration_rejected_and_unknown_completion_ignored():
    planner = ConflictPlanner()
    planner.add(1, batch_with_keys("b1", writes=("a",)))
    with pytest.raises(ProtocolViolation):
        planner.add(1, batch_with_keys("b1-bis", writes=("b",)))
    assert planner.complete(99) == []


def test_outstanding_and_locked_items_bookkeeping():
    planner = ConflictPlanner()
    planner.add(1, batch_with_keys("b1", writes=("a",), reads=("b",)))
    planner.ready()
    assert planner.outstanding == 1
    assert planner.locked_items() == {"a", "b"}
    planner.complete(1)
    assert planner.locked_items() == set()


# ------------------------------------------------------------------ messages


def make_batch():
    txn = Transaction(
        txn_id="t1",
        client_id="c1",
        operations=(Operation(key="k", is_write=True, value="v"),),
        origin="client-group-0",
        request_id="req-1",
    )
    return TransactionBatch(batch_id="b1", transactions=(txn,))


def test_verify_match_key_distinguishes_results():
    batch = make_batch()
    cert = CommitCertificate(view=0, seq=1, digest=digest(batch))
    result = execute_batch(batch, {}, {})
    verify_a = VerifyMsg(seq=1, batch=batch, digest=digest(batch), certificate=cert,
                         result=result, executor="executor-0")
    verify_b = VerifyMsg(seq=1, batch=batch, digest=digest(batch), certificate=cert,
                         result=result, executor="executor-1")
    assert verify_a.match_key == verify_b.match_key
    from dataclasses import replace

    corrupted = replace(verify_b, result=replace(result, result_digest="forged"))
    assert corrupted.match_key != verify_a.match_key


def test_message_sizes_follow_paper_values():
    batch = make_batch()
    cert = CommitCertificate(view=0, seq=1, digest="d")
    execute = ExecuteMsg(seq=1, view=0, batch=batch, digest="d", certificate=cert, spawner="node-0")
    assert execute.size_bytes >= 3320
    response = ResponseMsg(request_id="r", seq=1, digest="d")
    assert response.size_bytes == 2270
    request = ClientRequestMsg(request_id="r", origin="c", transactions=batch.transactions)
    assert request.size_bytes == 128
    error = ErrorMsg(missing_seq=5)
    assert error.size_bytes == 256


def test_error_message_canonical_distinguishes_forms():
    request = ClientRequestMsg(request_id="r1", origin="c", transactions=())
    assert ErrorMsg(missing_seq=3).canonical() != ErrorMsg(request=request).canonical()
    assert "r1" in ErrorMsg(request=request).canonical()


def test_verifier_ack_cancels_only_its_own_retransmission_timer():
    """A backup forwarding ERRORs keeps one timer per problem (Figure 4,
    Lines 15–17); the verifier's ACK for seq 1 must leave seq 12's timer
    armed, and the ACK for ``…-req-1`` must leave ``…-req-12``'s."""
    from repro.api import build_system
    from repro.core.messages import AckMsg
    from tests.helpers import make_config, make_workload

    backup = build_system("serverless_bft", make_config(), make_workload()).nodes[1]
    timers = backup._retransmission_timers

    def request(request_id):
        return ClientRequestMsg(request_id=request_id, origin="client-group-0", transactions=())

    for seq in (1, 12):
        backup.on_message(ErrorMsg(missing_seq=seq), "verifier")
    backup.on_message(AckMsg(missing_seq=1), "verifier")
    assert set(timers) == {"error:seq:12"}

    for request_id in ("client-group-0-req-1", "client-group-0-req-12"):
        backup.on_message(ErrorMsg(request=request(request_id)), "verifier")
    backup.on_message(AckMsg(request_id="client-group-0-req-1"), "verifier")
    assert set(timers) == {"error:seq:12", "error:request:client-group-0-req-12"}


def test_response_txn_count():
    response = ResponseMsg(
        request_id="r", seq=1, digest="d",
        committed_txn_ids=("t1", "t2"), aborted_txn_ids=("t3",),
    )
    assert response.txn_count == 3
