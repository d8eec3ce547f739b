"""Integration tests for the attacks of Section V/VI and their recovery.

The node-level drills run through *scenario presets*
(``request-suppression``, ``fewer-executors``, ``duplicate-spawning``,
``verify-flooding``, ``delayed-spawning``) — the same registry path sweeps
and composed ``RunSpec``s take — so these tests also pin down that the
presets inject exactly the behaviours a constructor is handed directly.
Attacks without a preset (equivocation-style setups) keep the
direct-constructor path; crashing a specific backup is a fault-timeline
event (``crash:node-2@0``).
"""

from tests.helpers import make_config, make_workload, run_drill, run_simulation
from repro.faults.byzantine import (
    DelaySpawningBehaviour,
    DuplicateVerifyBehaviour,
    FewerExecutorsBehaviour,
    RequestIgnoranceBehaviour,
    SilentExecutorBehaviour,
    WrongResultBehaviour,
)
from repro.faults.injector import PerBatchExecutorFaults


def attack_config(**overrides):
    """Config with aggressive timers so recovery happens within the test run."""
    params = dict(
        client_timeout=0.4,
        node_request_timeout=0.6,
        retransmission_timeout=0.4,
        verifier_quorum_timeout=0.4,
    )
    params.update(overrides)
    return make_config(**params)


# ------------------------------------------------------------------ request suppression


def test_request_ignorance_triggers_view_change_and_progress():
    simulation, result = run_drill("request-suppression", duration=5.0)
    # The byzantine primary is eventually replaced and clients make progress.
    assert result.view_changes > 0
    assert result.committed_txns > 0
    assert result.client_retransmissions > 0
    assert result.verifier_errors_sent > 0
    assert simulation.nodes[1].current_primary != "node-0"


def test_fewer_executors_attack_detected_by_verifier():
    simulation, result = run_drill("fewer-executors", duration=5.0)
    # The verifier cannot gather f_E+1 matching VERIFYs, blames the primary,
    # and the shim installs a new view; afterwards transactions flow again.
    assert result.verifier_replace_sent > 0
    assert result.view_changes > 0
    assert result.committed_txns > 0


def test_drill_scenario_matches_bespoke_fault_objects():
    """The preset injects exactly what the constructor is handed directly.

    Same resolved config: a run whose faults come from the
    ``request-suppression`` scenario must be bit-identical (result digest)
    to one built with ``RequestIgnoranceBehaviour`` passed to
    ``build_system`` — the guarantee that naming a fault changes nothing
    about the simulated run.
    """
    from repro.api import (
        RunSpec,
        build_system,
        protocol_config_from_dict,
        resolve,
        result_digest,
        run,
        workload_config_from_dict,
    )
    from tests.helpers import DRILL_OVERRIDES

    spec = RunSpec(
        base="default",
        overrides=DRILL_OVERRIDES,
        scenarios=["request-suppression"],
        duration=2.0,
        warmup=0.0,
    )
    via_scenario = run(spec)
    resolved = resolve(spec)
    via_constructor = build_system(
        "serverless_bft",
        protocol_config_from_dict(resolved["config"]),
        workload_config_from_dict(resolved["workload"]),
        node_behaviours={"node-0": RequestIgnoranceBehaviour(drop_every=1)},
    ).run(duration=2.0, warmup=0.0)
    assert result_digest(via_scenario) == result_digest(via_constructor)


def test_drill_scenarios_compose_with_workload_presets():
    """Node drills are ordinary presets now: compositions can include them."""
    _simulation, result = run_drill(
        ["fewer-executors", "skewed-ycsb"], duration=3.0
    )
    assert result.verifier_replace_sent > 0
    assert result.committed_txns > 0


def test_crashed_backup_node_does_not_stop_the_shim():
    _simulation, result = run_simulation(
        config=attack_config(fault_timeline="crash:node-2@0"),
        duration=3.0,
        warmup=0.0,
    )
    assert result.committed_txns > 0
    assert result.view_changes == 0  # the primary is honest, no replacement needed


# ------------------------------------------------------------------ byzantine executors


def test_wrong_result_executors_cannot_corrupt_storage():
    byz_sim, byz_result = run_simulation(
        duration=2.0,
        warmup=0.0,
        executor_behaviour_factory=PerBatchExecutorFaults(
            count=1, behaviour_factory=WrongResultBehaviour
        ),
    )
    # With f_E byzantine executors the matching quorum still validates the
    # honest result and the run commits transactions normally.
    assert byz_result.committed_txns > 0
    # Safety: the fabricated writes (tagged "byzantine-corrupted") never make
    # it into the on-premise data store — only the honest quorum's result does.
    values = [byz_sim.store.read(key).value for key in byz_sim.store.keys()]
    assert values
    assert not any("byzantine-corrupted" in value for value in values)


def test_silent_executors_tolerated_up_to_f():
    _simulation, result = run_simulation(
        duration=2.0,
        warmup=0.0,
        executor_behaviour_factory=PerBatchExecutorFaults(
            count=1, behaviour_factory=SilentExecutorBehaviour
        ),
    )
    assert result.committed_txns > 0


def test_verify_flooding_is_ignored_by_the_verifier():
    _simulation, result = run_drill("verify-flooding", duration=2.0)
    assert result.committed_txns > 0
    assert result.verifier_ignored_verify > 0


# ------------------------------------------------------------------ verifier flooding by nodes


def test_duplicate_spawning_costs_the_byzantine_node_money():
    _simulation, result = run_drill("duplicate-spawning", duration=2.0)
    assert result.committed_txns > 0
    # Flooding is self-penalising: the byzantine spawner pays for every extra
    # executor it spawned (Section V-C).
    per_spawner = result.billing.per_spawner_cost
    assert per_spawner.get("node-0", 0.0) > 0
    honest_costs = [cost for name, cost in per_spawner.items() if name != "node-0"]
    assert all(per_spawner["node-0"] >= cost for cost in honest_costs)


# ------------------------------------------------------------------ byzantine aborts


def test_delayed_spawning_with_decentralized_policy_still_executes():
    _simulation, result = run_drill(
        "delayed-spawning",
        duration=4.0,
        overrides={
            "protocol.spawn_policy": "decentralized",
            "workload.conflict_fraction": 0.2,
            "workload.rw_sets_known": False,
        },
    )
    # Even though the primary delays its own spawns indefinitely, the other
    # nodes' executors provide the f_E+1 matching results.
    assert result.committed_txns > 0
