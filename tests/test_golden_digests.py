"""Golden digests: refactors must not move a content address or a result.

``(spec_digest, result_digest)`` literals for the four systems on the small
drill config, plus one composed byzantine + fault-timeline run, recorded at
the commit before the ``Deployment`` base class was extracted (PR 13), the
network-fault scenarios (``GOLDEN_NETWORK_SCENARIOS``) and a point with more
clients than key partitions (``GOLDEN_CLIENT_OVERFLOW``).  They are stable
across ``PYTHONHASHSEED``, kernel variant and obs on/off; a digest that
varies with any of those is a determinism bug to report, not a literal to
re-pin.  Re-pin only for a change that *means* to alter simulated behaviour,
and say so in CHANGES.md.
"""

import pytest

from repro.api import RunSpec, result_digest, run, spec_digest
from tests.helpers import DRILL_OVERRIDES

OVERRIDES = {**DRILL_OVERRIDES, "protocol.crypto_backend": "fast"}

GOLDEN = {
    "serverless_bft": (
        "53eb8e1dfb667f4d985e5efe03fcaaee66a8ae72ee5f58d9d52880ab74bffe5e",
        "bb783174e14413897d69566ccb4a677626a3031d3a0c99b4bcbaeb3f88ad294f",
    ),
    "serverless_cft": (
        "7b5575b72132303fb0e268d0a705cee9b0cf31949ebe24a6c05debd0b5e5db79",
        "b9fe180d45b574c2abc26190a3ef46983b68c30f260d293630cd831352452c3f",
    ),
    "pbft_replicated": (
        "df90a8f136b5ae9cf9fa96184d6af24aa6781fbdcc656fccac9700f036b69127",
        "7ce96b330bdd576f95a89620c9431c9f1207ee4b9d6b98f4ab152e67ca4c787e",
    ),
    "noshim": (
        "96b2a24f6b2c35c2b8c24c9b7763a2f645cbbe1929f1e36c49098ab4de5b2992",
        "118ad8add16a84725a8a55ec67b5e732163facd68041518577c03fe7d42b48bd",
    ),
}

GOLDEN_BYZANTINE_TIMELINE = (
    "a48d5de945ba5156caa9c38db4ed25522b4e214f252ad8fea5d79e2170c41a9c",
    "df17cd1d706792da0769d205a93647c7847d803ed7837fc4650b976ae8b74a54",
)

#: The network-fault scenarios, recorded while the region outage was still a
#: ``NetworkFaultPlan`` subclass bound to the live network after construction.
GOLDEN_NETWORK_SCENARIOS = {
    ("serverless_bft", "lossy-network"): (
        "025b4f3340391716e50f845862972566a3046c8907189637d968c715135f89e2",
        "02ce0d430ebf727450dc589822935fac60a1081fde90596e94a69ae4d3ef2852",
    ),
    ("serverless_bft", "network-partition"): (
        "19686dbfbb8256c0e617f0924249eb39b5b69d9271a6cc494022e30c511eb222",
        "881e8dec4353d95aef8e99f310e6f7cbb2d63ff1c8f69552155a2a6ea80ecf71",
    ),
    ("serverless_bft", "region-outage"): (
        "916d0681b9726bce2b375d20a12caf87869c2298bf0ecfa74e67db599ad0f7fb",
        "a3435d85cbe5fa71382e3e6bbd33d92803f6ef4aee444b9915d620ece043235c",
    ),
    ("serverless_bft", "region-outage+skewed-ycsb"): (
        "9f2cb0c03591bf718023cb7fc135a04ebd86166b1e5e646a77ed407adbacc8a1",
        "070d4e3b0cae3295838c211da5ac9a41a9cd703c52b2675af93951caacfd681b",
    ),
    ("noshim", "region-outage"): (
        "de392eff78f95b162f49611b038743a7edea0b701a262f72f06a3d566b382364",
        "250f06f15ad3bc144f16d8afe15240bf5455e64dae9ad2a24a96984b9e234aeb",
    ),
}


#: Eight key partitions under forty clients, recorded before the generation
#: loop grew per-client-index tables: client indices 8..39 are the branch
#: the default base takes for 1 584 of its 1 600 clients.
GOLDEN_CLIENT_OVERFLOW = (
    "6b0da22c30b06c79e9082a7194e6916c41e4c533bf28e1d53152d4f57eb5731d",
    "c4129203ca5663efaa99cdde403199c3bea88787ad1fbac112ed1702cd303fe3",
)


def _spec(system: str, scenarios=(), **extra_overrides) -> RunSpec:
    return RunSpec(
        system=system,
        base="default",
        scenarios=list(scenarios),
        overrides={**OVERRIDES, **extra_overrides},
        duration=0.6,
        warmup=0.1,
        seed=11,
    )


@pytest.mark.parametrize("system", sorted(GOLDEN))
def test_system_digests_match_golden(system):
    spec = _spec(system)
    assert (spec_digest(spec), result_digest(run(spec))) == GOLDEN[system]


def test_byzantine_executors_with_fault_timeline_matches_golden():
    spec = _spec(
        "serverless_bft",
        scenarios=["byzantine-executors"],
        **{"protocol.fault_timeline": "crash:primary@0.2; recover:primary@0.4"},
    )
    assert (spec_digest(spec), result_digest(run(spec))) == GOLDEN_BYZANTINE_TIMELINE


@pytest.mark.parametrize(
    "system, scenarios",
    sorted(GOLDEN_NETWORK_SCENARIOS),
    ids=[f"{system}-{scenarios}" for system, scenarios in sorted(GOLDEN_NETWORK_SCENARIOS)],
)
def test_network_scenario_digests_match_golden(system, scenarios):
    spec = _spec(system, scenarios=scenarios.split("+"))
    expected = GOLDEN_NETWORK_SCENARIOS[system, scenarios]
    assert (spec_digest(spec), result_digest(run(spec))) == expected


def test_client_index_overflow_matches_golden():
    spec = _spec("serverless_bft", **{"workload.clients": 8})
    assert (spec_digest(spec), result_digest(run(spec))) == GOLDEN_CLIENT_OVERFLOW
