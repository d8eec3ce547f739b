"""Golden digests: refactors must not move a content address or a result.

``(spec_digest, result_digest)`` literals for the four systems on the small
drill config, plus one composed byzantine + fault-timeline run, recorded at
the commit before the ``Deployment`` base class was extracted (PR 13), the
network-fault scenarios (``GOLDEN_NETWORK_SCENARIOS``) and a point with more
clients than key partitions (``GOLDEN_CLIENT_OVERFLOW``).  They are stable
across ``PYTHONHASHSEED``, kernel variant and obs on/off; a digest that
varies with any of those is a determinism bug to report, not a literal to
re-pin.  Re-pin only for a change that *means* to alter simulated behaviour,
and say so in CHANGES.md.  A spec half alone moves when the settable spec
changes shape; the result half must not move with it.
"""

import pytest

from repro.api import RunSpec, result_digest, run, spec_digest
from tests.helpers import DRILL_OVERRIDES

OVERRIDES = {**DRILL_OVERRIDES, "protocol.crypto_backend": "fast"}

GOLDEN = {
    "serverless_bft": (
        "96ca87e1b34d05988f69e1ea606f30b212254c26405f97742669c939a882444b",
        "bb783174e14413897d69566ccb4a677626a3031d3a0c99b4bcbaeb3f88ad294f",
    ),
    "serverless_cft": (
        "253a40ce3748fb51bd5a1a17bcf8009188ea6950c338d77e636c9ccbb888f92f",
        "b9fe180d45b574c2abc26190a3ef46983b68c30f260d293630cd831352452c3f",
    ),
    "pbft_replicated": (
        "4c56210f5f18ea0623d30d55c577fa2e54add0ea73b0c5509fbfb6213beccfd2",
        "7ce96b330bdd576f95a89620c9431c9f1207ee4b9d6b98f4ab152e67ca4c787e",
    ),
    "noshim": (
        "223ad8287f2154764c7d412a33e40209ff0472a6ed704873834b7e4a6dce278d",
        "118ad8add16a84725a8a55ec67b5e732163facd68041518577c03fe7d42b48bd",
    ),
}

GOLDEN_BYZANTINE_TIMELINE = (
    "a0c7c8cbaf1a49e1aeb308f63a5f54a31fcb1510bfb55f5346d44a5ee76156ab",
    "df17cd1d706792da0769d205a93647c7847d803ed7837fc4650b976ae8b74a54",
)

#: The network-fault scenarios, recorded while the region outage was still a
#: ``NetworkFaultPlan`` subclass bound to the live network after construction.
GOLDEN_NETWORK_SCENARIOS = {
    ("serverless_bft", "lossy-network"): (
        "c54094193fe3800cf5a16e42be64a07382ef0b2cb26742f7c2bd37ba23c09920",
        "02ce0d430ebf727450dc589822935fac60a1081fde90596e94a69ae4d3ef2852",
    ),
    ("serverless_bft", "network-partition"): (
        "eb1f3ba97f2c500a725f7083fafdc650116d9cd9af09c5600317a9af77d8a78d",
        "881e8dec4353d95aef8e99f310e6f7cbb2d63ff1c8f69552155a2a6ea80ecf71",
    ),
    ("serverless_bft", "region-outage"): (
        "676f71667f1a8d9975e510bbd3a013c25389cde7cd37b1f48dc95dd5e0826659",
        "a3435d85cbe5fa71382e3e6bbd33d92803f6ef4aee444b9915d620ece043235c",
    ),
    ("serverless_bft", "region-outage+skewed-ycsb"): (
        "a908b1707f44359fa2cacf680da90890490f359d3e50909b265291e571062a50",
        "070d4e3b0cae3295838c211da5ac9a41a9cd703c52b2675af93951caacfd681b",
    ),
    ("noshim", "region-outage"): (
        "20f490bcff0042e91ae470b71bad7af41c81de3a0c588d73ad9e6548ed6c8e9d",
        "250f06f15ad3bc144f16d8afe15240bf5455e64dae9ad2a24a96984b9e234aeb",
    ),
}


#: Eight key partitions under forty clients, recorded before the generation
#: loop grew per-client-index tables: client indices 8..39 are the branch
#: the default base takes for 1 584 of its 1 600 clients.
GOLDEN_CLIENT_OVERFLOW = (
    "bc6a3f19d284ecaf6ed9c86f743116dfc458ff702fc71c175f53971b053cc783",
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
