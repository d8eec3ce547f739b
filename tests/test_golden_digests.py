"""Golden digests: refactors must not move a content address or a result.

``(spec_digest, result_digest)`` literals for the four systems on the small
drill config, plus one composed byzantine + fault-timeline run, recorded at
the commit before the ``Deployment`` base class was extracted (PR 13), the
network-fault scenarios (``GOLDEN_NETWORK_SCENARIOS``) and a standalone
generator drawing for more clients than it has key partitions
(``GOLDEN_CLIENT_OVERFLOW``).  They are stable
across ``PYTHONHASHSEED``, kernel variant and obs on/off; a digest that
varies with any of those is a determinism bug to report, not a literal to
re-pin.  Re-pin only for a change that *means* to alter simulated behaviour,
and say so in CHANGES.md.  A spec half alone moves when the settable spec
changes shape; the result half must not move with it.
"""

import hashlib

import pytest

from repro.api import RunSpec, result_digest, run, spec_digest
from repro.workload.ycsb import YCSBConfig, YCSBWorkload
from tests.helpers import DRILL_OVERRIDES

OVERRIDES = {**DRILL_OVERRIDES, "protocol.crypto_backend": "fast"}

GOLDEN = {
    "serverless_bft": (
        "46372f102c2d9c84dcd186e224833cdecebdc93ba125293cd3de0909524980dc",
        "bb783174e14413897d69566ccb4a677626a3031d3a0c99b4bcbaeb3f88ad294f",
    ),
    "serverless_cft": (
        "12df7182f2da844ab3ab80a2f256df8b5f190abc3f0539a8906d2c684ea841fd",
        "b9fe180d45b574c2abc26190a3ef46983b68c30f260d293630cd831352452c3f",
    ),
    "pbft_replicated": (
        "ef69d895bab1f0d737a6dc6e1bc70794e507bc90b383bb538bf9de47f0e61882",
        "7ce96b330bdd576f95a89620c9431c9f1207ee4b9d6b98f4ab152e67ca4c787e",
    ),
    "noshim": (
        "11a2b66b97604613da87702e1641de8be107181e391d55eb5ead3286e418ab1e",
        "118ad8add16a84725a8a55ec67b5e732163facd68041518577c03fe7d42b48bd",
    ),
}

GOLDEN_BYZANTINE_TIMELINE = (
    "54e3c27522da91efb2813c01cebabea2b0ebf9b2d0ba94d6ca47572a188a1e55",
    "df17cd1d706792da0769d205a93647c7847d803ed7837fc4650b976ae8b74a54",
)

#: The network-fault scenarios, recorded while the region outage was still a
#: ``NetworkFaultPlan`` subclass bound to the live network after construction.
GOLDEN_NETWORK_SCENARIOS = {
    ("serverless_bft", "lossy-network"): (
        "5800756b09f5ed058fafd67fe8301715738b13e7db21b4d7be63c9ddc65e67a8",
        "02ce0d430ebf727450dc589822935fac60a1081fde90596e94a69ae4d3ef2852",
    ),
    ("serverless_bft", "network-partition"): (
        "c2f4d53c8a5adce19f72548c5308354b223bca4a02bc937508b0044ab84fed93",
        "881e8dec4353d95aef8e99f310e6f7cbb2d63ff1c8f69552155a2a6ea80ecf71",
    ),
    ("serverless_bft", "region-outage"): (
        "cdf5f2846a8908ed734c91b82398ea5e02e976f672d55611f7201d7deca76eb0",
        "a3435d85cbe5fa71382e3e6bbd33d92803f6ef4aee444b9915d620ece043235c",
    ),
    ("serverless_bft", "region-outage+skewed-ycsb"): (
        "1d519dd1b422aac45bf7b8413752627ee2185b6667741568fa0f1a5d28595078",
        "070d4e3b0cae3295838c211da5ac9a41a9cd703c52b2675af93951caacfd681b",
    ),
    ("noshim", "region-outage"): (
        "bdfc66306861fccb9cca1116e4d53f0773ab9477892ed9c8a357d7f8b6373738",
        "250f06f15ad3bc144f16d8afe15240bf5455e64dae9ad2a24a96984b9e234aeb",
    ),
}


#: sha256 over the canonicals of 44 transactions a standalone generator with
#: eight key partitions draws for client indices up to 40.  Indices 8 and up
#: take the beyond-table branch: the Python loop grows its per-client tables,
#: the compiled loop builds the id and partition start inline.  A deployment
#: no longer reaches that branch (its partitions follow ``num_clients``), so
#: the golden is the generator's own, recorded before that change.
GOLDEN_CLIENT_OVERFLOW = "2e4fefcb41607e1921cbacc70b30a3b22b707ad595629413318d72c20baa33e9"


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
    workload = YCSBWorkload(YCSBConfig(num_records=2_000, clients=8, seed=11))
    txns = workload.next_transactions(40, origin="o", request_id="r")
    txns += tuple(workload.next_transaction(index) for index in (7, 8, 39, 40))
    canonicals = "\n".join(txn.canonical() for txn in txns)
    assert hashlib.sha256(canonicals.encode()).hexdigest() == GOLDEN_CLIENT_OVERFLOW
