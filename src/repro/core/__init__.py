"""ServerlessBFT core: the paper's primary contribution.

This package wires the substrates together into the serverless-edge
architecture ``A = {C, R, E, S, V}`` and implements the full ServerlessBFT
transactional flow of Figure 3, the attack-recovery algorithms of Figure 4
(request suppression, nodes in dark, verifier flooding), and the
conflicting-transaction handling of Section VI (optimistic execution with
3f_E+1 executors and verifier-side aborts, decentralized spawning, and
best-effort conflict avoidance with a logical lock map).
"""

from repro.core.config import ProtocolConfig, SpawnPolicyName, ConflictMode
from repro.core.certificates import CommitCertificate
from repro.core.client import ClientGroup
from repro.core.conflict import ConflictPlanner
from repro.core.executor import Executor
from repro.core.messages import (
    AbortMsg,
    AckMsg,
    ClientRequestMsg,
    ErrorMsg,
    ExecuteMsg,
    ReplaceMsg,
    ResponseMsg,
    VerifyMsg,
)
from repro.core.runner import SimulationResult
from repro.core.shim_node import ShimNode
from repro.core.spawning import DecentralizedSpawnPolicy, PrimarySpawnPolicy, executors_per_node
from repro.core.verifier import Verifier

__all__ = [
    "AbortMsg",
    "AckMsg",
    "ClientGroup",
    "ClientRequestMsg",
    "CommitCertificate",
    "ConflictMode",
    "ConflictPlanner",
    "DecentralizedSpawnPolicy",
    "ErrorMsg",
    "ExecuteMsg",
    "Executor",
    "PrimarySpawnPolicy",
    "ProtocolConfig",
    "ReplaceMsg",
    "ResponseMsg",
    "ShimNode",
    "SimulationResult",
    "SpawnPolicyName",
    "Verifier",
    "VerifyMsg",
    "executors_per_node",
]
