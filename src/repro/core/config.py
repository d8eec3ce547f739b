"""Deployment configuration for the serverless-edge architecture."""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace
from typing import List, Optional

from repro.errors import ConfigurationError

# Deployment constants no experiment varies.  The spec keeps a field only
# while a preset, scenario, figure or test varies it; a value nothing varies
# lives here.

#: Cores of the verifier VM (Section IX's setup: an 8-core verifier VM).
VERIFIER_CORES = 8
#: Concurrent executions one cloud region admits, a provider quota (see
#: :mod:`repro.cloud.lambda_cloud`).
EXECUTOR_CONCURRENCY_LIMIT = 2500
#: Calibration: CPU seconds a shim node spends on one spawn API call to the
#: serverless cloud.
SPAWN_API_COST = 0.0008
#: Calibration: CPU seconds an executor spends per key-value operation it
#: reads from the remote storage layer.
EXECUTOR_READ_OPS_COST = 20e-6
#: Calibration: CPU seconds a non-primary shim node spends forwarding a
#: client request to the primary.
MESSAGE_HANDLING_COST = 4e-6
#: Calibration: CPU seconds the verifier spends on one VERIFY message beyond
#: checking its signature.
VERIFY_PROCESSING_COST = 30e-6
#: Calibration: CPU seconds a ``pbft_replicated`` replica spends per
#: key-value operation it executes against its own store.
REPLICA_OPERATION_COST = 5e-6
#: Seconds a shim node (or a ``pbft_replicated`` replica) waits for more
#: client transactions before it proposes a partial batch.
BATCH_FLUSH_TIMEOUT = 0.02
#: Seconds the serverless cloud takes to spawn an executor in a fresh
#: sandbox (a cold start).
COLD_START_LATENCY = 0.150
#: Seconds the serverless cloud takes to spawn an executor in a recently
#: used sandbox of that region (a warm start).
WARM_START_LATENCY = 0.015


class SpawnPolicyName(str, enum.Enum):
    """How executors are spawned after a batch commits."""

    #: Only the primary spawns executors (Figure 3, the common case).
    PRIMARY = "primary"
    #: Every shim node spawns ``e`` executors (Section VI-B, Eq. 1/2) to
    #: defeat byzantine-abort attacks on conflicting transactions.
    DECENTRALIZED = "decentralized"


class ConflictMode(str, enum.Enum):
    """How the shim handles potentially conflicting transactions."""

    #: Read-write sets unknown before execution: optimistic concurrent
    #: spawning, the primary spawns 3f_E+1 executors, and the verifier may
    #: abort transactions whose reads went stale (Section VI-B).
    OPTIMISTIC = "optimistic"
    #: Read-write sets known: the primary keeps a logical lock map and only
    #: dispatches non-conflicting batches concurrently (Section VI-C).
    CONFLICT_AVOIDANCE = "conflict_avoidance"


@dataclass
class ProtocolConfig:
    """All architecture-level knobs of a ServerlessBFT deployment.

    Workload-level knobs (read/write mix, conflict rate, execution length)
    live in :class:`repro.workload.ycsb.YCSBConfig`.
    """

    # --- shim -----------------------------------------------------------------
    shim_nodes: int = 4
    shim_cores: int = 16
    shim_region: str = "us-west-1"
    batch_size: int = 100
    checkpoint_interval: int = 64

    # --- serverless executors ---------------------------------------------------
    num_executors: int = 3
    executor_faults: Optional[int] = None
    num_executor_regions: int = 3

    # --- verifier ----------------------------------------------------------------
    verifier_region: str = "us-west-1"

    # --- clients -----------------------------------------------------------------
    num_clients: int = 1600
    client_groups: int = 16
    client_region: str = "us-west-1"

    # --- timers (seconds) ----------------------------------------------------------
    client_timeout: float = 4.0
    node_request_timeout: float = 2.0
    retransmission_timeout: float = 1.5
    verifier_quorum_timeout: float = 2.0

    # --- behaviour --------------------------------------------------------------
    spawn_policy: SpawnPolicyName = SpawnPolicyName.PRIMARY
    conflict_mode: ConflictMode = ConflictMode.OPTIMISTIC

    # --- fault timelines ----------------------------------------------------------
    #: Scheduled fault events driving node lifecycle mid-run, as a compact
    #: DSL string, e.g. ``"crash:primary@0.3;recover:primary@1.0"`` — see
    #: :mod:`repro.faults.timeline`.  Empty means fault-free (no engine is
    #: built, no events are scheduled, results stay bit-identical).
    fault_timeline: str = ""

    # --- cost model / misc --------------------------------------------------------
    #: Which signature implementation backs the simulation: "real" (HMAC, the
    #: default — byzantine tests depend on real verification failing for forged
    #: values) or "fast" (deterministic tokens; identical simulated-time
    #: results, much cheaper wall-clock).  See repro.crypto.signatures.
    crypto_backend: str = "real"
    #: CPU time the primary spends ingesting one client transaction
    #: (parsing, request bookkeeping, its share of signature checking).
    #: Crash-fault-tolerant and no-shim deployments use a smaller value
    #: because they skip the byzantine-grade checks.
    txn_ingest_cost: float = 40e-6
    seed: int = 1

    def __post_init__(self) -> None:
        self.validate()

    # ------------------------------------------------------------------ derived

    @property
    def shim_faults(self) -> int:
        """``f_R``: byzantine shim nodes tolerated (``n_R >= 3 f_R + 1``)."""
        return (self.shim_nodes - 1) // 3

    @property
    def shim_quorum(self) -> int:
        """``2 f_R + 1``: messages needed to prepare/commit at the shim."""
        return 2 * self.shim_faults + 1

    @property
    def derived_executor_faults(self) -> int:
        """``f_E``: byzantine executors tolerated by the spawned set."""
        if self.executor_faults is not None:
            return self.executor_faults
        if self.conflict_mode is ConflictMode.OPTIMISTIC and self.num_executors >= 4:
            # With unknown read-write sets the paper requires n_E >= 3 f_E + 1.
            return (self.num_executors - 1) // 3
        return (self.num_executors - 1) // 2

    @property
    def executor_match_quorum(self) -> int:
        """``f_E + 1``: matching VERIFY messages the verifier waits for."""
        return self.derived_executor_faults + 1

    @property
    def clients_per_group(self) -> int:
        return max(1, self.num_clients // max(1, self.client_groups))

    def regions_for_executors(self, catalog_names: List[str]) -> List[str]:
        """Regions executors are spread over, in the paper's region order."""
        count = min(self.num_executor_regions, len(catalog_names))
        return catalog_names[: max(1, count)]

    # ------------------------------------------------------------------ utilities

    def validate(self) -> None:
        if self.shim_nodes < 1:
            raise ConfigurationError("shim_nodes must be at least 1")
        if self.shim_nodes >= 4 and self.shim_nodes < 3 * self.shim_faults + 1:
            raise ConfigurationError("shim_nodes must satisfy n_R >= 3 f_R + 1")
        if self.num_executors < 1:
            raise ConfigurationError("num_executors must be at least 1")
        if self.executor_faults is not None and self.executor_faults > 0:
            minimum = 2 * self.executor_faults + 1
            if self.num_executors < minimum:
                raise ConfigurationError(
                    f"num_executors={self.num_executors} cannot tolerate "
                    f"f_E={self.executor_faults} byzantine executors "
                    f"(need >= 2f_E+1 = {minimum})"
                )
        if self.batch_size < 1:
            raise ConfigurationError("batch_size must be at least 1")
        if self.num_clients < 1:
            raise ConfigurationError("num_clients must be at least 1")
        if self.client_groups < 1:
            raise ConfigurationError("client_groups must be at least 1")
        if self.shim_cores < 1:
            raise ConfigurationError("shim_cores must be at least 1")
        if self.crypto_backend not in ("real", "fast"):
            raise ConfigurationError(
                f"crypto_backend must be 'real' or 'fast', got {self.crypto_backend!r}"
            )
        if self.fault_timeline:
            # Fail fast on a malformed timeline (lazy import: timeline.py
            # imports nothing from here, but keep config importable alone).
            from repro.faults.timeline import parse_timeline

            parse_timeline(self.fault_timeline)

    def with_overrides(self, **overrides) -> "ProtocolConfig":
        """Return a copy with some fields replaced (used by parameter sweeps)."""
        return replace(self, **overrides)
