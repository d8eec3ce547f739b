"""Baseline systems used in the paper's evaluation (Figures 7 and 8).

* **NOSHIM** and **SERVERLESSCFT** are config transforms of the serverless
  deployment (a one-node shim; a Paxos shim) and live with their adapters
  in :mod:`repro.api.registry`.
* **PBFT** — a classic replicated-execution PBFT deployment: every replica
  executes the transactions itself after ordering them; there are no
  serverless executors and no verifier.  Used both for the Figure 7
  comparison and, with a configurable number of execution threads, for the
  task-offloading study of Figure 8.
"""

from repro.baselines.pbft_replicated import ReplicatedNode, ReplicatedPBFTDeployment

__all__ = ["ReplicatedNode", "ReplicatedPBFTDeployment"]
