"""Consensus engines used by the shim.

The paper deploys PBFT at the shim (Section IV-B) and compares it with a
crash-fault-tolerant Paxos-style shim (the SERVERLESSCFT baseline of
Figure 7).  Both engines order opaque batches; the surrounding
serverless-edge machinery (executor spawning, verifier, recovery) lives in
:mod:`repro.core`.
"""
