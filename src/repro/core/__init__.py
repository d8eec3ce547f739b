"""ServerlessBFT core: the paper's primary contribution.

This package wires the substrates together into the serverless-edge
architecture ``A = {C, R, E, S, V}`` and implements the full ServerlessBFT
transactional flow of Figure 3, the attack-recovery algorithms of Figure 4
(request suppression, nodes in dark, verifier flooding), and the
conflicting-transaction handling of Section VI (optimistic execution with
3f_E+1 executors and verifier-side aborts, decentralized spawning, and
best-effort conflict avoidance with a logical lock map).
"""
