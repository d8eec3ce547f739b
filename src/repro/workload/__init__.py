"""Workload substrate.

The paper evaluates with YCSB key-value transactions (Blockbench flavour)
over a 600 k-record table, with configurable read/write mix, batching, a
controllable fraction of conflicting transactions, and an optional
"expensive execution" phase emulating compute-intensive edge tasks
(ML inference on UAV data, video analytics, …).
"""
