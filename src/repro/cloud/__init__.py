"""Serverless cloud substrate.

The paper spawns AWS Lambda executors in up to 11 regions and deploys the
shim/verifier/clients on Oracle Cloud VMs.  This package simulates that
environment: a geographic latency model over the same 11 regions, a
Lambda-like function service with cold/warm starts and concurrency limits,
and a billing model using the published AWS Lambda and OCI prices
(Figure 8's cents-per-kilo-transaction metric).
"""
