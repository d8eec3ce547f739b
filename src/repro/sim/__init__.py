"""Discrete-event simulation substrate.

The paper evaluates ServerlessBFT on Oracle Cloud VMs plus real AWS Lambda
functions.  This package replaces that testbed with a deterministic
discrete-event simulator: virtual time, an event queue, per-node CPU
resources (so multi-core pipelining matters), and a wide-area network model
with per-region latencies, bandwidth, and fault injection.
"""
