"""On-premise storage substrate.

Per the paper, all client data stays in an on-premise data store ``S`` owned
by the enterprise; executors may read from it but never write, and the
trusted verifier ``V`` is the only component that applies updates.  The
store is a versioned key-value database so the verifier can run the
concurrency-control check ("are the read-write sets the executor saw still
current?") exactly as described in Section IV-D.
"""
