"""Collision-resistant digests.

The protocol sends the digest ``Δ = H(m)`` of a client request in PREPREPARE
messages and refers to the request by digest in later phases to save space.

Digests dominate the simulator's CPU profile (every PBFT phase, signature,
and certificate check hashes a payload), so this module also provides a
per-object digest memo: :func:`cached_digest` computes the digest of a
message once and stores it on the instance, and every later caller — the
other replicas a broadcast delivered the *same* object to, the signature
service, the verifier — reuses it instead of re-serialising the payload.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.perf import PERF

#: Attribute used to memoise an object's digest.  Frozen dataclasses still
#: carry a ``__dict__``, so ``object.__setattr__`` works on them; objects
#: without one (strings, tuples) simply fall back to recomputing.
_DIGEST_ATTR = "_repro_cached_digest"


def _canonicalise(value: Any) -> Any:
    """Recursively rewrite ``value`` into a deterministically ordered form.

    Used as the fallback when ``json.dumps(..., sort_keys=True)`` cannot
    serialise the value directly — most importantly for dictionaries with
    mixed-type keys, where Python's sort raises ``TypeError`` and a naive
    ``repr`` fallback would leak insertion order into the hash.  Keys are
    ordered by their own canonical byte form, so two logically equal dicts
    always hash identically regardless of construction order.
    """
    if isinstance(value, dict):
        items = [
            (
                f"{type(key).__name__}:{canonical_bytes(key).decode('utf-8', 'surrogateescape')}",
                _canonicalise(val),
            )
            for key, val in value.items()
        ]
        items.sort(key=lambda item: item[0])
        return [[key, val] for key, val in items]
    if isinstance(value, (list, tuple)):
        return [_canonicalise(item) for item in value]
    if isinstance(value, (set, frozenset)):
        members = [(canonical_bytes(item), _canonicalise(item)) for item in value]
        members.sort(key=lambda member: member[0])
        return [member for _key, member in members]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


def canonical_bytes(value: Any) -> bytes:
    """Serialise a value deterministically for hashing and signing.

    Dictionaries are serialised with sorted keys, dataclass-like objects may
    pre-serialise themselves via a ``canonical()`` method, and anything else
    is canonicalised explicitly (deterministic key ordering even for
    mixed-type dict keys) before being serialised.
    """
    if isinstance(value, bytes):
        return value
    if isinstance(value, str):
        return value.encode("utf-8")
    canonical = getattr(value, "canonical", None)
    if callable(canonical):
        return canonical_bytes(canonical())
    try:
        return json.dumps(value, sort_keys=True, default=repr).encode("utf-8")
    except (TypeError, ValueError):
        return json.dumps(_canonicalise(value), sort_keys=True, default=repr).encode("utf-8")


def digest(value: Any) -> str:
    """Return the hex SHA-256 digest of ``value`` (the paper's ``H(·)``)."""
    PERF.digests_computed += 1
    return hashlib.sha256(canonical_bytes(value)).hexdigest()


def cached_digest(value: Any) -> str:
    """Return ``digest(value)``, memoised on the object when possible.

    Safe only for immutable payloads (the frozen message dataclasses): the
    digest is computed at most once per instance and reused by every later
    sign/verify/certificate check.  A message's ``canonical()`` form never
    covers its own ``signature`` field, so the memo seeded on an
    unsigned payload stays valid for the signed copy (see
    :func:`seed_cached_digest`).
    """
    memo = getattr(value, _DIGEST_ATTR, None)
    if memo is not None:
        PERF.digest_cache_hits += 1
        return memo
    computed = digest(value)
    try:
        object.__setattr__(value, _DIGEST_ATTR, computed)
    except (AttributeError, TypeError):
        pass  # str / tuple / slotted payloads cannot carry the memo
    return computed


def seed_cached_digest(value: Any, known_digest: str) -> None:
    """Pre-populate the digest memo of ``value`` with an already-known digest.

    Used after attaching a signature to an unsigned payload: the signed copy
    is a new object, but its canonical form (and therefore digest) is the
    same, so recomputation would be pure waste.
    """
    try:
        object.__setattr__(value, _DIGEST_ATTR, known_digest)
    except (AttributeError, TypeError):
        pass
