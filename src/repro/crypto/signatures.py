"""Digital signatures and MACs.

``⟨m⟩_R`` in the paper denotes message ``m`` signed with the digital
signature of component ``R``; a message without an explicit signer uses a
MAC.  Digital signatures provide non-repudiation (third parties can verify
them), MACs are only verifiable by the two parties sharing the secret but
are roughly an order of magnitude cheaper — the cost model preserves that
ratio.

Two crypto backends are available:

* :class:`RealCryptoBackend` (default) — HMAC-SHA256 over the payload
  digest.  Byzantine tests rely on it: a forged signature fails real
  verification.
* :class:`FastCryptoBackend` — a deterministic token derived from the same
  private key and digest by cheap string slicing.  Producing a valid token
  still requires the private key (held only by the key store), so it stays
  unforgeable *within the simulation*, and the calibrated CPU cost model is
  charged identically — only the host's wall-clock cost changes.  Selected
  with ``ProtocolConfig(crypto_backend="fast")``.

Both backends sign/verify the payload's *digest*, which
:func:`repro.crypto.hashing.cached_digest` memoises per message object, so a
broadcast message is serialised and hashed once no matter how many replicas
verify it.
"""

from __future__ import annotations

import hmac
from dataclasses import dataclass
from typing import Any, Optional

from repro.crypto.hashing import cached_digest, canonical_bytes
from repro.crypto.keys import KeyStore
from repro.errors import CryptoError


class CryptoBackend:
    """Strategy turning (private key, message digest) into a signature value."""

    name = "abstract"

    def signature_value(self, private_key: str, message_digest: str) -> str:  # pragma: no cover
        raise NotImplementedError

    def matches(self, private_key: str, message_digest: str, value: str) -> bool:
        expected = self.signature_value(private_key, message_digest)
        return hmac.compare_digest(expected, value)


class RealCryptoBackend(CryptoBackend):
    """HMAC-SHA256 signatures (the default; required by byzantine tests)."""

    name = "real"

    def signature_value(self, private_key: str, message_digest: str) -> str:
        # One-shot C implementation (hmac.digest) — same MAC bytes as
        # hmac.new(...).hexdigest(), several Python frames cheaper, and this
        # runs once per sign/verify on the hot path.
        return hmac.digest(
            private_key.encode("utf-8"), message_digest.encode("utf-8"), "sha256"
        ).hex()


class FastCryptoBackend(CryptoBackend):
    """Deterministic token scheme replacing real HMAC on the hot path.

    The token concatenates slices of the private key and the digest: not a
    cryptographic construct, but forging it requires the private key string,
    which only the key store hands out — the same unforgeability model the
    simulated key pairs already rely on.  Simulated CPU costs are unchanged
    (the cost model is charged per operation regardless of backend), so
    simulated-time results are bit-identical to the real backend.
    """

    name = "fast"

    def signature_value(self, private_key: str, message_digest: str) -> str:
        return f"fast:{private_key[:16]}:{message_digest[:24]}"

    def matches(self, private_key: str, message_digest: str, value: str) -> bool:
        # Tokens are not secret-derived hashes, so plain comparison suffices.
        return value == self.signature_value(private_key, message_digest)


_BACKENDS = {"real": RealCryptoBackend(), "fast": FastCryptoBackend()}


def resolve_backend(backend: Optional[object]) -> CryptoBackend:
    """Accept a backend instance, a name ("real"/"fast"), or None (real)."""
    if backend is None:
        return _BACKENDS["real"]
    if isinstance(backend, CryptoBackend):
        return backend
    try:
        return _BACKENDS[str(backend)]
    except KeyError:
        raise CryptoError(f"unknown crypto backend {backend!r}")


@dataclass(frozen=True, slots=True)
class Signature:
    """A digital signature over a message digest.

    Slotted: every signed message and certificate carries one, and without
    a per-instance ``__dict__`` each is one collector-tracked object instead
    of two.
    """

    signer: str
    message_digest: str
    value: str

    def canonical(self) -> str:
        return f"sig:{self.signer}:{self.message_digest}:{self.value}"


@dataclass(frozen=True)
class SignedMessage:
    """A payload together with the digital signature of its signer."""

    payload: Any
    signature: Signature

    @property
    def signer(self) -> str:
        return self.signature.signer


class SignatureService:
    """Per-component signing facade bound to one identity.

    Each simulated component gets its own service instance so that the only
    way to sign as ``R`` is to hold the service created for ``R``.
    """

    def __init__(self, keystore: KeyStore, owner: str, backend: Optional[object] = None) -> None:
        self._keystore = keystore
        self._owner = owner
        self._backend = resolve_backend(backend)
        try:
            self._private_key = keystore.private_key(owner)
        except CryptoError:  # a component not yet registered
            self._private_key = keystore.create_identity(owner).private_key

    @property
    def owner(self) -> str:
        return self._owner

    @property
    def backend(self) -> CryptoBackend:
        return self._backend

    def sign(self, payload: Any) -> Signature:
        """Produce a digital signature of ``payload``."""
        return self.sign_digest(cached_digest(payload))

    def sign_digest(self, message_digest: str) -> Signature:
        """Sign an already-computed payload digest (the hot-path entry point)."""
        value = self._backend.signature_value(self._private_key, message_digest)
        return Signature(signer=self._owner, message_digest=message_digest, value=value)

    def sign_message(self, payload: Any) -> SignedMessage:
        """Return ``⟨payload⟩_owner``."""
        return SignedMessage(payload=payload, signature=self.sign(payload))

    def verify(self, payload: Any, signature: Signature) -> bool:
        """Verify a signature produced by *any* identity in the key store.

        When ``payload`` is a frozen message object, its digest is memoised
        (:func:`cached_digest`), so re-verification of a broadcast message —
        or of a message whose digest was already computed at signing time —
        skips the serialise-and-hash entirely.
        """
        if cached_digest(payload) != signature.message_digest:
            return False
        return self.verify_digest(signature.message_digest, signature)

    def verify_digest(self, message_digest: str, signature: Signature) -> bool:
        """Verify a signature against an already-computed payload digest."""
        if message_digest != signature.message_digest:
            return False
        try:
            private_key = self._keystore.private_key(signature.signer)
        except CryptoError:
            return False  # nobody in this deployment has that identity
        return self._backend.matches(private_key, signature.message_digest, signature.value)

    def verify_message(self, message: SignedMessage) -> bool:
        return self.verify(message.payload, message.signature)

    def require_valid(self, message: SignedMessage) -> None:
        """Raise :class:`CryptoError` unless ``message`` carries a valid signature."""
        if not self.verify_message(message):
            raise CryptoError(
                f"invalid signature from {message.signature.signer!r} "
                f"on digest {message.signature.message_digest[:12]}…"
            )


class MacAuthenticator:
    """Pairwise message authentication codes."""

    def __init__(self, keystore: KeyStore, owner: str, backend: Optional[object] = None) -> None:
        self._keystore = keystore
        self._owner = owner
        self._backend = resolve_backend(backend)

    @property
    def owner(self) -> str:
        return self._owner

    def tag(self, payload: Any, peer: str) -> str:
        """MAC ``payload`` for the channel between this owner and ``peer``."""
        secret = self._keystore.mac_secret(self._owner, peer)
        if isinstance(self._backend, FastCryptoBackend):
            return self._backend.signature_value(secret, cached_digest(payload))
        return hmac.digest(secret.encode("utf-8"), canonical_bytes(payload), "sha256").hex()

    def verify(self, payload: Any, peer: str, tag: Optional[str]) -> bool:
        """Check a MAC received from ``peer``."""
        if not tag:
            return False
        expected = self.tag(payload, peer)
        return hmac.compare_digest(expected, tag)
