"""Key management.

Each component (client, shim node, executor, verifier) owns a key pair.  The
public key is world-readable; the private key never leaves the
:class:`KeyStore`, which is how the simulation enforces the paper's
assumption that "byzantine components can neither impersonate honest
components, nor subvert cryptographic constructs".
"""

from __future__ import annotations

import hashlib
import hmac
from dataclasses import dataclass
from typing import Callable, Dict

from repro.errors import CryptoError


@dataclass(frozen=True)
class KeyPair:
    """A simulated asymmetric key pair.

    The private key is a random-looking secret derived from the identity and
    a deployment seed; the public key is a one-way commitment to it.  This is
    obviously not a real cryptosystem — it only has to be unforgeable *within
    the simulation*, where the only way to produce a signature is via
    :class:`repro.crypto.signatures.SignatureService`, which requires the
    private key held by the key store.
    """

    owner: str
    public_key: str
    private_key: str


def _private_key(owner: str, deployment_secret: str) -> str:
    return hmac.digest(
        deployment_secret.encode("utf-8"), f"priv:{owner}".encode("utf-8"), "sha256"
    ).hex()


def generate_keypair(owner: str, deployment_secret: str) -> KeyPair:
    """Deterministically generate the key pair of ``owner``.

    Uses the one-shot C ``hmac.digest`` (same bytes as ``hmac.new(...)``).
    """
    private = _private_key(owner, deployment_secret)
    public = hashlib.sha256(f"pub:{private}".encode("utf-8")).hexdigest()
    return KeyPair(owner=owner, public_key=public, private_key=private)


def _nobody(owner: str) -> bool:
    return False


class KeyStore:
    """Registry of key pairs and pairwise MAC secrets for one deployment.

    Long-lived components (shim nodes, the verifier, client groups) have
    their key pairs stored.  Executors are spawned 3f_E+1 per batch, so
    storing theirs would grow with the run: once :meth:`derive_issued` is
    given the cloud's issued-id test, an executor's key is derived from its
    id whenever it is asked for — it is a pure function of the id and the
    deployment secret — and nothing is kept per executor.
    """

    def __init__(self, deployment_secret: str = "serverless-bft") -> None:
        self._deployment_secret = deployment_secret
        self._keypairs: Dict[str, KeyPair] = {}
        self._issued: Callable[[str], bool] = _nobody

    def derive_issued(self, issued: Callable[[str], bool]) -> None:
        """Derive, never store, the key of every owner ``issued`` accepts."""
        self._issued = issued

    def create_identity(self, owner: str) -> KeyPair:
        """Create (or return the existing) key pair for ``owner``."""
        pair = self._keypairs.get(owner)
        if pair is None:
            pair = generate_keypair(owner, self._deployment_secret)
            if not self._issued(owner):
                self._keypairs[owner] = pair
        return pair

    def has_identity(self, owner: str) -> bool:
        return owner in self._keypairs or self._issued(owner)

    def public_key(self, owner: str) -> str:
        if not self.has_identity(owner):
            raise CryptoError(f"no public key registered for {owner!r}")
        return self.create_identity(owner).public_key

    def private_key(self, owner: str) -> str:
        """Return the private key of ``owner``.

        Only the owner's own :class:`SignatureService` and signature checks
        call this; the simulation's byzantine behaviours never do, which
        models the unforgeability assumption.
        """
        pair = self._keypairs.get(owner)
        if pair is not None:
            return pair.private_key
        if self._issued(owner):
            # One HMAC; the public key's SHA-256 is not needed here.
            return _private_key(owner, self._deployment_secret)
        raise CryptoError(f"no private key registered for {owner!r}")
