"""Cryptography substrate.

The paper uses CryptoPP digital signatures, MACs (via Diffie–Hellman shared
keys), and SHA-based digests.  We reproduce the *interfaces and guarantees*
those primitives provide inside the simulation:

* digital signatures give non-repudiation — anyone holding the signer's
  public key can verify, and a byzantine component cannot forge a signature
  of an honest component (enforced by keeping private keys secret inside
  :class:`KeyStore`);
* MACs are cheaper but only pairwise-verifiable;
* digests are collision-resistant (SHA-256).

The :class:`CryptoCostModel` charges realistic CPU time for each operation so
the MAC-vs-DS and certificate-size trade-offs discussed in the paper survive
in the performance results; every deployment charges
:data:`repro.crypto.costs.CRYPTO_COSTS`.
"""

from repro.crypto.hashing import cached_digest, digest, seed_cached_digest
from repro.crypto.keys import KeyPair, KeyStore
from repro.crypto.signatures import (
    CryptoBackend,
    FastCryptoBackend,
    MacAuthenticator,
    RealCryptoBackend,
    Signature,
    SignatureService,
    SignedMessage,
    resolve_backend,
)
from repro.crypto.costs import CryptoCostModel

__all__ = [
    "CryptoBackend",
    "CryptoCostModel",
    "FastCryptoBackend",
    "KeyPair",
    "KeyStore",
    "MacAuthenticator",
    "RealCryptoBackend",
    "Signature",
    "SignatureService",
    "SignedMessage",
    "cached_digest",
    "digest",
    "resolve_backend",
    "seed_cached_digest",
]
