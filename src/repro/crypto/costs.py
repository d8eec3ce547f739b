"""CPU cost model for cryptographic operations.

The shim nodes in the paper run on 16-core Oracle Cloud VMs and use CryptoPP.
The absolute costs below are calibrated to commonly published numbers for
ED25519/HMAC on server-class cores; what matters for reproducing the paper's
*shapes* is the ratio between them (digital signatures roughly an order of
magnitude more expensive than MACs, verification slightly more expensive
than signing) and the per-message/batch processing overhead they induce.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class CryptoCostModel:
    """CPU seconds charged for each cryptographic operation."""

    ds_sign: float = 45e-6
    ds_verify: float = 110e-6
    mac_sign: float = 3e-6
    mac_verify: float = 3e-6
    hash_per_kb: float = 1.5e-6

    def hash_cost(self, size_bytes: int) -> float:
        """Cost of hashing a message of ``size_bytes``."""
        return self.hash_per_kb * max(1.0, size_bytes / 1024.0)


#: The cost model every component charges by default.  Components take a
#: ``costs=`` argument so a test can inject another model.
CRYPTO_COSTS = CryptoCostModel()
