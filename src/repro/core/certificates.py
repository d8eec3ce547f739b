"""Commit certificates.

The EXECUTE message sent to executors includes a certificate ``C``: the set
of digital signatures of ``2f_R + 1`` distinct shim nodes over the COMMIT
message, proving that the shim agreed to order the request at its sequence
number.  Executors refuse EXECUTE messages without a valid certificate — this
is what stops a byzantine node from spawning executors for requests the shim
never ordered.

Section IV-C remarks that the certificate can be compressed into one
threshold signature.  That is not modelled: each share signs its own
replica's COMMIT payload, so the shares cover different messages and do not
combine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from repro.consensus.messages import CommitMsg
from repro.crypto.signatures import Signature, SignatureService
from repro.perf import PERF


@dataclass(frozen=True)
class CommitCertificate:
    """Proof that the shim committed digest ``digest`` at sequence ``seq``."""

    view: int
    seq: int
    digest: str
    signatures: Tuple[Signature, ...] = ()

    def canonical(self) -> str:
        signers = ",".join(sorted(sig.signer for sig in self.signatures))
        return f"certificate:{self.view}:{self.seq}:{self.digest}:{signers}"

    @property
    def signer_count(self) -> int:
        return len({sig.signer for sig in self.signatures})

    @property
    def size_bytes(self) -> int:
        """Wire size: 96 B per signature."""
        return 96 * len(self.signatures)

    def verify(self, verifier: SignatureService, required: int) -> bool:
        """Check the certificate proves ``required`` distinct shim nodes committed.

        Each signature covers that node's own COMMIT message for
        ``(view, seq, digest)``, which is re-derived here.  The set of valid
        signers is memoised on the certificate instance: every executor
        spawned for the same commit receives the *same* certificate object,
        and signature validity depends only on the deployment's shared key
        store, so re-checking per executor would be pure waste.
        """
        valid_signers = self.__dict__.get("_valid_signers")
        if valid_signers is None:
            valid_signers = set()
            for signature in self.signatures:
                unsigned = CommitMsg(
                    view=self.view, seq=self.seq, digest=self.digest, replica=signature.signer
                )
                if verifier.verify(unsigned, signature):
                    valid_signers.add(signature.signer)
            object.__setattr__(self, "_valid_signers", frozenset(valid_signers))
        else:
            PERF.certificate_cache_hits += 1
        return len(valid_signers) >= required

    def verification_cost(self, cost_model, required: int) -> float:
        """CPU cost of verifying this certificate."""
        return cost_model.ds_verify * min(len(self.signatures), max(required, 0))

