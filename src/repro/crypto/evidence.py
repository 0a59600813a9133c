"""Transferable misbehaviour evidence (accountability).

The paper's implementation notes the need to "identify and penalize the
faulty party" when aggregated signatures fail.  In the signed (two-round)
dissemination mode, equivocation is *provable*: two VAL signatures by the
same origin over different vertex digests for the same round form a fraud
proof any third party can verify against the PKI alone.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CryptoError
from ..types import NodeId, Round
from .signatures import Pki, Signature


@dataclass(frozen=True)
class EquivocationEvidence:
    """Proof that ``origin`` signed two conflicting proposals in one round.

    ``statement_of(digest)`` must reproduce the signed statement from the
    conflicting payload digests (protocol-specific domain separation), so the
    evidence pins down *which* protocol message was equivocated.
    """

    origin: NodeId
    round: Round
    digest_a: bytes
    digest_b: bytes
    signature_a: Signature
    signature_b: Signature

    def verify(self, pki: Pki, statement_of) -> bool:
        """Check the proof: both signatures valid, same signer, different
        digests, statements matching the claimed (origin, round, digest)."""
        if self.digest_a == self.digest_b:
            return False
        for digest_, signature in (
            (self.digest_a, self.signature_a),
            (self.digest_b, self.signature_b),
        ):
            if signature.signer != self.origin:
                return False
            if signature.message_digest != statement_of(self.origin, self.round, digest_):
                return False
            if not pki.verify(signature):
                return False
        return True


class EvidencePool:
    """Per-node list of equivocation proofs, at most one per instance.

    The pool keeps proofs only.  The first signed VAL of an instance is the
    RBC instance's own record (``VertexInstance.val_signature``); the RBC
    hands the pool that pair and a conflicting one when they meet.
    """

    def __init__(self) -> None:
        self.proofs: list[EquivocationEvidence] = []
        #: ``(origin, round)`` of every proof: one conviction per instance.
        self._convicted: set[tuple[NodeId, Round]] = set()

    def record(
        self,
        origin: NodeId,
        round_: Round,
        first: tuple[bytes, Signature],
        second: tuple[bytes, Signature],
    ) -> EquivocationEvidence | None:
        """Two signed ``(digest, signature)`` proposals by ``origin`` for one
        round; returns the proof when they conflict and it is the first."""
        if first[1].signer != origin or second[1].signer != origin:
            raise CryptoError("signature does not belong to the claimed origin")
        key = (origin, round_)
        if first[0] == second[0] or key in self._convicted:
            return None
        self._convicted.add(key)
        (d_a, s_a), (d_b, s_b) = sorted((first, second))
        proof = EquivocationEvidence(origin, round_, d_a, d_b, s_a, s_b)
        self.proofs.append(proof)
        return proof

    def convicted(self) -> set[NodeId]:
        """Parties with at least one equivocation proof against them."""
        return {proof.origin for proof in self.proofs}
