"""BLS-style multi-signature simulation.

The paper aggregates ECHO signatures into a BLS multi-signature whose wire
size is one group element plus an ``n``-bit signer bitmap (§4).  We simulate
aggregation by hashing the individual tags in signer order; verification
recomputes the expected aggregate from the PKI.  The paper's optimization of
verifying only the aggregate (and falling back to per-signer verification to
identify a faulty signer) is mirrored by :func:`find_invalid_signers`.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from ..errors import CryptoError
from ..net import sizes
from ..types import NodeId, parties_of
from .signatures import Pki, Signature


@dataclass(frozen=True, slots=True)
class MultiSignature:
    """Aggregate signature over one ``message_digest`` by ``signers``.

    ``signers`` is the n-bit signer bitmap the wire format carries (bit p is
    party p), so a certificate costs one int, not a set, per holder.
    """

    message_digest: bytes
    signers: int
    tag: bytes

    def wire_size(self, n: int) -> int:
        """Bytes on the wire: one BLS element + an n-party bitmap."""
        return sizes.multisig_size(n)


def _aggregate_tag(tags_by_signer: list[tuple[NodeId, bytes]]) -> bytes:
    h = hashlib.sha256()
    for signer, tag in sorted(tags_by_signer):
        h.update(signer.to_bytes(4, "big"))
        h.update(tag)
    return h.digest()[:16]


def aggregate(signatures: list[Signature]) -> MultiSignature:
    """Aggregate individual signatures *without verifying them first*.

    Matches the paper's fast path: aggregation is cheap; the (single)
    aggregate verification catches any bad constituent.
    """
    if not signatures:
        raise CryptoError("cannot aggregate an empty signature set")
    message_digest = signatures[0].message_digest
    signers = 0
    pairs: list[tuple[NodeId, bytes]] = []
    for sig in signatures:
        if sig.message_digest != message_digest:
            raise CryptoError("aggregating signatures over different digests")
        bit = 1 << sig.signer
        if signers & bit:
            raise CryptoError(f"duplicate signer {sig.signer} in aggregate")
        signers |= bit
        pairs.append((sig.signer, sig.tag))
    return MultiSignature(message_digest, signers, _aggregate_tag(pairs))


def verify_aggregate(pki: Pki, multi: MultiSignature) -> bool:
    """Verify the aggregate in one shot (the typical, all-honest case)."""
    try:
        expected = _aggregate_tag([
            (s, pki.expected_tag(s, multi.message_digest))
            for s in parties_of(multi.signers)
        ])
    except CryptoError:
        return False
    return expected == multi.tag


def find_invalid_signers(pki: Pki, signatures: list[Signature]) -> list[NodeId]:
    """Per-signer verification fallback: identify (to penalize) bad signers."""
    return [sig.signer for sig in signatures if not pki.verify(sig)]
