"""Quorum certificates built from multi-signatures.

The two-round RBC (Fig. 3) multicasts ``EC_r(m)``: 2f+1 ECHO signatures, at
least f_c+1 of them from the clan.  :class:`QuorumCertificate` packages a
multi-signature with the threshold checks the receiving side must run.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import CryptoError
from ..types import NodeId
from .bls import MultiSignature, aggregate, verify_aggregate
from .signatures import Pki, Signature


@dataclass(frozen=True, slots=True)
class QuorumCertificate:
    """A certificate that ``signers`` signed ``message_digest``."""

    multi: MultiSignature

    @property
    def message_digest(self) -> bytes:
        return self.multi.message_digest

    @property
    def signers(self) -> int:
        """The signer bitmap (bit p is party p)."""
        return self.multi.signers

    def wire_size(self, n: int) -> int:
        return self.multi.wire_size(n)


def build_certificate(signatures: list[Signature]) -> QuorumCertificate:
    """Aggregate raw signatures into a certificate (no thresholds checked)."""
    return QuorumCertificate(aggregate(signatures))


def verify_certificate(
    pki: Pki,
    cert: QuorumCertificate,
    quorum: int,
    clan: frozenset[NodeId] | None = None,
    clan_quorum: int = 0,
) -> bool:
    """Verify signature validity and thresholds.

    Args:
        quorum: total signers required (tribe 2f+1).
        clan: if given, at least ``clan_quorum`` signers must belong to it
            (the tribe-assisted f_c+1-from-clan condition).
    """
    signers = cert.signers
    if signers.bit_count() < quorum:
        return False
    if clan is not None and sum(signers >> p & 1 for p in clan) < clan_quorum:
        return False
    return verify_aggregate(pki, cert.multi)


def require_valid_certificate(
    pki: Pki,
    cert: QuorumCertificate,
    quorum: int,
    clan: frozenset[NodeId] | None = None,
    clan_quorum: int = 0,
) -> None:
    """Raise :class:`CryptoError` unless the certificate verifies."""
    if not verify_certificate(pki, cert, quorum, clan, clan_quorum):
        raise CryptoError("invalid quorum certificate")
