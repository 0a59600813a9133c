"""Wire messages for the RBC family.

Sizes follow the paper's accounting: VAL carries either the ℓ-byte payload
(clan members) or just the κ-byte digest (everyone else); ECHO/READY carry a
digest (plus a signature in the signed variants); CERT carries a BLS
multi-signature plus signer bitmap.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..crypto.certificates import QuorumCertificate
from ..crypto.hashing import digest as compute_digest
from ..crypto.signatures import Signature
from ..net import sizes
from ..net.message import Message
from ..types import NodeId, Round
from .base import payload_wire_size


def val_statement(origin: NodeId, round_: Round, digest_: bytes) -> bytes:
    """The statement the sender's VAL signature covers."""
    return compute_digest(b"VAL", origin, round_, digest_)


def echo_statement(origin: NodeId, round_: Round, digest_: bytes) -> bytes:
    """The statement an ECHO signature covers."""
    return compute_digest(b"ECHO", origin, round_, digest_)


@dataclass(slots=True)
class ValMsg(Message):
    """⟨VAL, m, r⟩ to clan members; ⟨VAL, H(m), r⟩ to the rest."""

    origin: NodeId
    round: Round
    digest: bytes
    payload: Any | None  # None when only the digest is sent
    signature: Signature | None = None

    @property
    def signed(self) -> bool:
        return self.signature is not None

    def wire_size(self) -> int:
        size = sizes.HEADER_SIZE + sizes.HASH_SIZE
        if self.payload is not None:
            size += payload_wire_size(self.payload)
        if self.signature is not None:
            size += sizes.SIGNATURE_SIZE
        return size


@dataclass(slots=True)
class EchoMsg(Message):
    """⟨ECHO, H(m), r⟩ — multicast by every party after its first VAL."""

    origin: NodeId
    round: Round
    digest: bytes
    signature: Signature | None = None

    @property
    def signed(self) -> bool:
        return self.signature is not None

    def wire_size(self) -> int:
        size = sizes.HEADER_SIZE + sizes.HASH_SIZE
        if self.signature is not None:
            size += sizes.SIGNATURE_SIZE
        return size


@dataclass(slots=True)
class ReadyMsg(Message):
    """⟨READY, H(m), r⟩ — Bracha-style second phase."""

    origin: NodeId
    round: Round
    digest: bytes

    def wire_size(self) -> int:
        return sizes.HEADER_SIZE + sizes.HASH_SIZE


@dataclass(slots=True)
class CertMsg(Message):
    """EC_r(m): certificate of 2f+1 ECHO signatures (Fig. 3 / two-round RBC)."""

    origin: NodeId
    round: Round
    digest: bytes
    cert: QuorumCertificate
    n: int  # committee size, for bitmap sizing

    signed = True  # carries aggregate signature material

    def wire_size(self) -> int:
        return sizes.HEADER_SIZE + sizes.HASH_SIZE + self.cert.wire_size(self.n)


@dataclass(slots=True)
class PayloadRequest(Message):
    """Pull request for a missing payload (§3: download from the clan).

    ``channel`` separates independent pull planes sharing one node handler
    (e.g. "payload" for RBC payloads, "block"/"vertex" in the consensus
    layer's merged RBC).
    """

    origin: NodeId
    round: Round
    digest: bytes
    channel: str = "payload"

    def wire_size(self) -> int:
        return sizes.HEADER_SIZE + sizes.HASH_SIZE


@dataclass(slots=True)
class PayloadResponse(Message):
    """Pull response carrying the full payload."""

    origin: NodeId
    round: Round
    digest: bytes
    payload: Any
    channel: str = "payload"

    def wire_size(self) -> int:
        return sizes.HEADER_SIZE + sizes.HASH_SIZE + payload_wire_size(self.payload)
