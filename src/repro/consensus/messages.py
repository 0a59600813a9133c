"""Consensus wire messages: merged vertex+block dissemination and no-votes.

The merged RBC (§5, "Efficiently propagating the vertex and the block") sends
one VAL per recipient: clan members of the proposer's clan receive vertex AND
block; everyone else receives the vertex alone (which embeds the block
digest).  ECHO/READY/CERT all refer to the *vertex digest*, which covers the
block digest, so one instance certifies both: they are the
:mod:`repro.rbc.messages` classes under their own names, because ``kind()``
keys the per-kind traffic statistics.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

from ..crypto.certificates import QuorumCertificate
from ..crypto.hashing import digest as compute_digest
from ..crypto.signatures import Signature
from ..dag.block import Block
from ..dag.vertex import Vertex
from ..net import sizes
from ..net.message import Message
from ..rbc.messages import CertMsg, EchoMsg, ReadyMsg
from ..types import NodeId, Round

if TYPE_CHECKING:
    from ..rbc.prefix import ChunkManifest


# Statement digests are pure functions of their (hashable) arguments and are
# recomputed for every sign/verify/tally on the same RBC instance; the memo
# turns the n-plus recomputations per instance into one SHA-256 each.


@lru_cache(maxsize=65536)
def vertex_val_statement(origin: NodeId, round_: Round, vertex_digest: bytes) -> bytes:
    return compute_digest(b"VVAL", origin, round_, vertex_digest)


@lru_cache(maxsize=65536)
def vertex_echo_statement(origin: NodeId, round_: Round, vertex_digest: bytes) -> bytes:
    return compute_digest(b"VECHO", origin, round_, vertex_digest)


@lru_cache(maxsize=65536)
def no_vote_statement(round_: Round) -> bytes:
    return compute_digest(b"NOVOTE", round_)


@dataclass(slots=True)
class VertexValMsg(Message):
    """Merged VAL: the vertex for everyone, the block for clan members.

    In prefix mode the block travels as separate chunk messages; clan
    members instead receive the :class:`~repro.rbc.prefix.ChunkManifest`
    (verified against ``vertex.chunk_root``) alongside the vertex.
    """

    vertex: Vertex
    block: Block | None
    signature: Signature | None
    manifest: "ChunkManifest | None" = None

    @property
    def origin(self) -> NodeId:
        return self.vertex.source

    @property
    def round(self) -> Round:
        return self.vertex.round

    @property
    def signed(self) -> bool:
        return self.signature is not None

    def wire_size(self) -> int:
        size = self.vertex.wire_size()
        if self.block is not None:
            size += self.block.wire_size()
        if self.signature is not None:
            size += sizes.SIGNATURE_SIZE
        if self.manifest is not None:
            size += self.manifest.wire_size()
        return size


class VertexEchoMsg(EchoMsg):
    """ECHO over the vertex digest (signed under the two-round completion)."""

    __slots__ = ()


class VertexReadyMsg(ReadyMsg):
    """READY over the vertex digest (bracha/optimistic completions)."""

    __slots__ = ()


class VertexCertMsg(CertMsg):
    """EC_r certificate over the vertex digest (two-round completion)."""

    __slots__ = ()


@dataclass(slots=True)
class NoVoteMsg(Message):
    """Signed complaint: the sender saw no leader vertex for ``round``."""

    round: Round
    signature: Signature

    signed = True

    def wire_size(self) -> int:
        return sizes.HEADER_SIZE + sizes.SIGNATURE_SIZE


@dataclass(frozen=True, slots=True)
class NoVoteCertificate:
    """2f+1 aggregated no-votes for ``round`` — carried in the next leader's
    vertex (``v.nvc``) to justify the missing strong edge to the leader."""

    round: Round
    cert: QuorumCertificate

    @property
    def signers(self) -> int:
        return self.cert.signers

    def wire_size(self) -> int:
        # Bitmap sized for a "large" committee; refined by the caller if needed.
        return sizes.HASH_SIZE + sizes.BLS_SIGNATURE_SIZE + 32
