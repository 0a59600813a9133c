"""Proof-of-availability data dissemination (the straw-man's first stage).

A proposer pushes its block to the members of a clan; each member stores the
block and returns a signed acknowledgement; ``f_c + 1`` acks aggregate into a
:class:`PoA` — a transferable proof that at least one honest clan member
holds the block, so consensus can safely order the digest alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..committees.config import ClanConfig
from ..crypto.certificates import QuorumCertificate, build_certificate, verify_certificate
from ..crypto.hashing import digest as compute_digest
from ..crypto.signatures import Pki, Signature
from ..dag.block import Block
from ..errors import ConsensusError
from ..net import sizes
from ..net.message import Message
from ..net.network import Network
from ..types import NodeId


def ack_statement(block_digest: bytes) -> bytes:
    return compute_digest(b"POA-ACK", block_digest)


@dataclass(slots=True)
class PoaBlockMsg(Message):
    """Block pushed to a clan member for storage."""

    block: Block

    def wire_size(self) -> int:
        return self.block.wire_size() + sizes.HEADER_SIZE


@dataclass(slots=True)
class PoaAckMsg(Message):
    """Signed storage acknowledgement returned to the proposer."""

    block_digest: bytes
    signature: Signature

    signed = True

    def wire_size(self) -> int:
        return sizes.HEADER_SIZE + sizes.HASH_SIZE + sizes.SIGNATURE_SIZE


@dataclass(frozen=True)
class PoA:
    """Proof of availability: f_c+1 clan members vouch they hold the block."""

    block_digest: bytes
    proposer: NodeId
    clan_idx: int
    cert: QuorumCertificate
    txn_count: int
    created_at: float

    @property
    def signers(self) -> int:
        return self.cert.signers

    def wire_size(self) -> int:
        return sizes.HEADER_SIZE + sizes.HASH_SIZE + sizes.BLS_SIGNATURE_SIZE + 32

    def verify(self, pki: Pki, cfg: ClanConfig) -> bool:
        clan = cfg.clan(self.clan_idx)
        quorum = cfg.clan_client_quorum(self.clan_idx)
        return (
            self.cert.message_digest == ack_statement(self.block_digest)
            and verify_certificate(pki, self.cert, quorum, clan=clan, clan_quorum=quorum)
        )


class PoaDisseminator:
    """Per-node PoA dissemination module (proposer and storage roles)."""

    def __init__(
        self,
        node_id: NodeId,
        cfg: ClanConfig,
        network: Network,
        pki: Pki,
        on_poa: Callable[[PoA], None],
    ) -> None:
        self.node_id = node_id
        self.cfg = cfg
        self.network = network
        self.pki = pki
        self._key = pki.key(node_id)
        self.on_poa = on_poa
        #: Blocks held for availability, by digest (storage role).
        self.stored: dict[bytes, Block] = {}
        #: Outstanding dissemination state (proposer role).
        self._pending: dict[bytes, dict] = {}

    def disseminate(self, block: Block) -> None:
        """Push ``block`` to this node's clan and start collecting acks."""
        if not self.cfg.is_block_proposer(self.node_id):
            raise ConsensusError(f"node {self.node_id} may not propose blocks")
        clan_idx = self.cfg.block_clan_of(self.node_id)
        block_digest = block.payload_digest()
        self._pending[block_digest] = {
            "acks": {},
            "clan_idx": clan_idx,
            "block": block,
            "done": False,
        }
        members = [p for p in sorted(self.cfg.clan(clan_idx)) if p != self.node_id]
        self.stored[block_digest] = block  # the proposer holds it too
        self.network.multicast(self.node_id, members, PoaBlockMsg(block))
        # The proposer's own ack counts toward the threshold.
        self._record_ack(
            block_digest, self.node_id, self._key.sign(ack_statement(block_digest))
        )

    def on_message(self, src: NodeId, msg: Message) -> bool:
        if isinstance(msg, PoaBlockMsg):
            self._on_block(src, msg)
        elif isinstance(msg, PoaAckMsg):
            self._on_ack(src, msg)
        else:
            return False
        return True

    def _on_block(self, src: NodeId, msg: PoaBlockMsg) -> None:
        block = msg.block
        if block.proposer != src:
            return  # authenticated channels: only the proposer pushes
        my_clan = self.cfg.clan_index_of(self.node_id)
        if my_clan is None or self.cfg.clan_index_of(src) != my_clan:
            return  # not my clan's data
        block_digest = block.payload_digest()
        self.stored[block_digest] = block
        ack = PoaAckMsg(block_digest, self._key.sign(ack_statement(block_digest)))
        self.network.send(self.node_id, src, ack)

    def _on_ack(self, src: NodeId, msg: PoaAckMsg) -> None:
        if msg.signature.signer != src:
            return
        if msg.signature.message_digest != ack_statement(msg.block_digest):
            return
        if not self.pki.verify(msg.signature):
            return
        self._record_ack(msg.block_digest, src, msg.signature)

    def _record_ack(self, block_digest: bytes, src: NodeId, signature: Signature) -> None:
        state = self._pending.get(block_digest)
        if state is None or state["done"]:
            return
        clan = self.cfg.clan(state["clan_idx"])
        if src not in clan:
            return
        state["acks"][src] = signature
        quorum = self.cfg.clan_client_quorum(state["clan_idx"])
        if len(state["acks"]) >= quorum:
            state["done"] = True
            block: Block = state["block"]
            poa = PoA(
                block_digest=block_digest,
                proposer=self.node_id,
                clan_idx=state["clan_idx"],
                cert=build_certificate(list(state["acks"].values())[:quorum]),
                txn_count=block.txn_count,
                created_at=block.created_at,
            )
            self.on_poa(poa)
