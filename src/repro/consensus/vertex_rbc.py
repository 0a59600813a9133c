"""Merged vertex+block reliable broadcast (§5).

One RBC instance per (proposer, round) carries the vertex to the whole tribe
and the block only to the proposer's clan.  The voting and the clan-payload
rules (ECHO, delivery, pulls, retirement) are
:class:`repro.rbc.core.RbcCore`'s; this module holds the two payload
policies of the merged RBC.

**Clan-only block** (:class:`VertexRbc`): the VAL to the proposer's clan
carries vertex + block, to everyone else the vertex alone (it embeds the
block digest).  The tribe-wide part is the vertex, with its own pull; the
instance's clan — from ``schedule.cfg_at(round)`` — gates the ECHO quorum
whenever the origin may attach a block.  Vertex delivery never waits for
the block: consensus commits on vertices, and a missing block is pulled off
the critical path.

**Chunked prefix** (:class:`ChunkedPrefixRbc`): the block travels as
per-chunk messages bound to the vertex via a manifest digest
(``vertex.chunk_root``); voters attest the prefix they hold and the commit
rule orders the certified prefix (see ``consensus/node.py``), which this
module then owes the node until its chunks are in.  Every pull here —
vertex, block, chunks — runs on the one loop of :mod:`repro.rbc.retrieval`.

``VertexRbc(mode=...)`` is the one constructor: ``"two-round"``, ``"bracha"``
and ``"optimistic"`` name the completion rule over the clan-only block
policy; ``"prefix"`` is Bracha completion over the chunked-prefix policy.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from ..committees.config import ClanConfig
from ..crypto.certificates import QuorumCertificate
from ..crypto.evidence import EvidencePool
from ..crypto.signatures import Pki, Signature
from ..dag.block import Block
from ..dag.vertex import Vertex
from ..errors import ConsensusError
from ..net.network import Network
from ..obs.ctx import TraceCtx, block_trace_key
from ..rbc.base import InstanceKey
from ..rbc.core import COMPLETIONS, Instance, RbcCore, ValParts, echoers
from ..rbc.messages import PayloadRequest, PayloadResponse
from ..rbc.prefix import (
    BlockChunk,
    BlockChunkMsg,
    ChunkManifest,
    ChunkRequestMsg,
    ChunkResponseMsg,
    assemble_prefix,
    split_block,
)
from ..sim.scheduler import Simulator
from ..types import NodeId, Round
from .messages import (
    VertexCertMsg,
    VertexEchoMsg,
    VertexReadyMsg,
    VertexValMsg,
    vertex_echo_statement,
    vertex_val_statement,
)


@dataclass(slots=True)
class VertexInstance(Instance):
    """Per-(proposer, round) dissemination state: the voting state, the
    block as its payload, plus the vertex (certified by ``val_digest``/
    ``quorum_digest``)."""

    vertex: Vertex | None = None
    #: Two-round: the signature of the first VAL this node admitted, the
    #: half of a fraud proof a conflicting signed VAL completes (see
    #: :meth:`VertexRbc._witness`).
    val_signature: Signature | None = None


class VertexRbc(RbcCore):
    """Per-node merged dissemination module (clan-only block policy).

    Callbacks:
        on_first_val(vertex): the first time this node learns the vertex
            content (VAL arrival or pull) — drives Sailfish's 1-RBC+1δ votes.
        on_vertex(vertex): RBC delivery of the vertex (non-equivocation +
            eventual delivery certified).
        on_block(block): the block is available locally *and* its vertex has
            been delivered; fired only on members of the proposer's clan.
    """

    _instance_cls = VertexInstance
    _echo_cls = VertexEchoMsg
    _ready_cls = VertexReadyMsg
    _cert_cls = VertexCertMsg
    _val_statement = staticmethod(vertex_val_statement)
    _echo_statement = staticmethod(vertex_echo_statement)

    def __new__(
        cls, node_id, clan_cfg, network, sim, pki, on_first_val, on_vertex,
        on_block, mode="two-round", *_args, **_kwargs,
    ):
        if cls is VertexRbc and mode == "prefix":
            cls = ChunkedPrefixRbc
        return super().__new__(cls)

    def __init__(
        self,
        node_id: NodeId,
        clan_cfg: ClanConfig,
        network: Network,
        sim: Simulator,
        pki: Pki,
        on_first_val: Callable[[Vertex], None],
        on_vertex: Callable[[Vertex], None],
        on_block: Callable[[Block], None],
        mode: str = "two-round",
        verify_signatures: bool = True,
        fallback_timeout: float = 0.5,
        schedule=None,
        tracer=None,
    ) -> None:
        if mode not in (*COMPLETIONS, "prefix"):
            raise ConsensusError(f"unknown RBC mode {mode!r}")
        #: Round -> ClanConfig (epoch rotation); static wrapper by default.
        if schedule is None:
            from ..committees.rotation import StaticSchedule

            schedule = StaticSchedule(clan_cfg)
        self.schedule = schedule
        # "prefix" certifies vertices Bracha-style.
        super().__init__(
            node_id, clan_cfg, network, sim, pki,
            "bracha" if mode == "prefix" else mode,
            verify_signatures, fallback_timeout, tracer,
        )
        self.mode = mode
        self.on_first_val = on_first_val
        self.on_vertex = on_vertex
        self.on_block = on_block
        #: Realized fan-out stats over this node's own broadcasts (what the
        #: sparse-edge benchmarks read).
        self.vertices_broadcast = 0
        self.strong_refs_sent = 0
        self.weak_refs_sent = 0
        self._payload_pull = self._pull_plane(
            "block", self._on_pulled_payload, self._lookup_payload
        )
        self._vertex_retriever = self._pull_plane(
            "vertex", self._on_pulled_vertex, self._lookup_vertex
        )
        #: Accountability: transferable equivocation proofs from signed VALs.
        self.evidence = EvidencePool()

    # -- helpers ---------------------------------------------------------------

    def _clan_of(self, origin: NodeId, round_: Round) -> frozenset[NodeId] | None:
        # The clan condition is conservative: it applies whenever the origin
        # *may* attach a block (checked without the vertex, which may not
        # have arrived yet).  f_c+1 honest clan ECHOes always arrive for
        # block-less vertices too, so this never blocks.
        cfg = self.schedule.cfg_at(round_)
        if cfg.is_block_proposer(origin):
            return cfg.clan(cfg.block_clan_of(origin))
        return None

    def serves_block(self, origin: NodeId, round_: Round) -> bool:
        """Is this node in the proposer's clan (receives/executes its blocks)?"""
        cfg = self.schedule.cfg_at(round_)
        idx = cfg.clan_index_of(origin)
        return idx is not None and idx == cfg.clan_index_of(self.node_id)

    # -- sending -----------------------------------------------------------------

    def val_parts(self, vertex: Vertex, block: Block | None) -> ValParts:
        """The VALs an honest proposer sends: vertex + block to its clan, the
        vertex alone to everyone else (to everyone when there is no block)."""
        signature = None
        if self._signed:
            signature = self._key.sign(
                vertex_val_statement(self.node_id, vertex.round, vertex.vertex_digest())
            )
        bare = VertexValMsg(vertex, None, signature)
        if block is None:
            return ValParts(signature, [], list(range(self.n)), bare, bare)
        cfg = self.schedule.cfg_at(vertex.round)
        clan = cfg.clan(cfg.block_clan_of(self.node_id))
        return ValParts(
            signature,
            [p for p in range(self.n) if p in clan],
            [p for p in range(self.n) if p not in clan],
            VertexValMsg(vertex, block, signature),
            bare,
        )

    def broadcast(self, vertex: Vertex, block: Block | None) -> None:
        """Disseminate this node's vertex (and block, if it proposes blocks)."""
        if vertex.source != self.node_id:
            raise ConsensusError("can only broadcast own vertices")
        ctx = None
        if self.tracer.enabled:
            ctx = self._broadcast_ctx(vertex)
            if self.tracer.verbose or ctx is not None:
                self.tracer.counter(
                    "consensus.propose", node=self.node_id, round=vertex.round,
                    has_block=block is not None, time=self.sim.now,
                )
        if (block is None) != (vertex.block_digest is None):
            raise ConsensusError("vertex.block_digest must match block presence")
        if block is not None and block.payload_digest() != vertex.block_digest:
            raise ConsensusError("vertex.block_digest does not match block")
        self.vertices_broadcast += 1
        self.strong_refs_sent += len(vertex.strong_edges)
        self.weak_refs_sent += len(vertex.weak_edges)
        parts = self.val_parts(vertex, block)
        if ctx is not None:
            for msg in (parts.full, parts.bare, *parts.chunks):
                msg.trace_ctx = ctx
        self.send_val_parts(parts)

    def _broadcast_ctx(self, vertex: Vertex) -> TraceCtx | None:
        """Open (and register) the causal trace for a sampled vertex.

        The trace id derives from the block digest when the vertex carries a
        block (so offline tools can rejoin it from a manifest digest alone),
        else from the (round, source) vertex identity.  A block whose
        transactions include a head-sampled txn is force-sampled via the
        ``("blkforce", digest)`` binding the SMR runtime registers at block
        creation — txn trees stay complete at any sample rate.
        """
        tr = self.tracer
        if vertex.block_digest is not None:
            key = block_trace_key(vertex.block_digest)
            forced = tr.ctx(("blkforce", vertex.block_digest)) is not None
        else:
            key = f"vtx:{vertex.round}:{vertex.source}"
            forced = False
        if not forced and not tr.sampled(key):
            return None
        ctx = TraceCtx(tr.trace_id(key), tr.next_span_id())
        tr.bind(("vertex", vertex.round, vertex.source), ctx)
        if vertex.block_digest is not None:
            tr.bind(("block", vertex.block_digest), ctx)
        # The trace's root span: the proposal event itself.  Children (hops,
        # per-node RBC phases, attach/order/execute) hang off ctx.span_id.
        now = self.sim.now
        tr.span(
            "rbc.broadcast", start=now, end=now, node=self.node_id,
            round=vertex.round, trace=ctx.trace_id, span=ctx.span_id,
        )
        return ctx

    # -- receiving ----------------------------------------------------------------

    def dispatch_table(self) -> dict:
        """Exact-class handler table for :meth:`Network.set_dispatch` (and
        :meth:`on_message`); the owning node extends it with its own message
        types before installing it."""
        return {
            VertexEchoMsg: self._on_echo,
            VertexCertMsg: self._on_cert,
            VertexValMsg: self._on_val,
            VertexReadyMsg: self._on_ready,
            PayloadRequest: self._on_payload_request,
            PayloadResponse: self._on_payload_response,
        }

    def _on_val(self, src: NodeId, msg: VertexValMsg) -> None:
        vertex = msg.vertex
        origin, round_ = vertex.source, vertex.round
        if src != origin:
            return  # authenticated channels
        if round_ < 1:
            return
        if vertex.block_digest is not None and not self.schedule.cfg_at(
            round_
        ).is_block_proposer(origin):
            return  # §5: only clan members may propose blocks
        vdigest = vertex.vertex_digest()
        state = self._admit_val(origin, round_, vdigest, msg)
        if state is None:
            return
        if self._signed:
            self._witness(origin, round_, state, vdigest, msg.signature)
        if not self._follow_val(origin, round_, state, vdigest):
            return
        if state.vertex is None:
            state.vertex = vertex
            self.on_first_val(vertex)
        self._take_payload(
            origin, round_, state, self._accept_body(origin, round_, state, msg)
        )

    def _witness(
        self, origin: NodeId, round_: Round, state: VertexInstance,
        digest_: bytes, signature: Signature,
    ) -> None:
        """Signed VALs are accountability material: the instance keeps the
        first one's signature, and a later one over another statement makes
        the pair a transferable fraud proof.

        The first signature's digest is the instance's ``val_digest``, or —
        when a pull set that before any VAL — one of its ``conflicting``
        digests; the signed statement says which.  A signature over any
        other statement could make no proof that verifies."""
        first = state.val_signature
        if first is None:
            state.val_signature = signature
            return
        if first.message_digest == signature.message_digest:
            return
        for signed in (state.val_digest, *sorted(state.conflicting)):
            if first.message_digest == self._val_statement(origin, round_, signed):
                self.evidence.record(
                    origin, round_, (signed, first), (digest_, signature)
                )
                return

    def _accept_body(
        self, origin: NodeId, round_: Round, state: VertexInstance, msg: VertexValMsg
    ) -> Block | None:
        """The VAL's clan-only part, if it is the block its vertex names (the
        block digest binds proposer and round)."""
        block = msg.block
        if block is not None and state.payload is None and (
            block.payload_digest() == msg.vertex.block_digest
        ):
            return block
        return None

    # -- the tribe-wide part: the vertex ------------------------------------------

    def _payload_want(
        self, origin: NodeId, round_: Round, state: VertexInstance, digest_: bytes
    ) -> bytes | None:
        """The block of the held vertex, on a member of the proposer's clan."""
        vertex = state.vertex
        if vertex is None or vertex.block_digest is None:
            return None
        return vertex.block_digest if self.serves_block(origin, round_) else None

    def _certified(
        self, origin: NodeId, round_: Round, digest_: bytes, state: VertexInstance,
        cert: QuorumCertificate | None,
    ) -> None:
        """The RBC quorum certified ``digest_``: deliver vertex, then block."""
        signers = cert.signers if cert is not None else 0
        if state.vertex is None or state.vertex.vertex_digest() != digest_:
            # VAL still in flight (or equivocation shadow): pull the vertex
            # from any echoing party, off the critical path.  The pull keeps
            # the certificate's signers for the block pull that follows.
            holders = [p for p in echoers(state, digest_) if p != self.node_id]
            if self._signed and not holders:
                holders = [origin]
            if holders:
                self._vertex_retriever.fetch(
                    (origin, round_), holders, digest_, signers
                )
            return
        self._settle(origin, round_, state, signers)

    def _head_certified(self, state: VertexInstance) -> bool:
        vertex = state.vertex
        return vertex is not None and vertex.vertex_digest() == state.quorum_digest

    def _deliver_head(self, origin: NodeId, round_: Round, state: VertexInstance) -> None:
        """Vertex delivery never waits for the block."""
        delivered = self._mark_delivered(origin, round_, state)
        if delivered is not None:
            # Downstream stages on this node (DAG attach, ordering) parent
            # under the local delivery span, giving the trace a per-node
            # causal chain rather than a flat fan-out.
            self.tracer.bind(("vdeliv", round_, origin, self.node_id), delivered)
        self.on_vertex(state.vertex)

    def _deliver_payload(
        self, origin: NodeId, round_: Round, state: VertexInstance
    ) -> None:
        if self.tracer.enabled:
            start = state.val_at if state.val_at is not None else self.sim.now
            self._phase_span("rbc.block_e2e", start, origin, round_, state)
        self.on_block(state.payload)

    def _on_pulled_vertex(
        self, origin: NodeId, round_: Round, vertex: Vertex, signers: int
    ) -> None:
        state = self.instance(origin, round_)
        vdigest = vertex.vertex_digest()
        if state.vertex is None:
            state.vertex = vertex
            state.val_digest = vdigest
            self.on_first_val(vertex)
        elif (
            state.quorum_digest == vdigest
            and state.vertex.vertex_digest() != vdigest
        ):
            # Equivocating proposer: the quorum certified a different vertex
            # than the VAL we saw first; the certified one is authoritative.
            state.conflicting |= {state.vertex.vertex_digest()}
            if self.on_equivocation is not None:
                self.on_equivocation(origin, round_, len(state.conflicting))
            state.vertex = vertex
        self._settle(origin, round_, state, signers)

    def _lookup_vertex(self, origin: NodeId, round_: Round) -> Vertex | None:
        state = self._live(origin, round_)
        if state is not None:
            return state.vertex
        retired = self.retired_payload(origin, round_)
        return retired[0] if retired is not None else None

    # -- retirement ------------------------------------------------------------------

    def _on_retire(
        self, origin: NodeId, round_: Round, state: VertexInstance
    ) -> tuple[Vertex, Block | None]:
        return state.vertex, state.payload


# -- chunked prefix -------------------------------------------------------------


@dataclass(slots=True)
class PrefixInstance(VertexInstance):
    # The verified manifest, verified chunks by index, and chunks buffered
    # before the manifest arrived (lazily allocated).
    manifest: ChunkManifest | None = None
    chunks: dict[int, BlockChunk] | None = None
    chunk_buffer: dict[int, BlockChunk] | None = None
    #: The decided prefix this node still owes its commit path:
    #: ``(ordered vertex, k, on_ready)`` (see ``fetch_prefix``).
    owed: tuple[Vertex, int, Callable[[Block], None]] | None = None


class ChunkedPrefixRbc(VertexRbc):
    """The chunked-prefix policy: the block as manifest-bound chunks.

    Clan members get the manifest (bound to the vertex via ``chunk_root``)
    alongside the vertex and echo on vertex+manifest alone — the whole point
    is that certification must not wait for the block tail.  Blocks reach
    the node through the certified-prefix commit path (:meth:`fetch_prefix`),
    never through ``on_block``, and chunk pulls replace the whole-block pull
    plane.
    """

    _instance_cls = PrefixInstance

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # Not a payload plane, so gc_below leaves it alone: a pending chunk
        # pull is an owed prefix (fetch_prefix opens it, _notify_chunks
        # closes it), and the executor drains blocks in total order, so
        # however far the GC floor has passed its round it must not drop.
        self._chunk_pull = self._pull_loop(self._request_chunks)
        #: Serve-once marks of the chunk server: (origin, round, index, requester).
        self._chunk_served: set[tuple[NodeId, Round, int, NodeId]] = set()

    def val_parts(self, vertex: Vertex, block: Block | None) -> ValParts:
        parts = super().val_parts(vertex, block)
        if block is None:
            return parts
        manifest, chunks = split_block(block, vertex.block_chunks)
        if manifest.manifest_digest() != vertex.chunk_root:
            raise ConsensusError("vertex.chunk_root does not match manifest")
        return replace(
            parts,
            full=VertexValMsg(vertex, None, parts.signature, manifest),
            chunks=tuple(
                BlockChunkMsg(self.node_id, vertex.round, chunk) for chunk in chunks
            ),
        )

    def dispatch_table(self) -> dict:
        table = super().dispatch_table()
        table.update({
            BlockChunkMsg: self._on_chunk,
            ChunkRequestMsg: self._on_chunk_request,
            ChunkResponseMsg: self._on_chunk_response,
        })
        return table

    def _accept_body(
        self, origin: NodeId, round_: Round, state: PrefixInstance, msg: VertexValMsg
    ) -> None:
        if msg.manifest is not None and state.manifest is None:
            self._try_accept_manifest(origin, round_, state, msg.manifest)

    def _holds_payload(self, origin: NodeId, round_: Round, state: PrefixInstance) -> bool:
        # Certification must not wait for the block tail: vouch on the
        # manifest.
        return (
            state.manifest is not None
            or not state.vertex.block_chunks
            or not self.serves_block(origin, round_)
        )

    def _payload_want(
        self, origin: NodeId, round_: Round, state: PrefixInstance, digest_: bytes
    ) -> None:
        return None  # blocks arrive through fetch_prefix, never on_block

    def _try_accept_manifest(
        self, origin: NodeId, round_: Round, state: PrefixInstance,
        manifest: ChunkManifest,
    ) -> bool:
        """Accept a manifest iff it matches the vertex's chunk root — the
        VAL's vertex, or the ordered one for an instance known only through
        sync catch-up."""
        accepted = state.vertex
        if accepted is None and state.owed is not None:
            accepted = state.owed[0]
        if (
            accepted is None
            or not accepted.block_chunks
            or manifest.num_chunks != accepted.block_chunks
            or manifest.block_digest != accepted.block_digest
            or manifest.manifest_digest() != accepted.chunk_root
        ):
            return False
        state.manifest = manifest
        self._drain_chunk_buffer(origin, round_, state)
        return True

    def _on_chunk(self, src: NodeId, msg: BlockChunkMsg) -> None:
        if src != msg.origin:
            return
        chunk = msg.chunk
        if chunk.proposer != msg.origin or chunk.round != msg.round:
            return
        if self.tracer.enabled:
            # Chunks may outrun the VAL; adopt the context either way.
            state = self.instance(msg.origin, msg.round)
            if state.ctx is None:
                state.ctx = getattr(msg, "trace_ctx", None)
        self._accept_chunk(msg.origin, msg.round, chunk)

    def _accept_chunk(self, origin: NodeId, round_: Round, chunk: BlockChunk) -> None:
        state = self.instance(origin, round_)
        if state.manifest is None:
            # Can't verify yet: buffer first-seen chunks until the manifest
            # (bound to the certified vertex) arrives.
            buf = state.chunk_buffer
            if buf is None:
                buf = state.chunk_buffer = {}
            buf.setdefault(chunk.index, chunk)
            return
        if not state.manifest.verify_chunk(chunk):
            return
        chunks = state.chunks
        if chunks is None:
            chunks = state.chunks = {}
        if chunk.index in chunks:
            return
        chunks[chunk.index] = chunk
        self._notify_chunks(origin, round_, state)

    def _drain_chunk_buffer(
        self, origin: NodeId, round_: Round, state: PrefixInstance
    ) -> None:
        """Manifest just arrived: verify buffered chunks, then notify."""
        buf = state.chunk_buffer
        state.chunk_buffer = None
        if buf:
            chunks = state.chunks
            if chunks is None:
                chunks = state.chunks = {}
            for index in sorted(buf):
                chunk = buf[index]
                if index not in chunks and state.manifest.verify_chunk(chunk):
                    chunks[index] = chunk
        self._notify_chunks(origin, round_, state)

    def _notify_chunks(self, origin: NodeId, round_: Round, state: PrefixInstance) -> None:
        """Holdings grew: pay the owed prefix once chunks [0, k) are in."""
        if state.owed is None or state.manifest is None:
            return
        _, k, on_ready = state.owed
        chunks = state.chunks or ()
        if all(i in chunks for i in range(k)):
            state.owed = None
            self._chunk_pull.done((origin, round_))
            on_ready(assemble_prefix(state.manifest, chunks, k))

    def held_prefix(self, origin: NodeId, round_: Round) -> int:
        """Contiguous verified chunks held from index 0 (0 without manifest)."""
        state = self._live(origin, round_)
        if state is None or state.manifest is None:
            return 0
        chunks = state.chunks
        if not chunks:
            return 0
        held = 0
        total = state.manifest.num_chunks
        while held < total and held in chunks:
            held += 1
        return held

    def fetch_prefix(
        self, vertex: Vertex, k: int, holders: list[NodeId],
        on_ready: Callable[[Block], None],
    ) -> None:
        """Hand chunks [0, k) of the ordered ``vertex``'s block to
        ``on_ready`` as one block: at once when they are held, else when the
        pull from ``holders`` (attesters of at least k first) completes."""
        key = (vertex.source, vertex.round)
        state = self.instance(*key)
        state.owed = (vertex, k, on_ready)
        self._notify_chunks(vertex.source, vertex.round, state)
        if state.owed is not None and holders:
            self._chunk_pull.fetch(key, holders)

    def _request_chunks(self, key: InstanceKey, target: NodeId, _want: None) -> bool:
        """One pull attempt: ask ``target`` for the owed prefix's missing
        chunks."""
        state = self._live(*key)
        if state.owed is None:
            return False
        chunks = state.chunks or ()
        # With all k chunks held but the manifest missing (bare-vertex pull,
        # or k=0), probe index 0 — responses carry the manifest.
        for index in [i for i in range(state.owed[1]) if i not in chunks] or [0]:
            req = ChunkRequestMsg(key[0], key[1], index)
            if state.ctx is not None:
                req.trace_ctx = state.ctx
            self.network.send(self.node_id, target, req)
        return True

    def _on_chunk_request(self, src: NodeId, msg: ChunkRequestMsg) -> None:
        mark = (msg.origin, msg.round, msg.index, src)
        if mark in self._chunk_served:
            return  # serve-once per (instance, index, requester)
        state = self._live(msg.origin, msg.round)
        if state is None or state.manifest is None:
            return
        chunk = state.chunks.get(msg.index) if state.chunks else None
        if chunk is None and msg.index != 0:
            return  # manifest-only answers only for the index-0 probe
        self._chunk_served.add(mark)
        resp = ChunkResponseMsg(msg.origin, msg.round, chunk, state.manifest)
        if state.ctx is not None:
            resp.trace_ctx = state.ctx
        self.network.send(self.node_id, src, resp)

    def _on_chunk_response(self, src: NodeId, msg: ChunkResponseMsg) -> None:
        state = self._live(msg.origin, msg.round)
        if state is None:
            return
        if msg.manifest is not None and state.manifest is None:
            if self._try_accept_manifest(msg.origin, msg.round, state, msg.manifest):
                # A late manifest can unblock this clan member's ECHO.
                self._maybe_echo(msg.origin, msg.round, state)
        chunk = msg.chunk
        if chunk is None:
            return
        if chunk.proposer != msg.origin or chunk.round != msg.round:
            return
        self._accept_chunk(msg.origin, msg.round, chunk)

    # -- housekeeping ---------------------------------------------------------------

    def _finished(self, origin: NodeId, round_: Round, state: PrefixInstance) -> bool:
        # The chunk server and held_prefix answer from the instance: keep it.
        return False

    def gc_below(self, round_: Round) -> None:
        super().gc_below(round_)
        self._chunk_served = {m for m in self._chunk_served if m[1] >= round_}
