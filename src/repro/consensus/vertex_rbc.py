"""Merged vertex+block reliable broadcast (§5).

One RBC instance per (proposer, round) carries the vertex to the whole tribe
and the block only to the proposer's clan:

* VAL to a clan member of the proposer's clan = vertex + block; VAL to
  everyone else = vertex alone (it embeds the block digest).
* A clan member ECHOes only after holding *both* vertex and block; everyone
  else after holding the vertex.
* Completion needs 2f+1 ECHOes and — when the vertex carries a block —
  at least f_c+1 of them from the proposer's clan, so an honest clan member
  provably holds the block.
* Vertex delivery never waits for the block: consensus progresses and commits
  on vertices; missing blocks are pulled off the critical path and delivered
  to clan members when they arrive.

Four completion modes:

* ``"two-round"`` — signed ECHOes aggregated into a multicast certificate
  (Fig. 3).
* ``"bracha"`` — unsigned ECHO/READY phases (Fig. 2).
* ``"optimistic"`` — unsigned fast path: deliver when *all n* parties ECHO
  one digest (2δ), falling back to the Bracha READY path when a conflicting
  digest shows up, the per-instance fallback timer fires, or any READY
  arrives (someone else already fell back).
* ``"prefix"`` — Bracha-style vertex certification, but the block travels
  as per-chunk messages bound to the vertex via a manifest digest
  (``vertex.chunk_root``); voters attest the prefix they hold and the
  commit rule orders the certified prefix (see ``consensus/node.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..committees.config import ClanConfig
from ..crypto.certificates import build_certificate, verify_certificate
from ..obs.ctx import TraceCtx, block_trace_key
from ..crypto.evidence import EvidencePool
from ..crypto.signatures import Pki
from ..dag.block import Block
from ..dag.vertex import Vertex
from ..errors import ConsensusError
from ..net.network import Network
from ..rbc.messages import PayloadRequest, PayloadResponse
from ..rbc.prefix import (
    BlockChunk,
    BlockChunkMsg,
    ChunkManifest,
    ChunkRequestMsg,
    ChunkResponseMsg,
    split_block,
)
from ..rbc.retrieval import Responder, Retriever
from ..sim.scheduler import Simulator
from ..types import NodeId, Round, clan_response_quorum
from .messages import (
    VertexCertMsg,
    VertexEchoMsg,
    VertexReadyMsg,
    VertexValMsg,
    vertex_echo_statement,
    vertex_val_statement,
)

Key = tuple[NodeId, Round]


@dataclass
class VertexInstance:
    """Per-(proposer, round) dissemination state."""

    vertex: Vertex | None = None
    block: Block | None = None
    first_digest: bytes | None = None
    echoed: bool = False
    ready_digest: bytes | None = None
    cert_sent: bool = False
    vertex_delivered: bool = False
    block_delivered: bool = False
    quorum_digest: bytes | None = None
    #: The clan whose ECHOes gate this instance (None: no clan condition).
    clan: frozenset[NodeId] | None = None
    echoes: dict[bytes, set[NodeId]] = field(default_factory=dict)
    #: Incremental clan-supporter tallies per digest (hot-path counter).
    clan_echo_counts: dict[bytes, int] = field(default_factory=dict)
    echo_sigs: dict[bytes, dict[NodeId, object]] = field(default_factory=dict)
    readies: dict[bytes, set[NodeId]] = field(default_factory=dict)
    conflicting: set[bytes] = field(default_factory=set)
    # Optimistic mode: has this instance abandoned the fast path, and the
    # armed fallback timer (scalar defaults — zero cost for other modes).
    pessimistic: bool = False
    fallback_timer: object | None = None
    # Prefix mode: the verified manifest, verified chunks by index, and
    # chunks buffered before the manifest arrived (lazily allocated).
    manifest: ChunkManifest | None = None
    chunks: dict[int, BlockChunk] | None = None
    chunk_buffer: dict[int, BlockChunk] | None = None
    # Phase timestamps, populated only when tracing is enabled.
    val_at: float | None = None
    echo_at: float | None = None
    #: Causal trace context of this vertex's dissemination (None when the
    #: instance is unsampled or tracing is off); inherited from the VAL
    #: message and stamped onto every ECHO/READY/CERT/chunk this node sends
    #: for the instance.
    ctx: object | None = None


class VertexRbc:
    """Per-node merged dissemination module.

    Callbacks:
        on_first_val(vertex): the first time this node learns the vertex
            content (VAL arrival or pull) — drives Sailfish's 1-RBC+1δ votes.
        on_vertex(vertex): RBC delivery of the vertex (non-equivocation +
            eventual delivery certified).
        on_block(block): the block is available locally *and* its vertex has
            been delivered; fired only on members of the proposer's clan.
    """

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
        retry_timeout: float = 0.25,
        fallback_timeout: float = 0.5,
        schedule=None,
        tracer=None,
        edge_mode: str = "full",
    ) -> None:
        if mode not in ("two-round", "bracha", "optimistic", "prefix"):
            raise ConsensusError(f"unknown RBC mode {mode!r}")
        self.node_id = node_id
        self.cfg = clan_cfg
        #: Round -> ClanConfig (epoch rotation); static wrapper by default.
        if schedule is None:
            from ..committees.rotation import StaticSchedule

            schedule = StaticSchedule(clan_cfg)
        self.schedule = schedule
        self.network = network
        self.sim = sim
        self.tracer = tracer if tracer is not None else network.tracer
        self.pki = pki
        self._key = pki.key(node_id)
        self.on_first_val = on_first_val
        self.on_vertex = on_vertex
        self.on_block = on_block
        self.mode = mode
        self._optimistic = mode == "optimistic"
        self._prefix = mode == "prefix"
        #: Edge policy of the vertices this node broadcasts ("full"/"sparse");
        #: informational here, but the per-broadcast edge counters below are
        #: what the sparse-edge benchmarks read to report realized fan-out.
        self.edge_mode = edge_mode
        #: Realized fan-out stats over this node's own broadcasts.
        self.vertices_broadcast = 0
        self.strong_refs_sent = 0
        self.weak_refs_sent = 0
        self.fallback_timeout = fallback_timeout
        self.retry_timeout = retry_timeout
        self.verify = verify_signatures
        self.instances: dict[Key, VertexInstance] = {}
        # Optimistic-mode statistics: deliveries through each path and
        # fallback-trigger counts by reason ("conflict"/"timeout"/"ready").
        self.fast_deliveries = 0
        self.fallback_deliveries = 0
        self.fallbacks: dict[str, int] = {}
        # Prefix-mode chunk-pull state: per-instance fetch entries (rotating
        # holders, capped backoff) and the serve-once rate-limit marks.
        self._chunk_fetch: dict[Key, dict] = {}
        self._chunk_served: set[tuple[NodeId, Round, int, NodeId]] = set()
        #: Prefix-mode hook: fired as (origin, round) whenever this node's
        #: verified chunk holdings for an instance grow (node completion).
        self.on_chunk = None
        self._quorum = clan_cfg.quorum
        self._amplify = clan_cfg.ready_amplify
        self._block_retriever = Retriever(
            node_id, network, sim, self._on_pulled_block, retry_timeout, channel="block"
        )
        self._block_responder = Responder(
            node_id, network, self._lookup_block, channel="block"
        )
        self._vertex_retriever = Retriever(
            node_id, network, sim, self._on_pulled_vertex, retry_timeout, channel="vertex"
        )
        self._vertex_responder = Responder(
            node_id, network, self._lookup_vertex, channel="vertex"
        )
        # ECHO/READY are the n²-per-round fan-out messages and their handlers
        # retain only field values (signer sets, signatures, digests), never
        # the message object — so both classes satisfy the arena's pooling
        # contract.  CERT does not: _on_cert rebroadcasts the same object.
        self._arena = getattr(network, "arena", None)
        if self._arena is not None:
            self._arena.register(VertexEchoMsg)
            self._arena.register(VertexReadyMsg)
        #: Accountability: transferable equivocation proofs from signed VALs.
        self.evidence = EvidencePool()
        #: Forensics hook fired when a conflicting digest for an (origin,
        #: round) instance is first observed: (origin, round, n_conflicting).
        self.on_equivocation = None

    # -- helpers ---------------------------------------------------------------

    def instance(self, origin: NodeId, round_: Round) -> VertexInstance:
        key = (origin, round_)
        state = self.instances.get(key)
        if state is None:
            state = self.instances[key] = VertexInstance()
            # The clan condition is conservative: it applies whenever the
            # origin *may* attach a block (checked without the vertex, which
            # may not have arrived yet).  f_c+1 honest clan ECHOes always
            # arrive for block-less vertices too, so this never blocks.
            cfg = self.schedule.cfg_at(round_)
            if cfg.is_block_proposer(origin):
                state.clan = cfg.clan(cfg.block_clan_of(origin))
        return state

    def _make_echo(
        self, origin: NodeId, round_: Round, digest_: bytes, signature
    ) -> VertexEchoMsg:
        arena = self._arena
        if arena is not None:
            msg = arena.acquire(VertexEchoMsg)
            if msg is not None:
                msg.origin = origin
                msg.round = round_
                msg.vertex_digest = digest_
                msg.signature = signature
                return msg
        return VertexEchoMsg(origin, round_, digest_, signature)

    def _make_ready(self, origin: NodeId, round_: Round, digest_: bytes) -> VertexReadyMsg:
        arena = self._arena
        if arena is not None:
            msg = arena.acquire(VertexReadyMsg)
            if msg is not None:
                msg.origin = origin
                msg.round = round_
                msg.vertex_digest = digest_
                return msg
        return VertexReadyMsg(origin, round_, digest_)

    def _serves_block(self, origin: NodeId, round_: Round) -> bool:
        """Is this node in the proposer's clan (receives/executes its blocks)?"""
        cfg = self.schedule.cfg_at(round_)
        idx = cfg.clan_index_of(origin)
        return idx is not None and idx == cfg.clan_index_of(self.node_id)

    # -- sending -----------------------------------------------------------------

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
        vdigest = vertex.vertex_digest()
        signature = None
        if self.mode == "two-round":
            signature = self._key.sign(
                vertex_val_statement(self.node_id, vertex.round, vdigest)
            )
        if block is None:
            val = VertexValMsg(vertex, None, signature)
            if ctx is not None:
                val.trace_ctx = ctx
            self.network.broadcast(self.node_id, val)
            return
        cfg = self.schedule.cfg_at(vertex.round)
        clan = cfg.clan(cfg.block_clan_of(self.node_id))
        in_clan = [p for p in range(self.cfg.n) if p in clan]
        outside = [p for p in range(self.cfg.n) if p not in clan]
        if self._prefix:
            # The block travels as chunks; clan members get the manifest
            # (bound to the vertex via chunk_root) alongside the vertex.
            manifest, chunks = split_block(block, vertex.block_chunks)
            if manifest.manifest_digest() != vertex.chunk_root:
                raise ConsensusError("vertex.chunk_root does not match manifest")
            val = VertexValMsg(vertex, None, signature, manifest)
            bare = VertexValMsg(vertex, None, signature)
            if ctx is not None:
                val.trace_ctx = ctx
                bare.trace_ctx = ctx
            self.network.multicast(self.node_id, in_clan, val)
            if outside:
                self.network.multicast(self.node_id, outside, bare)
            for chunk in chunks:
                cmsg = BlockChunkMsg(self.node_id, vertex.round, chunk)
                if ctx is not None:
                    cmsg.trace_ctx = ctx
                self.network.multicast(self.node_id, in_clan, cmsg)
            return
        with_block = VertexValMsg(vertex, block, signature)
        without_block = VertexValMsg(vertex, None, signature)
        if ctx is not None:
            with_block.trace_ctx = ctx
            without_block.trace_ctx = ctx
        self.network.multicast(self.node_id, in_clan, with_block)
        if outside:
            self.network.multicast(self.node_id, outside, without_block)

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

    def on_message(self, src: NodeId, msg: object) -> bool:
        """Dispatch a network message; returns False if it isn't ours.

        ECHO and CERT dominate traffic (n² per round), so they are tested
        first.
        """
        if isinstance(msg, VertexEchoMsg):
            self._on_echo(src, msg)
        elif isinstance(msg, VertexCertMsg):
            self._on_cert(src, msg)
        elif isinstance(msg, VertexValMsg):
            self._on_val(src, msg)
        elif isinstance(msg, VertexReadyMsg):
            self._on_ready(src, msg)
        elif isinstance(msg, PayloadRequest):
            self._on_payload_request(src, msg)
        elif isinstance(msg, PayloadResponse):
            self._on_payload_response(src, msg)
        elif isinstance(msg, BlockChunkMsg):
            self._on_chunk(src, msg)
        elif isinstance(msg, ChunkRequestMsg):
            self._on_chunk_request(src, msg)
        elif isinstance(msg, ChunkResponseMsg):
            self._on_chunk_response(src, msg)
        else:
            return False
        return True

    def _on_payload_request(self, src: NodeId, msg: PayloadRequest) -> None:
        self._block_responder.on_request(src, msg)
        self._vertex_responder.on_request(src, msg)

    def _on_payload_response(self, src: NodeId, msg: PayloadResponse) -> None:
        self._block_retriever.on_response(src, msg)
        self._vertex_retriever.on_response(src, msg)

    def dispatch_table(self) -> dict:
        """Exact-class handler table for :meth:`Network.set_dispatch`.

        Covers the same vocabulary as :meth:`on_message`; the owning node
        extends it with its own message types before installing it.
        """
        return {
            VertexEchoMsg: self._on_echo,
            VertexCertMsg: self._on_cert,
            VertexValMsg: self._on_val,
            VertexReadyMsg: self._on_ready,
            PayloadRequest: self._on_payload_request,
            PayloadResponse: self._on_payload_response,
            BlockChunkMsg: self._on_chunk,
            ChunkRequestMsg: self._on_chunk_request,
            ChunkResponseMsg: self._on_chunk_response,
        }

    def _on_val(self, src: NodeId, msg: VertexValMsg) -> None:
        vertex = msg.vertex
        origin = vertex.source
        if src != origin:
            return  # authenticated channels
        if vertex.round < 1:
            return
        if vertex.block_digest is not None and not self.schedule.cfg_at(
            vertex.round
        ).is_block_proposer(origin):
            return  # §5: only clan members may propose blocks
        vdigest = vertex.vertex_digest()
        if self.mode == "two-round":
            if msg.signature is None:
                return
            if self.verify:
                if msg.signature.signer != origin or not self.pki.verify(msg.signature):
                    return
                expected = vertex_val_statement(origin, vertex.round, vdigest)
                if msg.signature.message_digest != expected:
                    return
        state = self.instance(origin, vertex.round)
        if self.tracer.enabled:
            if state.val_at is None:
                state.val_at = self.sim.now
            if state.ctx is None:
                state.ctx = getattr(msg, "trace_ctx", None)
        if self._optimistic and not state.pessimistic and not state.vertex_delivered:
            self._arm_fallback(origin, vertex.round, state)
        if self.mode == "two-round" and msg.signature is not None:
            # Signed VALs are accountability material: two conflicting ones
            # from the same (origin, round) yield a transferable fraud proof.
            self.evidence.record(origin, vertex.round, vdigest, msg.signature)
        if state.first_digest is None:
            state.first_digest = vdigest
            state.vertex = vertex
            self.on_first_val(vertex)
        elif state.first_digest != vdigest:
            state.conflicting.add(vdigest)
            if self.on_equivocation is not None:
                self.on_equivocation(origin, vertex.round, len(state.conflicting))
            if self._optimistic and not state.pessimistic:
                self._fall_back(origin, vertex.round, state, "conflict")
            return
        if self._prefix and msg.manifest is not None and state.manifest is None:
            self._try_accept_manifest(origin, vertex.round, state, msg.manifest)
        if msg.block is not None and state.block is None:
            block = msg.block
            if (
                block.proposer == origin
                and block.round == vertex.round
                and vertex.block_digest is not None
                and block.payload_digest() == vertex.block_digest
            ):
                state.block = block
        self._maybe_echo(origin, vertex.round, state)
        self._maybe_finish(origin, vertex.round, state)

    def _maybe_echo(self, origin: NodeId, round_: Round, state: VertexInstance) -> None:
        if state.echoed or state.vertex is None:
            return
        # Prefix mode: clan members echo on the vertex+manifest alone — the
        # whole point is that certification must not wait for the block tail.
        if self._prefix:
            if (
                state.vertex.block_chunks
                and self._serves_block(origin, round_)
                and state.manifest is None
            ):
                return
        else:
            needs_block = (
                state.vertex.block_digest is not None
                and self._serves_block(origin, round_)
            )
            if needs_block and state.block is None:
                return
        state.echoed = True
        if self.tracer.enabled:
            now = self.sim.now
            state.echo_at = now
            start = state.val_at if state.val_at is not None else now
            if state.ctx is not None:
                self.tracer.ctx_span(
                    "rbc.val_to_echo", start=start, ctx=state.ctx,
                    end=now, node=self.node_id, origin=origin, round=round_,
                )
            elif self.tracer.verbose:
                self.tracer.span(
                    "rbc.val_to_echo", start=start,
                    end=now, node=self.node_id, origin=origin, round=round_,
                )
        vdigest = state.first_digest
        signature = None
        if self.mode == "two-round":
            signature = self._key.sign(vertex_echo_statement(origin, round_, vdigest))
        echo = self._make_echo(origin, round_, vdigest, signature)
        # Quorum-phase broadcasts are stamped only at sample=1.0: in sampled
        # mode each stamp would route an n-wide broadcast down the traced
        # slow path per sampled vertex, and the causal tree is already
        # complete via the VAL/chunk propagation plus local phase spans.
        if state.ctx is not None and self.tracer.verbose:
            echo.trace_ctx = state.ctx
        self.network.broadcast(self.node_id, echo)

    def _on_echo(self, src: NodeId, msg: VertexEchoMsg) -> None:
        if self.mode == "two-round":
            if msg.signature is None or msg.signature.signer != src:
                return
            if self.verify:
                expected = vertex_echo_statement(msg.origin, msg.round, msg.vertex_digest)
                if msg.signature.message_digest != expected:
                    return
                if not self.pki.verify(msg.signature):
                    return
        # Inlined instance() hit path: ECHOes are the n²-per-round traffic,
        # and after the first one the instance always exists.
        state = self.instances.get((msg.origin, msg.round))
        if state is None:
            state = self.instance(msg.origin, msg.round)
        # get-then-create: setdefault would build and discard a set on every
        # one of the n³ ECHOes; only the first of an instance needs one.
        supporters = state.echoes.get(msg.vertex_digest)
        if supporters is None:
            supporters = state.echoes[msg.vertex_digest] = set()
        if src in supporters:
            return
        supporters.add(src)
        if state.clan is not None and src in state.clan:
            state.clan_echo_counts[msg.vertex_digest] = (
                state.clan_echo_counts.get(msg.vertex_digest, 0) + 1
            )
        if self.mode == "two-round":
            sigs = state.echo_sigs.get(msg.vertex_digest)
            if sigs is None:
                sigs = state.echo_sigs[msg.vertex_digest] = {}
            sigs[src] = msg.signature
            if state.cert_sent:
                return  # tally maintained, but the quorum already acted
        elif self._optimistic and not state.pessimistic:
            if not state.vertex_delivered and state.fallback_timer is None:
                self._arm_fallback(msg.origin, msg.round, state)
            if len(state.echoes) > 1 or state.conflicting:
                self._fall_back(msg.origin, msg.round, state, "conflict")
                return  # _fall_back replayed the quorum check per digest
        self._check_echo_quorum(msg.origin, msg.round, msg.vertex_digest, state)

    def _echo_quorum_met(
        self, origin: NodeId, state: VertexInstance, digest_: bytes
    ) -> bool:
        supporters = state.echoes.get(digest_)
        if not supporters or len(supporters) < self._quorum:
            return False
        clan = state.clan
        if clan is not None:
            clan_quorum = clan_response_quorum(len(clan))  # f_c + 1
            if state.clan_echo_counts.get(digest_, 0) < clan_quorum:
                return False
        return True

    def _check_echo_quorum(
        self, origin: NodeId, round_: Round, digest_: bytes, state: VertexInstance
    ) -> None:
        if self._optimistic and not state.pessimistic:
            # Fast path: all n parties echoed one digest with no conflict.
            # Every clan member echoed only after holding the block, and the
            # all-n set includes this node, so delivery needs no pull.
            if (
                not state.vertex_delivered
                and not state.conflicting
                and len(state.echoes) == 1
                and len(state.echoes.get(digest_, ())) == self.cfg.n
            ):
                self._complete(origin, round_, digest_, state)
            return
        if not self._echo_quorum_met(origin, state, digest_):
            return
        if self.mode == "two-round":
            if state.cert_sent:
                return
            state.cert_sent = True
            cert = build_certificate(list(state.echo_sigs[digest_].values()))
            cert_msg = VertexCertMsg(origin, round_, digest_, cert, self.cfg.n)
            if state.ctx is not None and self.tracer.verbose:
                cert_msg.trace_ctx = state.ctx
            self.network.broadcast(self.node_id, cert_msg)
            self._complete(origin, round_, digest_, state)
        else:
            if state.ready_digest is None:
                state.ready_digest = digest_
                ready = self._make_ready(origin, round_, digest_)
                if state.ctx is not None and self.tracer.verbose:
                    ready.trace_ctx = state.ctx
                self.network.broadcast(self.node_id, ready)
            # §5 optimization: clan members can start the block download at
            # ECHO-quorum time, before the READY quorum completes.
            self._prefetch_block(origin, round_, digest_, state)

    def _on_cert(self, src: NodeId, msg: VertexCertMsg) -> None:
        state = self.instances.get((msg.origin, msg.round))
        if state is None:
            state = self.instance(msg.origin, msg.round)
        if state.quorum_digest is not None:
            return
        if self.verify:
            clan = state.clan
            clan_quorum = clan_response_quorum(len(clan)) if clan is not None else 0
            if not verify_certificate(
                self.pki, msg.cert, self._quorum, clan, clan_quorum
            ):
                return
            expected = vertex_echo_statement(msg.origin, msg.round, msg.vertex_digest)
            if msg.cert.message_digest != expected:
                return
        if not state.cert_sent:
            state.cert_sent = True
            self.network.broadcast(self.node_id, msg)
        self._complete(msg.origin, msg.round, msg.vertex_digest, state)

    def _on_ready(self, src: NodeId, msg: VertexReadyMsg) -> None:
        if self.mode == "two-round":
            return
        state = self.instance(msg.origin, msg.round)
        if self._optimistic and not state.pessimistic and not state.vertex_delivered:
            # Someone already fell back; join its pessimistic quorum now
            # instead of waiting out the local fallback timer.
            self._fall_back(msg.origin, msg.round, state, "ready")
        if (
            self._optimistic
            and state.vertex_delivered
            and state.ready_digest is None
            and state.quorum_digest is not None
        ):
            # Totality: this node delivered on the fast path (no READY phase)
            # but a peer fell back and needs 2f+1 READYs.  Answer with the
            # delivered digest — every fast-path deliverer does, so the
            # laggard completes even if it was the only one to fall back.
            state.ready_digest = state.quorum_digest
            ready = self._make_ready(msg.origin, msg.round, state.quorum_digest)
            if state.ctx is not None and self.tracer.verbose:
                ready.trace_ctx = state.ctx
            self.network.broadcast(self.node_id, ready)
        supporters = state.readies.get(msg.vertex_digest)
        if supporters is None:
            supporters = state.readies[msg.vertex_digest] = set()
        if src in supporters:
            return
        supporters.add(src)
        count = len(supporters)
        if count >= self._amplify and state.ready_digest is None:
            state.ready_digest = msg.vertex_digest
            ready = self._make_ready(msg.origin, msg.round, msg.vertex_digest)
            if state.ctx is not None and self.tracer.verbose:
                ready.trace_ctx = state.ctx
            self.network.broadcast(self.node_id, ready)
        if count >= self._quorum:
            self._complete(msg.origin, msg.round, msg.vertex_digest, state)

    # -- completion -----------------------------------------------------------------

    def _complete(
        self, origin: NodeId, round_: Round, digest_: bytes, state: VertexInstance
    ) -> None:
        """The RBC quorum certified ``digest_``: deliver vertex, then block."""
        if state.quorum_digest is None:
            state.quorum_digest = digest_
        if state.vertex is None or state.vertex.vertex_digest() != digest_:
            # VAL still in flight (or equivocation shadow): pull the vertex
            # from any echoing party, off the critical path.
            holders = [p for p in state.echoes.get(digest_, ()) if p != self.node_id]
            if self.mode == "two-round" and not holders:
                holders = [origin]
            if holders:
                self._vertex_retriever.fetch(origin, round_, digest_, holders)
            return
        self._maybe_finish(origin, round_, state)

    def _maybe_finish(self, origin: NodeId, round_: Round, state: VertexInstance) -> None:
        if state.quorum_digest is None or state.vertex is None:
            return
        if state.vertex.vertex_digest() != state.quorum_digest:
            return
        if not state.vertex_delivered:
            state.vertex_delivered = True
            if self._optimistic:
                self._cancel_fallback(state)
                if state.pessimistic:
                    self.fallback_deliveries += 1
                else:
                    self.fast_deliveries += 1
            if self.tracer.enabled:
                now = self.sim.now
                tr = self.tracer
                start = state.echo_at
                if start is None:
                    start = state.val_at if state.val_at is not None else now
                e2e_start = state.val_at if state.val_at is not None else now
                if state.ctx is not None:
                    tr.ctx_span("rbc.echo_to_deliver", start=start, ctx=state.ctx,
                                end=now, node=self.node_id, origin=origin,
                                round=round_)
                    delivered = tr.ctx_span(
                        "rbc.e2e", start=e2e_start, ctx=state.ctx, end=now,
                        node=self.node_id, origin=origin, round=round_,
                    )
                    # Downstream stages on this node (DAG attach, ordering)
                    # parent under the local delivery span, giving the trace
                    # a per-node causal chain rather than a flat fan-out.
                    tr.bind(("vdeliv", round_, origin, self.node_id), delivered)
                elif tr.verbose:
                    tr.span("rbc.echo_to_deliver", start=start, end=now,
                            node=self.node_id, origin=origin, round=round_)
                    tr.span("rbc.e2e", start=e2e_start,
                            end=now, node=self.node_id, origin=origin, round=round_)
            self.on_vertex(state.vertex)
        if self._prefix:
            # Prefix mode: blocks reach the node through the certified-prefix
            # commit path (node.on_commit_block), never through on_block.
            return
        if state.vertex.block_digest is None or not self._serves_block(
            origin, round_
        ):
            return
        if state.block_delivered:
            return
        if state.block is not None:
            state.block_delivered = True
            if self.tracer.enabled:
                now = self.sim.now
                start = state.val_at if state.val_at is not None else now
                if state.ctx is not None:
                    self.tracer.ctx_span(
                        "rbc.block_e2e", start=start, ctx=state.ctx,
                        end=now, node=self.node_id, origin=origin, round=round_,
                    )
                elif self.tracer.verbose:
                    self.tracer.span(
                        "rbc.block_e2e", start=start,
                        end=now, node=self.node_id, origin=origin, round=round_,
                    )
            self.on_block(state.block)
        else:
            self._prefetch_block(origin, round_, state.quorum_digest, state)

    def _prefetch_block(
        self, origin: NodeId, round_: Round, digest_: bytes, state: VertexInstance
    ) -> None:
        """Pull the missing block from echoing clan members."""
        if self._prefix:
            return  # chunk pulls replace the whole-block plane
        if state.block is not None or state.block_delivered:
            return
        if state.vertex is None or state.vertex.block_digest is None:
            return
        if not self._serves_block(origin, round_):
            return
        cfg = self.schedule.cfg_at(round_)
        clan = cfg.clan(cfg.block_clan_of(origin))
        holders = [
            p
            for p in state.echoes.get(digest_, ())
            if p in clan and p != self.node_id
        ]
        if holders:
            self._block_retriever.fetch(
                origin, round_, state.vertex.block_digest, holders
            )

    def _on_pulled_block(self, origin: NodeId, round_: Round, block: Block) -> None:
        state = self.instance(origin, round_)
        if state.block is None:
            state.block = block
        self._maybe_echo(origin, round_, state)
        self._maybe_finish(origin, round_, state)

    def _on_pulled_vertex(self, origin: NodeId, round_: Round, vertex: Vertex) -> None:
        state = self.instance(origin, round_)
        vdigest = vertex.vertex_digest()
        if state.vertex is None:
            state.vertex = vertex
            state.first_digest = vdigest
            self.on_first_val(vertex)
        elif (
            state.quorum_digest == vdigest
            and state.vertex.vertex_digest() != vdigest
        ):
            # Equivocating proposer: the quorum certified a different vertex
            # than the VAL we saw first; the certified one is authoritative.
            state.conflicting.add(state.vertex.vertex_digest())
            if self.on_equivocation is not None:
                self.on_equivocation(origin, round_, len(state.conflicting))
            state.vertex = vertex
        self._maybe_finish(origin, round_, state)

    # -- optimistic fallback ----------------------------------------------------------

    def _arm_fallback(self, origin: NodeId, round_: Round, state: VertexInstance) -> None:
        if state.fallback_timer is not None:
            return
        state.fallback_timer = self.sim.schedule(
            self.fallback_timeout, self._on_fallback_timeout, origin, round_
        )

    def _cancel_fallback(self, state: VertexInstance) -> None:
        handle = state.fallback_timer
        if handle is not None:
            handle.cancel()
            state.fallback_timer = None

    def _on_fallback_timeout(self, origin: NodeId, round_: Round) -> None:
        state = self.instances.get((origin, round_))
        if state is None:
            return
        state.fallback_timer = None
        if state.vertex_delivered or state.pessimistic:
            return
        self._fall_back(origin, round_, state, "timeout")

    def _fall_back(
        self, origin: NodeId, round_: Round, state: VertexInstance, reason: str
    ) -> None:
        """Abandon the fast path for one instance; finish via READY quorum."""
        if state.pessimistic or state.vertex_delivered:
            return
        state.pessimistic = True
        self.fallbacks[reason] = self.fallbacks.get(reason, 0) + 1
        self._cancel_fallback(state)
        if self.tracer.enabled:
            self.tracer.counter(
                "rbc.fallback", node=self.node_id, origin=origin,
                round=round_, reason=reason, time=self.sim.now,
            )
        # Replay the quorum check per digest: 2f+1 may long be met while the
        # fast path was holding out for all n.
        for digest_ in sorted(state.echoes):
            self._check_echo_quorum(origin, round_, digest_, state)

    # -- prefix chunks ----------------------------------------------------------------

    def _try_accept_manifest(
        self, origin: NodeId, round_: Round, state: VertexInstance,
        manifest: ChunkManifest,
    ) -> bool:
        """Accept a manifest iff it matches the certified vertex's chunk root."""
        accepted = state.vertex
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
        if not self._prefix or src != msg.origin:
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
        self, origin: NodeId, round_: Round, state: VertexInstance
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

    def _notify_chunks(self, origin: NodeId, round_: Round, state: VertexInstance) -> None:
        key = (origin, round_)
        entry = self._chunk_fetch.get(key)
        if entry is not None and self._fetch_satisfied(state, entry["k"]):
            timer = entry["timer"]
            if timer is not None:
                timer.cancel()
            del self._chunk_fetch[key]
        if self.on_chunk is not None:
            self.on_chunk(origin, round_)

    def held_prefix(self, origin: NodeId, round_: Round) -> int:
        """Contiguous verified chunks held from index 0 (0 without manifest)."""
        state = self.instances.get((origin, round_))
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

    def prefix_parts(
        self, origin: NodeId, round_: Round
    ) -> tuple[ChunkManifest | None, dict[int, BlockChunk]]:
        """The manifest and verified chunks this node holds for an instance."""
        state = self.instances.get((origin, round_))
        if state is None:
            return None, {}
        return state.manifest, dict(state.chunks) if state.chunks else {}

    def _fetch_satisfied(self, state: VertexInstance, k: int) -> bool:
        if state.manifest is None:
            return False
        chunks = state.chunks
        if k and not chunks:
            return False
        return all(i in chunks for i in range(k)) if k else True

    def fetch_chunks(
        self, origin: NodeId, round_: Round, k: int, holders: list[NodeId]
    ) -> None:
        """Pull chunks [0, k) from ``holders`` (attesters of at least k)."""
        key = (origin, round_)
        state = self.instance(origin, round_)
        if self._fetch_satisfied(state, k):
            return
        entry = self._chunk_fetch.get(key)
        if entry is None:
            self._chunk_fetch[key] = {
                "k": k, "holders": list(holders), "next": 0,
                "timeout": self.retry_timeout, "timer": None,
            }
            self._request_chunks(key)
            return
        entry["k"] = max(entry["k"], k)
        for holder in holders:
            if holder not in entry["holders"]:
                entry["holders"].append(holder)

    def _request_chunks(self, key: Key) -> None:
        entry = self._chunk_fetch.get(key)
        if entry is None:
            return
        origin, round_ = key
        state = self.instance(origin, round_)
        if self._fetch_satisfied(state, entry["k"]) or not entry["holders"]:
            del self._chunk_fetch[key]
            return
        holders = entry["holders"]
        target = holders[entry["next"] % len(holders)]
        entry["next"] += 1
        chunks = state.chunks
        requested = False
        for index in range(entry["k"]):
            if chunks is None or index not in chunks:
                requested = True
                req = ChunkRequestMsg(origin, round_, index)
                if state.ctx is not None:
                    req.trace_ctx = state.ctx
                self.network.send(self.node_id, target, req)
        if not requested:
            # All k chunks held but the manifest is missing (bare-vertex
            # pull, or k=0): probe index 0 — responses carry the manifest.
            req = ChunkRequestMsg(origin, round_, 0)
            if state.ctx is not None:
                req.trace_ctx = state.ctx
            self.network.send(self.node_id, target, req)
        entry["timer"] = self.sim.schedule(entry["timeout"], self._request_chunks, key)
        entry["timeout"] = min(entry["timeout"] * 1.5, 30.0)

    def _on_chunk_request(self, src: NodeId, msg: ChunkRequestMsg) -> None:
        if not self._prefix:
            return
        mark = (msg.origin, msg.round, msg.index, src)
        if mark in self._chunk_served:
            return  # serve-once per (instance, index, requester)
        state = self.instances.get((msg.origin, msg.round))
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
        if not self._prefix:
            return
        state = self.instances.get((msg.origin, msg.round))
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

    def gc_below(self, round_: Round) -> None:
        """Garbage-collect retrieval state for instances with round < ``round_``.

        Called by the node as its commit frontier advances; pull-client
        entries (with their retry timers) and pull-server rate-limit records
        for long-committed rounds would otherwise accumulate forever."""
        self._block_retriever.gc_below(round_)
        self._vertex_retriever.gc_below(round_)
        self._block_responder.gc_below(round_)
        self._vertex_responder.gc_below(round_)
        for key in [k for k in self._chunk_fetch if k[1] < round_]:
            timer = self._chunk_fetch.pop(key)["timer"]
            if timer is not None:
                timer.cancel()
        self._chunk_served = {m for m in self._chunk_served if m[1] >= round_}

    def suspend_timers(self) -> None:
        """Crash: stop all local retry timers (no requests from the grave)."""
        self._block_retriever.suspend()
        self._vertex_retriever.suspend()
        if self._optimistic:
            for state in self.instances.values():
                self._cancel_fallback(state)
        for entry in self._chunk_fetch.values():
            if entry["timer"] is not None:
                entry["timer"].cancel()
                entry["timer"] = None

    def resume_timers(self) -> None:
        """Recovery: restart suspended pulls."""
        self._block_retriever.resume()
        self._vertex_retriever.resume()
        if self._optimistic:
            # A recovering node has no idea how long it was down; give up on
            # the fast path for every instance that was in flight.
            for key in sorted(self.instances):
                state = self.instances[key]
                if state.vertex_delivered or state.pessimistic:
                    continue
                if state.vertex is not None or state.echoes:
                    self._fall_back(key[0], key[1], state, "timeout")
        for key in sorted(self._chunk_fetch):
            if key in self._chunk_fetch:
                self._request_chunks(key)

    def _lookup_block(self, origin: NodeId, round_: Round) -> Block | None:
        state = self.instances.get((origin, round_))
        return state.block if state else None

    def _lookup_vertex(self, origin: NodeId, round_: Round) -> Vertex | None:
        state = self.instances.get((origin, round_))
        return state.vertex if state else None
