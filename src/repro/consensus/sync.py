"""Crash-recovery and lagging-node DAG catch-up.

A recovered node rejoins with a stale DAG: the tribe moved on while it was
down, and the RBC instances it missed will never re-run.  The synchronizer
closes the gap with the same pull pattern the RBC layer uses for missing
payloads (:mod:`repro.rbc.retrieval`):

1. **Detection** — every VAL observed by the node reports the proposer's
   round; when the observed frontier runs more than ``sync_gap_threshold``
   rounds ahead of the node's own round, the node enters catch-up mode (and
   stops proposing/voting for stale rounds).
2. **Pull** — batched ``SyncRequestMsg(from_round, to_round)`` requests go to
   one peer at a time, rotating deterministically with capped exponential
   backoff.  Responders answer from their *attached* DAG (vertices whose full
   causal history they hold) and attach block bodies for vertices whose clan
   the requester serves; responses are rate-limited per requester.
3. **Re-validation + replay** — pulled vertices are structurally validated
   (well-formed strong-edge quorum) and replayed through the node's ordinary
   delivery path, so vote counting, commit rules, and total ordering run
   exactly as they would have live; the committed prefix is therefore
   byte-identical to every other honest node's.
4. **Rejoin** — once the gap shrinks below the threshold the node
   fast-forwards to the frontier and resumes proposing in live rounds,
   without proposing for any skipped round.

Safety note: a vertex accepted here was RBC-delivered by the responder, not
by us.  Honest responders only serve non-equivocating, certified vertices,
and the store raises on digest conflicts; a production deployment would
additionally ship the RBC certificates (two-round mode has transferable ones)
— see ``docs/FAULTS.md``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..dag.block import Block
from ..dag.vertex import Vertex
from ..errors import ConsensusError
from ..net import sizes
from ..net.message import Message
from ..rbc.retrieval import MAX_RETRY_TIMEOUT
from ..types import NodeId, Round

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .node import SailfishNode


@dataclass(slots=True)
class SyncRequestMsg(Message):
    """Pull request for all attached vertices in ``[from_round, to_round]``."""

    from_round: Round
    to_round: Round

    def wire_size(self) -> int:
        return sizes.HEADER_SIZE


@dataclass(slots=True)
class SyncResponseMsg(Message):
    """Batch of attached vertices (+ blocks the requester's clan serves)."""

    from_round: Round
    to_round: Round
    vertices: tuple[Vertex, ...]
    blocks: tuple[Block, ...]

    def wire_size(self) -> int:
        size = sizes.HEADER_SIZE
        for vertex in self.vertices:
            size += vertex.wire_size()
        for block in self.blocks:
            size += block.wire_size()
        return size


class DagSynchronizer:
    """Per-node catch-up client and server."""

    #: Responses served per (requester, from_round) — allows one retry to hit
    #: the same responder without letting Byzantine requesters amplify.
    MAX_RESPONSES_PER_REQUEST = 2

    def __init__(
        self,
        node: "SailfishNode",
        gap_threshold: int = 5,
        batch_rounds: int = 20,
        retry_timeout: float = 0.5,
        enabled: bool = True,
    ) -> None:
        if gap_threshold < 1:
            raise ConsensusError("sync gap threshold must be at least 1")
        if batch_rounds < 1:
            raise ConsensusError("sync batch must cover at least one round")
        if retry_timeout <= 0:
            raise ConsensusError("sync retry timeout must be positive")
        self.node = node
        self.gap_threshold = gap_threshold
        self.batch_rounds = batch_rounds
        self.retry_timeout = retry_timeout
        self.enabled = enabled
        #: Highest vertex round observed in incoming dissemination traffic.
        self.highest_seen: Round = 0
        self.catching_up = False
        #: Monotone cache of the attached-quorum frontier (see _frontier).
        self._frontier_cache: Round = 0
        self._timer = None
        self._timeout = retry_timeout
        self._next_peer = 0
        #: Rate-limit state for the responder side.
        self._served: dict[tuple[NodeId, Round], int] = {}
        # Stats (inspection + chaos reports).
        self.syncs_started = 0
        self.vertices_pulled = 0
        self.blocks_pulled = 0

    # -- detection ----------------------------------------------------------------

    def observe(self, round_: Round) -> None:
        """Feed the round of an incoming vertex; may trigger catch-up."""
        if round_ > self.highest_seen:
            self.highest_seen = round_
        if not self.enabled or self.catching_up:
            return
        if self.highest_seen > self.node.round + self.gap_threshold:
            self._begin()

    def _begin(self) -> None:
        self.catching_up = True
        self.syncs_started += 1
        node = self.node
        node._timer.cancel()  # no stale-round no-votes while catching up
        if node.tracer.enabled:
            node.tracer.counter(
                "sync.begin", node=node.node_id, round=node.round,
                target=self.highest_seen,
            )
        self._timeout = self.retry_timeout
        self._request_batch()

    # -- frontier -----------------------------------------------------------------

    def _frontier(self) -> Round:
        """Highest round with a quorum of *attached* vertices.

        Monotone scan: a round-r vertex attaches only after its ≥ quorum
        round-(r-1) strong parents attached, so quorum-completeness can only
        break once — scan upward from the cached value."""
        store = self.node.store
        quorum = self.node.cfg.quorum
        r = self._frontier_cache
        while store.num_in_round(r + 1) >= quorum:
            r += 1
        self._frontier_cache = r
        return r

    # -- pull client --------------------------------------------------------------

    def _request_batch(self) -> None:
        node = self.node
        if node.network.is_crashed(node.node_id):
            return  # suspended; on_recover re-issues
        frontier = self._frontier()
        from_round = frontier + 1
        to_round = min(from_round + self.batch_rounds - 1, self.highest_seen)
        peer = self._pick_peer()
        node.network.send(
            node.node_id, peer, SyncRequestMsg(from_round, to_round)
        )
        self._timer = node.sim.schedule(self._timeout, self._on_retry)
        self._timeout = min(self._timeout * 2.0, MAX_RETRY_TIMEOUT)

    def _pick_peer(self) -> NodeId:
        node = self.node
        n = node.cfg.n
        peer = self._next_peer % n
        if peer == node.node_id:
            peer = (peer + 1) % n
        self._next_peer = peer + 1
        return peer

    def _on_retry(self) -> None:
        self._timer = None
        if self.catching_up:
            self._request_batch()

    def on_response(self, src: NodeId, msg: SyncResponseMsg) -> None:
        node = self.node
        applied = 0
        for vertex in msg.vertices:
            if not self._valid(vertex):
                continue
            if node.store.contains_key(vertex.round, vertex.source):
                continue
            node.ingest_synced_vertex(vertex)
            applied += 1
        self.vertices_pulled += applied
        for block in msg.blocks:
            digest = block.payload_digest()
            if digest not in node.blocks:
                node.blocks[digest] = block
                self.blocks_pulled += 1
                if node.on_block_ready is not None:
                    node.on_block_ready(node, block)
        if not self.catching_up:
            return  # late response after rejoin: vertices absorbed, that's all
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if node.tracer.enabled:
            node.tracer.counter(
                "sync.batch", node=node.node_id, src=src, applied=applied,
                frontier=self._frontier(),
            )
        if self.highest_seen - self._frontier() <= self.gap_threshold:
            self._finish()
        else:
            # Progress resets the backoff; a dry batch keeps backing off so a
            # Byzantine or stale responder cannot pin us to one peer.
            if applied:
                self._timeout = self.retry_timeout
            self._request_batch()

    def _valid(self, vertex: Vertex) -> bool:
        """Structural re-validation of a pulled vertex."""
        if vertex.round < 1:
            return False
        if not 0 <= vertex.source < self.node.cfg.n:
            return False
        if vertex.round > 1 and len(vertex.strong_edges) < self.node.cfg.quorum:
            return False
        return True

    def _finish(self) -> None:
        self.catching_up = False
        node = self.node
        if node.tracer.enabled:
            node.tracer.counter(
                "sync.done", node=node.node_id, frontier=self._frontier(),
                pulled=self.vertices_pulled,
            )
        node.rejoin(self._frontier())

    # -- pull server --------------------------------------------------------------

    def on_request(self, src: NodeId, msg: SyncRequestMsg) -> None:
        node = self.node
        if src == node.node_id:
            return
        from_round = max(1, msg.from_round)
        # Clamp the span so a Byzantine requester cannot demand the world.
        to_round = min(msg.to_round, from_round + self.batch_rounds - 1)
        if to_round < from_round:
            return
        key = (src, from_round)
        served = self._served.get(key, 0)
        if served >= self.MAX_RESPONSES_PER_REQUEST:
            return
        vertices: list[Vertex] = []
        blocks: list[Block] = []
        cfg_of = node.clan_schedule.cfg_at
        for round_ in range(from_round, to_round + 1):
            for vertex in sorted(
                node.store.round_vertices(round_), key=lambda v: v.source
            ):
                vertices.append(vertex)
                if vertex.block_digest is None:
                    continue
                cfg = cfg_of(vertex.round)
                proposer_clan = cfg.clan_index_of(vertex.source)
                if proposer_clan is None or cfg.clan_index_of(src) != proposer_clan:
                    continue  # the requester does not serve this clan's blocks
                block = node.blocks.get(vertex.block_digest)
                if block is not None:
                    blocks.append(block)
        if not vertices:
            return
        self._served[key] = served + 1
        node.network.send(
            node.node_id,
            src,
            SyncResponseMsg(from_round, to_round, tuple(vertices), tuple(blocks)),
        )

    # -- lifecycle ----------------------------------------------------------------

    def suspend(self) -> None:
        """Crash: stop the retry timer; catch-up state persists."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def on_recover(self) -> None:
        """Recovery: resume an interrupted catch-up, if any.

        A *new* gap (rounds missed while down) is detected organically from
        the first live VALs that arrive after recovery."""
        if self.catching_up:
            self._timeout = self.retry_timeout
            self._request_batch()

    def gc_below(self, round_: Round) -> None:
        """Drop responder rate-limit records for old request windows."""
        stale = [key for key in self._served if key[1] < round_]
        for key in stale:
            del self._served[key]
