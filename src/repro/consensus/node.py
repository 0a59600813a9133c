"""The Sailfish-style consensus node.

One implementation serves all three protocols of the paper; the
:class:`~repro.committees.ClanConfig` decides who proposes blocks and where
they are disseminated.  The consensus rules are Sailfish's:

* Every party proposes one vertex per round via the merged RBC.
* A round-r vertex strong-references all delivered round-(r-1) vertices
  (≥ 2f+1), and weak-references uncovered older vertices.
* **Voting**: a round-(r+1) vertex whose strong edges include the round-r
  leader vertex is a vote for it.  Votes are counted from the *first
  dissemination message* (VAL), giving the 1-RBC + 1δ commit latency.
* **Commit**: 2f+1 votes + the leader vertex delivered → direct commit;
  earlier uncommitted leaders commit indirectly when a strong path from the
  newly committed leader reaches them.
* **No-votes**: a party that times out waiting for the round-r leader vertex
  multicasts a signed no-vote and withholds its strong edge to that leader;
  2f+1 no-votes form the NVC the round-(r+1) leader embeds instead of a
  leader edge.
* **Total order**: committed leaders, in round order, each append their
  not-yet-ordered causal history deterministically.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Callable

from ..committees.config import ClanConfig
from ..crypto.certificates import build_certificate, verify_certificate
from ..crypto.signatures import Pki
from ..dag.block import Block
from ..dag.ordering import OrderingEngine
from ..dag.store import DagStore
from ..dag.vertex import Vertex, VertexRef
from ..errors import ConsensusError
from ..net.network import Network
from ..rbc.prefix import split_block
from ..sim.rng import make_rng
from ..sim.scheduler import Simulator
from ..sim.timers import Timer
from ..types import NodeId, Round
from .leader import LeaderSchedule
from .messages import NoVoteCertificate, NoVoteMsg, no_vote_statement
from .params import ProtocolParams
from .sync import DagSynchronizer, SyncRequestMsg, SyncResponseMsg
from .vertex_rbc import VertexRbc

#: Hook invoked for each newly ordered vertex: (node, vertex, time).
OrderedHook = Callable[["SailfishNode", Vertex, float], None]


class SailfishNode:
    """One party of the tribe."""

    def __init__(
        self,
        node_id: NodeId,
        clan_cfg: ClanConfig,
        network: Network,
        sim: Simulator,
        pki: Pki,
        schedule: LeaderSchedule,
        params: ProtocolParams,
        commits,
        make_block: Callable[[NodeId, Round, float], Block | None] | None = None,
        clan_schedule=None,
    ) -> None:
        self.node_id = node_id
        self.cfg = clan_cfg
        if clan_schedule is None:
            from ..committees.rotation import StaticSchedule

            clan_schedule = StaticSchedule(clan_cfg)
        self.clan_schedule = clan_schedule
        self.network = network
        self.sim = sim
        self.pki = pki
        self.schedule = schedule
        self.params = params
        #: The deployment's commit record (a
        #: :class:`~repro.consensus.oracle.PrefixOracle`), shared by every
        #: node: ``_commit_chain`` records each ordered vertex there.
        self.commits = commits
        self.make_block = make_block
        self.on_ordered: OrderedHook | None = None
        self.on_block_ready: Callable[["SailfishNode", Block], None] | None = None
        #: Hook invoked on every round entry: (node, round, time).  Used by
        #: the forensics stall watchdog; never scheduled, so attaching it
        #: cannot perturb the simulation.
        self.on_round: Callable[["SailfishNode", Round, float], None] | None = None
        self.tracer = network.tracer
        self._round_entered_at: float | None = None

        #: Sparse-edge mode (Clownfish-style): non-leader vertices reference
        #: only the previous leader plus a deterministic sample of targets.
        self._sparse = params.edge_mode == "sparse"
        self._fanout = params.fanout_for(clan_cfg.n)

        self.store = DagStore(clan_cfg.n)
        self.ordering = OrderingEngine(self.store)
        self.rbc = VertexRbc(
            node_id,
            clan_cfg,
            network,
            sim,
            pki,
            on_first_val=self._on_first_val,
            on_vertex=self._on_vertex_delivered,
            on_block=self._on_block_delivered,
            mode=params.rbc_mode,
            verify_signatures=params.verify_signatures,
            fallback_timeout=params.fallback_timeout,
            schedule=clan_schedule,
            tracer=self.tracer,
        )

        # Prefix mode (Raptr-style certified-prefix commits): chunked
        # vertices awaiting their attestation window, commit-decision hooks,
        # and counters.  Decided prefixes still owed are the RBC's
        # (ChunkedPrefixRbc.fetch_prefix).
        self._prefix = params.rbc_mode == "prefix"
        #: (round, source) -> {"vertex", "votes": {attester: held}}.
        self._prefix_pending: dict[tuple[Round, NodeId], dict] = {}
        #: Execution feed: (node, key, block) fired at prefix-commit decision
        #: time — in prefix mode blocks NEVER reach the executor through
        #: on_block_ready, only through this hook, so every clan member
        #: executes the identical decided prefix.
        self.on_commit_block: Callable[["SailfishNode", bytes, Block], None] | None = None
        #: Forensics hook: (node, vertex, committed_chunks) per decision.
        self.on_prefix: Callable[["SailfishNode", Vertex, int], None] | None = None
        self.prefix_commits = 0
        self.prefix_truncated = 0
        self.prefix_chunks_committed = 0
        self.prefix_chunks_dropped = 0

        self.round: Round = 0
        self.started = False
        #: Votes per leader round: bitmask of voting vertex sources.
        self.votes: dict[Round, int] = {}
        #: No-vote signatures collected per round.
        self.no_votes: dict[Round, dict[NodeId, object]] = defaultdict(dict)
        self.no_voted: set[Round] = set()
        self.timeout_fired: set[Round] = set()
        self.last_committed_round: Round = 0
        self.committed_leaders: list[Vertex] = []
        #: Blocks available locally, by digest (clan duty).
        self.blocks: dict[bytes, Block] = {}
        self._timer = Timer(sim, params.leader_timeout, self._on_timeout)
        self._proposed: set[Round] = set()
        #: Validity of attached leader vertices (leader-edge-or-NVC rule).
        self._leader_valid: dict[Round, bool] = {}
        #: Crash-recovery/lagging-node catch-up (see repro.consensus.sync).
        self.sync = DagSynchronizer(
            self,
            gap_threshold=params.sync_gap_threshold,
            batch_rounds=params.sync_batch_rounds,
            retry_timeout=params.sync_retry_timeout,
            enabled=params.catchup,
        )
        #: Fail-stop flag mirroring the network's view; guards every timer-
        #: and schedule-driven action so a crashed node cannot keep acting
        #: from beyond the grave.
        self._crashed_local = False
        network.register(node_id, self._on_message)
        # Fast-path dispatch: the raw Network (not the reliable-transport
        # adapter, which must see every message to run its ack protocol)
        # jumps straight to the per-type handler, skipping _on_message's
        # isinstance chain.  Must cover exactly what _on_message handles.
        set_dispatch = getattr(network, "set_dispatch", None)
        if set_dispatch is not None:
            table = self.rbc.dispatch_table()
            table[NoVoteMsg] = self._on_no_vote
            table[SyncRequestMsg] = self.sync.on_request
            table[SyncResponseMsg] = self.sync.on_response
            set_dispatch(node_id, table)
        if hasattr(network, "on_lifecycle"):
            network.on_lifecycle(node_id, self._on_crash, self._on_recover)

    # -- lifecycle ----------------------------------------------------------------

    def start(self) -> None:
        """Enter round 1 and propose the first vertex."""
        if self.started:
            raise ConsensusError("node already started")
        self.started = True
        self._enter_round(1)

    def _enter_round(self, round_: Round, propose: bool = True) -> None:
        # Round spans are aggregate-only instrumentation: verbose mode.
        if self.tracer.verbose:
            now = self.sim.now
            if self._round_entered_at is not None and round_ > 1:
                self.tracer.span(
                    "consensus.round", start=self._round_entered_at, end=now,
                    node=self.node_id, round=round_ - 1,
                )
            self._round_entered_at = now
        self.round = round_
        if self.on_round is not None:
            self.on_round(self, round_, self.sim.now)
        if self.params.max_rounds and round_ > self.params.max_rounds:
            self._timer.cancel()
            return
        self._timer.start(self.params.leader_timeout)
        if propose:
            self._propose(round_)

    # -- proposing ------------------------------------------------------------------

    def _propose(self, round_: Round) -> None:
        if round_ in self._proposed or self._crashed_local:
            return
        self._proposed.add(round_)
        strong = self._strong_edges(round_)
        # Sparse mode trims a quorum's worth of delivered vertices down to
        # the fan-out, so the per-vertex floor drops with it; _try_advance
        # still gates round entry on a full quorum of deliveries.
        required = self.cfg.quorum
        if self._sparse and self.schedule.leader(round_) != self.node_id:
            required = min(required, self._fanout)
        if round_ > 1 and len(strong) < required:
            raise ConsensusError(
                f"node {self.node_id} proposing round {round_} with "
                f"{len(strong)} strong edges < required {required}"
            )
        weak = tuple(
            v.ref()
            for v in sorted(
                self.store.uncovered_before(round_ - 1), key=lambda v: v.key
            )
        )
        nvc = self._leader_nvc(round_, strong)
        block = None
        round_cfg = self.clan_schedule.cfg_at(round_)
        if round_cfg.is_block_proposer(self.node_id) and self.make_block is not None:
            block = self.make_block(self.node_id, round_, self.sim.now)
        num_chunks = 0
        chunk_root = None
        if self._prefix and block is not None:
            # split_block clamps the chunk count for small blocks; the vertex
            # must carry the actual count so peers re-split identically.
            manifest, _ = split_block(block, self.params.block_chunks)
            num_chunks = manifest.num_chunks
            chunk_root = manifest.manifest_digest()
        vertex = Vertex(
            round=round_,
            source=self.node_id,
            block_digest=block.payload_digest() if block is not None else None,
            strong_edges=strong,
            weak_edges=weak,
            nvc=nvc,
            block_chunks=num_chunks,
            chunk_root=chunk_root,
            prefix_votes=self._prefix_votes(strong + weak) if self._prefix else (),
        )
        if block is not None:
            self.blocks[vertex.block_digest] = block
        self.rbc.broadcast(vertex, block)

    def _strong_edges(self, round_: Round) -> tuple[VertexRef, ...]:
        prev = round_ - 1
        vertices = self.store.round_vertices(prev)
        leader = self.schedule.leader(prev) if prev >= 1 else None
        if leader is not None:
            drop_leader = False
            if not self._leader_vertex_valid(prev):
                # Never reference (vote for) an invalid leader vertex.
                drop_leader = True
            elif prev in self.no_voted and self.schedule.leader(round_) != self.node_id:
                # A no-voter promised not to vote: drop the leader edge even
                # if the leader vertex arrived after the timeout.  Exception:
                # the round-`round_` leader may reference it — its own no-vote
                # can only ever appear in the NVC that it alone consumes, so
                # the NVC/commit intersection argument is unaffected, and the
                # exception restores liveness when the NVC cannot form.
                drop_leader = True
            if drop_leader:
                vertices = [v for v in vertices if v.source != leader]
                leader = None
        if (
            self._sparse
            and round_ > 1
            and len(vertices) > self._fanout
            and self.schedule.leader(round_) != self.node_id
        ):
            # Leader vertices keep full edges: the leader chain is the
            # deterministic backbone the indirect-commit walk rides (each
            # leader's full edge set includes the previous usable leader).
            vertices = self._sparse_select(round_, vertices, leader)
        return tuple(v.ref() for v in sorted(vertices, key=lambda v: v.source))

    def _sparse_select(
        self, round_: Round, vertices: list[Vertex], leader: NodeId | None
    ) -> list[Vertex]:
        """Pick ``edge_fanout`` strong targets deterministically.

        The preference order is a per-(round, proposer) permutation drawn
        from the shared leader-schedule RNG stream, so any replica can
        recompute (and audit) the choice; the usable leader vertex is always
        kept — dropping it would drop this proposer's vote.
        """
        rng = make_rng(
            self.schedule.seed, "sparse-edges", round_, self.node_id, shared=True
        )
        order = list(range(self.cfg.n))
        rng.shuffle(order)
        rank = {source: i for i, source in enumerate(order)}
        keep = sorted(vertices, key=lambda v: rank[v.source])[: self._fanout]
        if leader is not None and all(v.source != leader for v in keep):
            for v in vertices:
                if v.source == leader:
                    keep[-1] = v
                    break
        return keep

    def _leader_vertex_valid(self, round_: Round) -> bool:
        """Is the attached round-``round_`` leader vertex vote-eligible?

        A leader vertex must either strong-reference the previous leader
        vertex or carry a verifiable NVC for the previous round (§5/Fig. 4).
        Returns False when the leader vertex is not attached yet.
        """
        cached = self._leader_valid.get(round_)
        if cached is not None:
            return cached
        vertex = self.store.get(round_, self.schedule.leader(round_))
        if vertex is None:
            return False
        valid = self._validate_leader_vertex(vertex)
        self._leader_valid[round_] = valid
        return valid

    def _validate_leader_vertex(self, vertex: Vertex) -> bool:
        if vertex.round <= 1:
            return True
        prev = vertex.round - 1
        prev_leader = self.schedule.leader(prev)
        if any(ref.source == prev_leader for ref in vertex.strong_edges):
            return True
        nvc = vertex.nvc
        if not isinstance(nvc, NoVoteCertificate) or nvc.round != prev:
            return False
        if not self.params.verify_signatures:
            return nvc.signers.bit_count() >= self.cfg.quorum
        return (
            nvc.cert.message_digest == no_vote_statement(prev)
            and verify_certificate(self.pki, nvc.cert, self.cfg.quorum)
        )

    def _leader_nvc(
        self, round_: Round, strong: tuple[VertexRef, ...]
    ) -> NoVoteCertificate | None:
        """The NVC a leader must embed when skipping the previous leader."""
        if round_ < 2 or self.schedule.leader(round_) != self.node_id:
            return None
        prev = round_ - 1
        prev_leader = self.schedule.leader(prev)
        if any(ref.source == prev_leader for ref in strong):
            return None
        sigs = list(self.no_votes[prev].values())
        if len(sigs) < self.cfg.quorum:
            raise ConsensusError(
                f"leader {self.node_id} lacks NVC for round {prev}"
            )
        return NoVoteCertificate(prev, build_certificate(sigs[: self.cfg.quorum]))

    # -- message handling -----------------------------------------------------------

    def _on_message(self, src: NodeId, msg: object) -> None:
        if self.rbc.on_message(src, msg):
            return
        if isinstance(msg, NoVoteMsg):
            self._on_no_vote(src, msg)
        elif isinstance(msg, SyncRequestMsg):
            self.sync.on_request(src, msg)
        elif isinstance(msg, SyncResponseMsg):
            self.sync.on_response(src, msg)

    def _on_no_vote(self, src: NodeId, msg: NoVoteMsg) -> None:
        if msg.signature.signer != src:
            return
        if self.params.verify_signatures:
            if msg.signature.message_digest != no_vote_statement(msg.round):
                return
            if not self.pki.verify(msg.signature):
                return
        self.no_votes[msg.round][src] = msg.signature
        self._try_advance()

    # -- voting and commit -------------------------------------------------------------

    def _on_first_val(self, vertex: Vertex) -> None:
        """Count Sailfish votes from the first dissemination message."""
        self._count_vote(vertex)
        # Every VAL reports its proposer's round: the cheapest lag signal.
        self.sync.observe(vertex.round)

    def _count_vote(self, vertex: Vertex) -> None:
        prev = vertex.round - 1
        if prev < 1:
            return
        leader = self.schedule.leader(prev)
        # Plain loop rather than any(<genexpr>): this runs for every vertex
        # from every peer, and the generator frame is measurable there.
        for ref in vertex.strong_edges:
            if ref.source == leader and ref.round == prev:
                break
        else:
            return
        voters = self.votes.get(prev, 0)
        bit = 1 << vertex.source
        if not voters & bit:
            voters |= bit
            self.votes[prev] = voters
            if voters.bit_count() >= self.cfg.quorum:
                self._try_commit(prev)

    def _on_vertex_delivered(self, vertex: Vertex) -> None:
        attached = self.store.add(vertex)
        if self.tracer.enabled and attached:
            tr = self.tracer
            now = self.sim.now
            for v in attached:
                # Child of this node's RBC delivery span when the vertex was
                # sampled (falling back to the trace root for vertices that
                # attached from the buffer, whose delivery predates binding).
                ctx = tr.ctx(("vdeliv", v.round, v.source, self.node_id))
                if ctx is None:
                    ctx = tr.ctx(("vertex", v.round, v.source))
                if ctx is not None:
                    tr.ctx_span(
                        "dag.attach", start=now, ctx=ctx, end=now,
                        node=self.node_id, round=v.round, source=v.source,
                    )
        for v in attached:
            self._count_vote(v)
            if v.round >= 1 and self.schedule.leader(v.round) == v.source:
                # A leader vertex arriving can complete a pending commit.
                if self.votes.get(v.round, 0).bit_count() >= self.cfg.quorum:
                    self._try_commit(v.round)
        self._try_advance()

    def _try_commit(self, round_: Round) -> None:
        if round_ <= self.last_committed_round:
            return
        leader = self.schedule.leader(round_)
        leader_vertex = self.store.get(round_, leader)
        if leader_vertex is None:
            return  # commit completes when the leader vertex attaches
        if not self._leader_vertex_valid(round_):
            return
        if self.votes.get(round_, 0).bit_count() < self.cfg.quorum:
            return
        self._commit_chain(leader_vertex)

    def _commit_chain(self, anchor: Vertex) -> None:
        """Direct-commit ``anchor``; indirect-commit reachable skipped leaders."""
        chain = [anchor]
        current = anchor
        # Compensating commit rule for sparse edges: strong paths alone no
        # longer guarantee a later anchor reaches an earlier direct-committed
        # leader (the fan-out breaks quorum intersection), so the indirect
        # walk accepts any-edge routes — still a pure property of the
        # anchor's frozen ancestry, hence identical on every honest replica.
        reaches = (
            self.store.path_exists if self._sparse else self.store.strong_path_exists
        )
        for round_ in range(anchor.round - 1, self.last_committed_round, -1):
            candidate = self.store.get(round_, self.schedule.leader(round_))
            if (
                candidate is not None
                and self._leader_vertex_valid(round_)
                and reaches(current, candidate)
            ):
                chain.append(candidate)
                current = candidate
        now = self.sim.now
        record = self.commits.record
        ordered: list[Vertex] = []
        for leader_vertex in reversed(chain):
            newly = self.ordering.order_leader(leader_vertex)
            self.committed_leaders.append(leader_vertex)
            ordered += newly
            for vertex in newly:
                record(self.node_id, vertex, now)
                if self.on_ordered is not None:
                    self.on_ordered(self, vertex, now)
                if self._prefix:
                    self._prefix_track(vertex)
        if self.tracer.enabled:
            verbose = self.tracer.verbose
            if verbose:
                self.tracer.counter(
                    "consensus.commit", node=self.node_id, time=now,
                    anchor_round=anchor.round, depth=len(chain),
                    ordered=len(ordered),
                )
            # Per-block ordering events feed the forensics critical path:
            # when did *this node* place each block into the total order?
            # Sampled mode keeps them only for vertices on a sampled trace.
            for vertex in ordered:
                ctx = self.tracer.ctx(
                    ("vdeliv", vertex.round, vertex.source, self.node_id)
                )
                if ctx is None:
                    ctx = self.tracer.ctx(("vertex", vertex.round, vertex.source))
                if ctx is not None:
                    self.tracer.ctx_span(
                        "consensus.order", start=now, ctx=ctx, end=now,
                        node=self.node_id, round=vertex.round,
                        source=vertex.source, anchor_round=anchor.round,
                    )
                if vertex.block_digest is not None and (
                    verbose or ctx is not None
                ):
                    self.tracer.counter(
                        "consensus.ordered", node=self.node_id, time=now,
                        round=vertex.round, source=vertex.source,
                        digest=vertex.block_digest.hex(),
                    )
        self.last_committed_round = anchor.round
        if self.params.gc_depth:
            # Retrieval/sync bookkeeping for rounds far behind the commit
            # frontier is dead weight (the margin keeps off-critical-path
            # block pulls for recently committed rounds alive).
            floor = anchor.round - self.params.gc_depth
            if floor > 0:
                self.rbc.gc_below(floor)
                self.sync.gc_below(floor)
                self.store.prune_reach_below(floor)

    # -- round advancement ----------------------------------------------------------------

    def _on_timeout(self) -> None:
        if self._crashed_local or self.sync.catching_up:
            return  # defensive: these states cancel the timer on entry
        round_ = self.round
        self.timeout_fired.add(round_)
        if not self._leader_vertex_valid(round_) and round_ not in self.no_voted:
            # No usable leader vertex (missing or invalid): complain.
            self.no_voted.add(round_)
            signature = self.pki.key(self.node_id).sign(no_vote_statement(round_))
            self.network.broadcast(self.node_id, NoVoteMsg(round_, signature))
        self._try_advance()

    def _try_advance(self) -> None:
        if not self.started or self._crashed_local or self.sync.catching_up:
            return
        round_ = self.round
        if self.params.max_rounds and round_ >= self.params.max_rounds:
            return
        delivered = self.store.round_vertices(round_)
        leader = self.schedule.leader(round_)
        next_round = round_ + 1
        i_lead_next = self.schedule.leader(next_round) == self.node_id
        have_leader = any(v.source == leader for v in delivered)
        leader_usable = have_leader and self._leader_vertex_valid(round_)
        if leader_usable and round_ in self.no_voted and not i_lead_next:
            leader_usable = False  # no-vote promise: we will not reference it
        usable = len(delivered)
        if have_leader and not leader_usable:
            usable -= 1  # our next vertex will not reference the leader
        if usable < self.cfg.quorum:
            return
        if not leader_usable and round_ not in self.timeout_fired:
            return  # wait for the (valid) leader vertex or the timeout
        if i_lead_next and not leader_usable:
            if len(self.no_votes[round_]) < self.cfg.quorum:
                return  # the next leader needs the leader edge or an NVC
        self._timer.cancel()
        self._enter_round(next_round)

    # -- crash/recovery -----------------------------------------------------------------

    def _on_crash(self) -> None:
        """Fail-stop: freeze every node-local timer.

        Without this, leader timers and pull retries keep firing while the
        node is 'down', mutating its no-vote and round state so that on
        recovery it acts on rounds it never legitimately observed."""
        self._crashed_local = True
        self._timer.cancel()
        self.rbc.suspend_timers()
        self.sync.suspend()

    def _on_recover(self) -> None:
        """Rejoin with persisted (stale) state; catch-up closes the gap."""
        self._crashed_local = False
        if not self.started:
            return
        self.rbc.resume_timers()
        self.sync.on_recover()
        if self.sync.catching_up:
            return  # rejoin() restarts the timer once caught up
        if not (self.params.max_rounds and self.round > self.params.max_rounds):
            self._timer.start(self.params.leader_timeout)
        self._try_advance()

    def ingest_synced_vertex(self, vertex: Vertex) -> None:
        """Replay a pulled vertex through the ordinary delivery path, so vote
        counting, commits, and ordering are identical to a live delivery."""
        self._on_vertex_delivered(vertex)

    def rejoin(self, frontier: Round) -> None:
        """Fast-forward into live rounds after catch-up.

        Jumps straight to ``frontier + 1`` without proposing for any skipped
        round (stale-round vertices would only bloat peers' DAGs)."""
        next_round = frontier + 1
        if next_round <= self.round:
            # The gap closed behind our current round: resume in place.
            if not (self.params.max_rounds and self.round > self.params.max_rounds):
                self._timer.start(self.params.leader_timeout)
            self._try_advance()
            return
        propose = True
        if self.schedule.leader(next_round) == self.node_id:
            # A leader vertex needs the previous leader edge or an NVC; a
            # freshly recovered leader may hold neither — skip proposing
            # rather than emit an invalid vertex (the tribe no-votes us).
            prev_leader = self.schedule.leader(frontier)
            strong = self._strong_edges(next_round)
            if (
                not any(ref.source == prev_leader for ref in strong)
                and len(self.no_votes[frontier]) < self.cfg.quorum
            ):
                propose = False
        self._enter_round(next_round, propose=propose)
        self._try_advance()

    # -- prefix commits (rbc_mode="prefix") ----------------------------------------------
    #
    # Certified-prefix ordering: a chunked vertex certifies only metadata;
    # round-(r+1) clan members attest (via ``prefix_votes``) how much of the
    # block they hold, and the commit rule orders the longest prefix that a
    # clan quorum of attesters provably holds.  Every decision input is read
    # from the ordered log, which is identical on all honest nodes — so the
    # decided prefix length k is identical everywhere without extra messages.

    def _prefix_votes(self, edges: tuple[VertexRef, ...]) -> tuple[tuple[NodeId, int], ...]:
        """Attestations for partially-held chunked edge targets.

        Covers strong AND weak edges: an orphaned chunked vertex (ordered
        only through weak references) still needs attesters.  An omitted
        entry means "I hold the full block", so the common case (everything
        arrived) costs zero bytes."""
        votes = []
        for ref in edges:
            target = self.store.get(ref.round, ref.source)
            if target is None or not target.block_chunks:
                continue
            round_cfg = self.clan_schedule.cfg_at(ref.round)
            clan = round_cfg.clan(round_cfg.block_clan_of(target.source))
            if self.node_id not in clan:
                continue  # chunks go to the clan; outsiders cannot attest
            held = self.rbc.held_prefix(ref.source, ref.round)
            if held < target.block_chunks:
                votes.append((ref.source, held))
        return tuple(votes)

    def _prefix_track(self, vertex: Vertex) -> None:
        """Feed one newly ordered vertex through the prefix state machine."""
        # 1. Accumulate attestations from every edge (strong edges carry the
        #    common r+1 votes; weak edges attest orphaned vertices that were
        #    skipped by the next round and ordered late).
        if self._prefix_pending:
            pv = dict(vertex.prefix_votes)
            for ref in vertex.parents():
                entry = self._prefix_pending.get((ref.round, ref.source))
                if entry is None:
                    continue
                target = entry["vertex"]
                round_cfg = self.clan_schedule.cfg_at(ref.round)
                clan = round_cfg.clan(round_cfg.block_clan_of(target.source))
                if vertex.source not in clan:
                    continue
                held = min(pv.get(ref.source, target.block_chunks), target.block_chunks)
                entry["votes"].setdefault(vertex.source, held)
        # 2. Decide: the first ordered vertex two rounds past a chunked
        #    vertex closes its attestation window (after its own votes above
        #    were counted — a weak edge from the sentinel itself may be an
        #    orphan's only attestation).  The trigger is a position in the
        #    ordered log (not a local commit batch), so all honest nodes
        #    decide with the same attester set.
        if self._prefix_pending:
            due = sorted(
                k for k in self._prefix_pending if vertex.round >= k[0] + 2
            )
            for key in due:
                self._prefix_decide(key, self._prefix_pending.pop(key))
        # 3. Register chunked vertices for a future decision (a vertex never
        #    references itself, so registration goes last).
        if vertex.block_chunks:
            self._prefix_pending[(vertex.round, vertex.source)] = {
                "vertex": vertex,
                "votes": {},
            }

    def _prefix_decide(self, key: tuple[Round, NodeId], entry: dict) -> None:
        """Close the attestation window: order the certified prefix."""
        round_, source = key
        vertex: Vertex = entry["vertex"]
        votes: dict[NodeId, int] = entry["votes"]
        if votes:
            round_cfg = self.clan_schedule.cfg_at(round_)
            quorum = round_cfg.clan_echo_quorum(round_cfg.block_clan_of(source))
            # The t-th largest attested value with t = f_c+1: at least one
            # honest attester holds >= k chunks, so [0, k) is retrievable.
            t = min(quorum, len(votes))
            k = sorted(votes.values(), reverse=True)[t - 1]
        else:
            k = 0
        self.prefix_chunks_committed += k
        self.prefix_chunks_dropped += vertex.block_chunks - k
        if k > 0:
            self.prefix_commits += 1
        if k < vertex.block_chunks:
            self.prefix_truncated += 1
        if self.tracer.verbose:
            self.tracer.counter(
                "consensus.prefix", node=self.node_id, time=self.sim.now,
                round=round_, source=source, chunks=vertex.block_chunks,
                committed=k,
            )
        if self.on_prefix is not None:
            self.on_prefix(self, vertex, k)
        # Always deliver — the empty (k=0) prefix included: the executor
        # drains blocks in total order and would stall forever on a gap.
        holders = sorted(v for v, held in votes.items() if held >= k)
        self._prefix_deliver(vertex, k, holders)

    def _prefix_deliver(self, vertex: Vertex, k: int, holders: list[NodeId]) -> None:
        """Hand the decided prefix to execution (clan duty); the RBC pulls
        missing chunks from attesters who claimed to hold at least k."""
        if self.on_commit_block is None:
            return
        if not self.rbc.serves_block(vertex.source, vertex.round):
            return
        # Clan members are fallback holders: chunk responses also carry the
        # manifest, so a member that pulled the bare vertex still recovers.
        round_cfg = self.clan_schedule.cfg_at(vertex.round)
        clan = round_cfg.clan(round_cfg.block_clan_of(vertex.source))
        pool = holders + sorted(p for p in clan if p not in holders)
        self.rbc.fetch_prefix(
            vertex, k, [h for h in pool if h != self.node_id],
            lambda block: self.on_commit_block(self, vertex.block_digest, block),
        )

    # -- block handling ------------------------------------------------------------------

    def _on_block_delivered(self, block: Block) -> None:
        self.blocks[block.payload_digest()] = block
        if self.on_block_ready is not None:
            self.on_block_ready(self, block)

    # -- inspection --------------------------------------------------------------------

    @property
    def ordered_log(self) -> list[tuple[Vertex, float]]:
        """``(vertex, commit time)`` in this node's total order, rebuilt from
        the commit record on every read.  It exists only because the frozen
        benchmark harness, ``benchmarks/perf/workloads.py``, reads it; code
        in this repository reads the record (``self.commits``)."""
        return list(self.commits.entries(self.node_id))
